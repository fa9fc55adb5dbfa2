package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/timebase"
	"repro/nd"
)

// The e2e harness re-execs the test binary with NDD_RUN_MAIN=1, which
// routes TestMain straight into main(): a real daemon process on a real
// TCP port, startable, killable (SIGKILL included, for the crash-resume
// test), exactly as a shell user runs it.
func TestMain(m *testing.M) {
	if os.Getenv("NDD_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var listenLine = regexp.MustCompile(`ndd: listening on (http://[^\s]+)`)

// daemon is one re-exec'd ndd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches ndd with the given flags on an ephemeral port and
// waits for the listen line on stderr.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "NDD_RUN_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The listen line is the daemon's first stderr output; scan until it
	// appears, then keep draining the pipe so the child never blocks on a
	// full stderr buffer.
	sc := bufio.NewScanner(stderr)
	base := ""
	for sc.Scan() {
		if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		cmd.Wait()
		t.Fatalf("daemon never printed its listen line (err %v)", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return &daemon{cmd: cmd, base: base}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "internal", "engine", "testdata", "golden", name))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return blob
}

// stripSuiteDoc re-renders a served suite/sweep document without its
// runtime sections.
func stripSuiteDoc(t *testing.T, doc []byte) []byte {
	t.Helper()
	var res engine.SuiteResult
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatalf("parse document: %v", err)
	}
	res.StripRuntime()
	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeGolden: the document a real ndd process serves over real HTTP
// for a committed preset is byte-identical (after stripping runtime
// sections) to the engine's golden file, and resubmission is answered from
// the result cache with the same bytes.
func TestServeGolden(t *testing.T) {
	d := startDaemon(t, "-workers", "2")
	ctx := testCtx(t)
	client := nd.Dial(d.base)

	st, err := nd.SubmitJob(ctx, client, nd.JobRequest{Kind: "suite", Name: "paper-fig7"})
	if err != nil {
		t.Fatal(err)
	}
	final, err := nd.WaitJob(ctx, client, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("job state %q, error %q", final.State, final.Error)
	}
	doc, err := nd.JobResult(ctx, client, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripSuiteDoc(t, doc), readGolden(t, "suite-paper-fig7.json"); !bytes.Equal(got, want) {
		t.Errorf("served document differs from golden\ngot:\n%s\nwant:\n%s", got, want)
	}

	re, err := nd.SubmitJob(ctx, client, nd.JobRequest{Kind: "suite", Name: "paper-fig7"})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Cached || re.Runtime == nil || !re.Runtime.ResultCacheHit {
		t.Errorf("resubmit = %+v, want result-cache hit", re)
	}
	cached, err := nd.JobResult(ctx, client, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, doc) {
		t.Error("cached document differs from the fresh run's bytes")
	}
}

// crashSweep is sized so each grid point takes long enough that a SIGKILL
// lands mid-sweep with some points journaled and some not.
func crashSweep() *engine.SweepSpec {
	return &engine.SweepSpec{
		Name: "crash-sweep",
		Base: engine.Scenario{
			Protocol:   engine.ProtocolSpec{Kind: "optimal", Omega: 36 * timebase.Microsecond, Alpha: 1},
			Population: 6,
			Trials:     12000,
			Horizon:    engine.HorizonSpec{WorstMultiple: 6},
			Channel:    engine.ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 360},
			Seed:       7,
		},
		Axes: []engine.SweepAxis{{Field: "protocol.eta", Values: []float64{0.02, 0.04, 0.06, 0.08, 0.1, 0.12}}},
	}
}

// TestCrashResume: SIGKILL a journal-backed daemon mid-sweep, restart it
// on the same journal, and the job resumes — re-executing only the points
// that never completed — to a document identical to an uninterrupted run.
func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	req := nd.JobRequest{Kind: "sweep", Sweep: crashSweep()}

	d := startDaemon(t, "-workers", "2", "-journal", dir)
	st, err := nd.SubmitJob(ctx, nd.Dial(d.base), req)
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dir, "jobs", st.ID)

	// Wait for at least one journaled point, then SIGKILL — no shutdown
	// hooks, no graceful drain.
	pointGlob := filepath.Join(jobDir, "engine", "point-*.json")
	for {
		points, _ := filepath.Glob(pointGlob)
		if len(points) >= 1 {
			break
		}
		if err := ctx.Err(); err != nil {
			t.Fatalf("no point ever journaled: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()

	// On a fast machine the kill can land after the whole sweep finished;
	// force the mid-sweep shape deterministically: no result, at least one
	// point missing.
	os.Remove(filepath.Join(jobDir, "result.json"))
	if points, _ := filepath.Glob(pointGlob); len(points) == 6 {
		os.Remove(points[len(points)-1])
	}
	survivors, _ := filepath.Glob(pointGlob)
	if len(survivors) == 0 || len(survivors) == 6 {
		t.Fatalf("journal holds %d/6 points after the kill — not a mid-sweep state", len(survivors))
	}

	// Restart on the same journal: recovery re-enqueues the job under the
	// same identity and the engine journal limits the re-run to the
	// missing points.
	d2 := startDaemon(t, "-workers", "2", "-journal", dir)
	client := nd.Dial(d2.base)
	final, err := nd.WaitJob(ctx, client, st.ID)
	if err != nil {
		t.Fatalf("job did not survive the crash: %v", err)
	}
	if final.State != "done" {
		t.Fatalf("resumed job state %q, error %q", final.State, final.Error)
	}
	if final.Runtime == nil || final.Runtime.ResumedPoints != len(survivors) {
		t.Errorf("resumed_points = %+v, want %d restored from the journal", final.Runtime, len(survivors))
	}
	doc, err := nd.JobResult(ctx, client, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same sweep computed in-process, straight through the
	// engine. The resumed daemon's document must match it byte for byte
	// once runtime sections are stripped.
	scenarios, err := crashSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := engine.RunSuite(scenarios, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := engine.SuiteResult{Suite: "crash-sweep", Scenarios: aggs}
	want.StripRuntime()
	var buf bytes.Buffer
	if err := engine.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if got := stripSuiteDoc(t, doc); !bytes.Equal(got, buf.Bytes()) {
		t.Error("resumed document differs from an uninterrupted in-process run")
	}
}

// TestFlagErrors: bad invocations exit 1 with an error on stderr.
func TestFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"stray positionals", []string{"stray"}, "unexpected arguments"},
		{"unlistenable addr", []string{"-addr", "256.0.0.1:99999"}, "listen"},
	}
	for _, tc := range cases {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "NDD_RUN_MAIN=1")
		var errb bytes.Buffer
		cmd.Stderr = &errb
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: err %v, want exit 1", tc.name, err)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q, want %q", tc.name, errb.String(), tc.want)
		}
	}
}

// TestGracefulShutdown: SIGTERM drains and exits 0.
func TestGracefulShutdown(t *testing.T) {
	d := startDaemon(t)
	if _, err := nd.Dial(d.base).Healthz(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("SIGTERM exit: %v, want clean exit", err)
	}
}

// TestStalledClientTimesOut: a raw TCP client that sends half a request
// line and stalls is disconnected within the header timeout (plus slack),
// and while it stalls a normal submit → result round trip still succeeds.
func TestStalledClientTimesOut(t *testing.T) {
	d := startDaemon(t, "-workers", "2")
	ctx := testCtx(t)

	conn, err := net.Dial("tcp", strings.TrimPrefix(d.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/jo")); err != nil {
		t.Fatal(err)
	}

	client := nd.Dial(d.base)
	st, err := nd.SubmitJob(ctx, client, nd.JobRequest{Kind: "suite", Name: "paper-fig7"})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := nd.WaitJob(ctx, client, st.ID); err != nil || final.State != "done" {
		t.Fatalf("job next to a stalled client: %+v, %v", final, err)
	}
	doc, err := nd.JobResult(ctx, client, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripSuiteDoc(t, doc), readGolden(t, "suite-paper-fig7.json"); !bytes.Equal(got, want) {
		t.Error("document served next to a stalled client differs from golden")
	}

	// The daemon may answer the timeout with an error status before
	// closing; either way the connection must reach EOF in time.
	const slack = 5 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Errorf("stalled connection closed after %v, well before the %v header timeout", elapsed, readHeaderTimeout)
	}
}
