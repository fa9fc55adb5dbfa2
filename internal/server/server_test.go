package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/timebase"
)

// newTestServer starts an in-process daemon on an ephemeral port and a
// client bound to it, both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, Dial(hs.URL)
}

// gatedTestServer is newTestServer with every runner held at a gate the
// test opens; the gate is installed under the server lock before any job
// exists, so the runner's later read is ordered after it.
func newGatedTestServer(t *testing.T, cfg Config) (*Server, *Client, chan struct{}) {
	t.Helper()
	s, c := newTestServer(t, cfg)
	gate := make(chan struct{})
	s.mu.Lock()
	s.gate = gate
	s.mu.Unlock()
	return s, c, gate
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// tinySweepRequest is a small, fast inline sweep used across tests.
func tinySweepRequest() JobRequest {
	return JobRequest{
		Kind: "sweep",
		Sweep: &engine.SweepSpec{
			Name: "tiny-sweep",
			Base: engine.Scenario{
				Protocol:   engine.ProtocolSpec{Kind: "optimal", Omega: 36 * timebase.Microsecond, Alpha: 1},
				Population: 2,
				Trials:     8,
				Horizon:    engine.HorizonSpec{WorstMultiple: 3},
				Seed:       11,
			},
			Axes: []engine.SweepAxis{{Field: "protocol.eta", Values: []float64{0.01, 0.02, 0.05}}},
		},
	}
}

// slowSweepRequest is an inline sweep with enough trials that a test can
// observe (and cancel) it mid-run.
func slowSweepRequest() JobRequest {
	return JobRequest{
		Kind: "sweep",
		Sweep: &engine.SweepSpec{
			Name: "slow-sweep",
			Base: engine.Scenario{
				Protocol:   engine.ProtocolSpec{Kind: "optimal", Omega: 36, Alpha: 1},
				Population: 6,
				Trials:     200000,
				Horizon:    engine.HorizonSpec{WorstMultiple: 6},
				Channel:    engine.ChannelSpec{Collisions: true, HalfDuplex: true, Jitter: 360},
				Seed:       5,
			},
			Axes: []engine.SweepAxis{{Field: "protocol.eta", Values: []float64{0.02, 0.05, 0.1}}},
		},
	}
}

func TestPresetsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	got, err := c.Presets(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	find := func(section, name string) bool {
		for _, e := range got[section] {
			if e.Name == name {
				return true
			}
		}
		return false
	}
	if !find("suites", "paper-fig7") {
		t.Errorf("suite paper-fig7 missing from listing: %v", got["suites"])
	}
	if !find("sweeps", "sweep-density") {
		t.Errorf("sweep sweep-density missing from listing: %v", got["sweeps"])
	}
	if !find("adaptive", "adaptive-eta") {
		t.Errorf("adaptive adaptive-eta missing from listing: %v", got["adaptive"])
	}
}

func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	h, err := c.Healthz(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("healthz status = %v", h["status"])
	}
	for _, key := range []string{"queued", "running", "jobs_run", "cache_hits"} {
		if _, ok := h[key]; !ok {
			t.Errorf("healthz missing %q: %v", key, h)
		}
	}
}

// TestSubmitValidation: every malformed submission is a 400 with a JSON
// error envelope, never an accepted job.
func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := testCtx(t)
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"unknown kind", JobRequest{Kind: "banquet"}, "unknown job kind"},
		{"unknown suite", JobRequest{Kind: "suite", Name: "no-such-suite"}, "no-such-suite"},
		{"no spec", JobRequest{Kind: "sweep"}, "needs a sweep preset name"},
		{"conflicting inline", JobRequest{Kind: "sweep", Sweep: tinySweepRequest().Sweep, Adaptive: &engine.AdaptiveSpec{}}, "at most one"},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
		if ae, ok := err.(*apiError); ok && ae.Status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, ae.Status)
		}
	}
	// An unknown JSON key (the removed "stream" option among them) and
	// anything after the request document must be rejected, like
	// ndscen's spec files.
	for name, body := range map[string]string{
		"unknown key":   `{"kind":"suite","name":"paper-fig7","trialz":5}`,
		"removed field": `{"kind":"suite","name":"paper-fig7","stream":"on"}`,
		"trailing data": `{"kind":"suite","name":"paper-fig7"}{"garbage":true} trailing`,
		"second object": `{"kind":"suite","name":"paper-fig7"} {"kind":"suite","name":"protocols"}`,
	} {
		resp, err := http.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestUnknownJobAndMethods(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := testCtx(t)
	if _, err := c.Job(ctx, "deadbeef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job: got %v, want 404", err)
	}
	if _, err := c.Result(ctx, "deadbeef"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job result: got %v, want 404", err)
	}
	resp, err := http.Get(c.base + "/v1/nothing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint: status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, c.base+"/v1/jobs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: status %d, want 405", resp.StatusCode)
	}
}

// TestResultNotReady: a queued job's result is a 409, not an empty body.
func TestResultNotReady(t *testing.T) {
	_, c, gate := newGatedTestServer(t, Config{Workers: 2})
	ctx := testCtx(t)
	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("unfinished result: got %v, want 409", err)
	}
	close(gate)
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, st.ID); err != nil {
		t.Errorf("finished result: %v", err)
	}
}

func TestJobList(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := testCtx(t)
	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("job list = %+v, want the one submitted job", list.Jobs)
	}
}
