package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/coverage"
	"repro/internal/optimal"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

func senderOnly(b schedule.BeaconSeq) schedule.Device { return schedule.Device{B: b} }
func listenOnly(c schedule.WindowSeq) schedule.Device { return schedule.Device{C: c} }

// runNodes runs single-channel nodes through the kernel on a fresh arena,
// with jitter drawn from rng (nil without jitter).
func runNodes(nodes []Node, cfg Config, rng *rand.Rand) (WorldResult, error) {
	scr := NewScratch()
	return RunWorldScratch(worldFromNodes(nodes, scr), cfg, rng, scr)
}

// firstEnd returns when receiver first heard sender: the completion time
// of the first received packet.
func firstEnd(res WorldResult, receiver, sender int) (timebase.Ticks, bool) {
	rec, ok := res.FirstReception(receiver, sender)
	return rec.End, ok
}

func TestRunRejectsBadInput(t *testing.T) {
	u, _ := optimal.NewUnidirectional(2, 10, 4, 1)
	nodes := []Node{{Device: senderOnly(u.Sender)}, {Device: listenOnly(u.Listener)}}
	if _, err := runNodes(nodes, Config{Horizon: 0}, nil); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := runNodes(nodes[:1], Config{Horizon: 100}, nil); err == nil {
		t.Error("single node accepted")
	}
}

func TestRunBasicDiscovery(t *testing.T) {
	// Sender beacons every 30 from phase 0; listener window [30,40) per 40.
	u, err := optimal.NewUnidirectional(2, 10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{
		{Device: senderOnly(u.Sender), Phase: 0},
		{Device: listenOnly(u.Listener), Phase: 0},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := firstEnd(res, 1, 0)
	if !ok {
		t.Fatal("no discovery")
	}
	// Beacons at 0, 30, 60, 90…; windows [30,40), [70,80)… → beacon at 30
	// starts inside window [30,40): completes at 32.
	if at != 32 {
		t.Errorf("first discovery at %d, want 32", at)
	}
	// The sender never listens: it must not discover anyone.
	if _, ok := firstEnd(res, 0, 1); ok {
		t.Error("transmit-only node discovered someone")
	}
}

func TestRunRespectsPhases(t *testing.T) {
	u, _ := optimal.NewUnidirectional(2, 10, 4, 1)
	nodes := []Node{
		{Device: senderOnly(u.Sender), Phase: 5},
		{Device: listenOnly(u.Listener), Phase: 0},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Beacons now at 5, 35, 65, 95…; windows [30,40)… → beacon at 35.
	if at, ok := firstEnd(res, 1, 0); !ok || at != 37 {
		t.Errorf("discovery at %v (ok=%v), want 37", at, ok)
	}
}

func TestPairLatenciesMatchesCoverageWorstCase(t *testing.T) {
	u, err := optimal.NewUnidirectional(2, 25, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := coverage.Analyze(u.Sender, u.Listener, coverage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Horizon: 4 * u.WorstCase}
	rng := rand.New(rand.NewSource(42))
	scr := NewScratch()
	var samples []timebase.Ticks
	misses := 0
	for i := 0; i < 300; i++ {
		at, ok, err := PairTrialScratch(senderOnly(u.Sender), listenOnly(u.Listener), cfg, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			samples = append(samples, at)
		} else {
			misses++
		}
	}
	slices.Sort(samples)
	stats := CollectSorted(samples, misses)
	if stats.Misses != 0 {
		t.Fatalf("%d misses despite deterministic schedule", stats.Misses)
	}
	// Monte-Carlo max must never exceed the analytic worst case (+ω for
	// the completion-time convention) and should get close to it.
	bound := ana.WorstLatency + 2
	if stats.Max > bound {
		t.Errorf("simulated max %d exceeds analytic worst case %d", stats.Max, bound)
	}
	if float64(stats.Max) < 0.5*float64(bound) {
		t.Errorf("simulated max %d suspiciously below worst case %d", stats.Max, bound)
	}
	if stats.Mean <= 0 || stats.Mean >= float64(bound) {
		t.Errorf("mean %v out of range", stats.Mean)
	}
}

func TestCollisionsDestroyOverlappingPackets(t *testing.T) {
	// Two senders phase-locked to transmit simultaneously, one listener.
	b, _ := schedule.NewEqualGapBeacons(1, 100, 10, 0)
	c, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 100}}, 100)
	nodes := []Node{
		{Device: senderOnly(b), Phase: 0},
		{Device: senderOnly(b), Phase: 5}, // overlaps [5,15) vs [0,10)
		{Device: listenOnly(c), Phase: 0},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000, Collisions: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided != res.Transmissions {
		t.Errorf("all packets should collide: %d/%d", res.Collided, res.Transmissions)
	}
	if _, ok := firstEnd(res, 2, 0); ok {
		t.Error("collided packet was received")
	}
	// Same setup without the collision channel: reception succeeds.
	res2, _ := runNodes(nodes, Config{Horizon: 1000, Collisions: false}, nil)
	if _, ok := firstEnd(res2, 2, 0); !ok {
		t.Error("no reception even without collisions")
	}
}

func TestCollisionChainMarking(t *testing.T) {
	// A long packet overlapping two short ones that do not overlap each
	// other: all three must be marked.
	long, _ := schedule.NewBeaconsAt([]timebase.Ticks{0}, 50, 1000)
	s1, _ := schedule.NewBeaconsAt([]timebase.Ticks{10}, 5, 1000)
	s2, _ := schedule.NewBeaconsAt([]timebase.Ticks{30}, 5, 1000)
	nodes := []Node{
		{Device: senderOnly(long)},
		{Device: senderOnly(s1)},
		{Device: senderOnly(s2)},
		{Device: listenOnly(schedule.WindowSeq{Windows: []schedule.Window{{Start: 0, Len: 1000}}, Period: 1000})},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000, Collisions: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collided != 3 {
		t.Errorf("collided = %d, want 3", res.Collided)
	}
}

func TestHalfDuplexBlocksOwnReception(t *testing.T) {
	// Receiver transmits exactly when the sender's beacon arrives.
	sender, _ := schedule.NewBeaconsAt([]timebase.Ticks{50}, 10, 1000)
	rxB, _ := schedule.NewBeaconsAt([]timebase.Ticks{48}, 20, 1000)
	rxC, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 1000}}, 1000)
	nodes := []Node{
		{Device: senderOnly(sender)},
		{Device: schedule.Device{B: rxB, C: rxC}},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000, HalfDuplex: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := firstEnd(res, 1, 0); ok {
		t.Error("half-duplex radio received while transmitting")
	}
	res2, _ := runNodes(nodes, Config{Horizon: 1000, HalfDuplex: false}, nil)
	if _, ok := firstEnd(res2, 1, 0); !ok {
		t.Error("full-duplex control case failed to receive")
	}
}

func TestTruncatedWindowsSemantics(t *testing.T) {
	// Beacon starts 5 ticks before window end but needs 10 ticks of air.
	sender, _ := schedule.NewBeaconsAt([]timebase.Ticks{95}, 10, 1000)
	c, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 100}}, 1000)
	nodes := []Node{
		{Device: senderOnly(sender)},
		{Device: listenOnly(c)},
	}
	res, _ := runNodes(nodes, Config{Horizon: 1000, TruncatedWindows: true}, nil)
	if _, ok := firstEnd(res, 1, 0); ok {
		t.Error("truncated packet received under A.3 semantics")
	}
	res2, _ := runNodes(nodes, Config{Horizon: 1000}, nil)
	if _, ok := firstEnd(res2, 1, 0); !ok {
		t.Error("default semantics should accept the partially overlapping packet")
	}
}

func TestCollisionRateMatchesEq12(t *testing.T) {
	// S identical beaconers with random phases: per-packet collision rate
	// should track 1 − e^(−2(S−1)β).
	omega := timebase.Ticks(36)
	gap := timebase.Ticks(3600) // β = 0.01
	b, err := schedule.NewEqualGapBeacons(1, gap, omega, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := schedule.Device{B: b, C: schedule.WindowSeq{
		Windows: []schedule.Window{{Start: gap - 400, Len: 400}}, Period: gap}}
	beta := dev.B.Beta()
	cfg := Config{
		Horizon:    40 * gap,
		Collisions: true,
		Jitter:     gap / 3, // decorrelate the periodic pattern
	}
	scr := NewScratch()
	for _, s := range []int{2, 5, 10} {
		rng := rand.New(rand.NewSource(7))
		transmissions, collided := 0, 0
		for i := 0; i < 60; i++ {
			tr, err := GroupTrialScratch(dev, s, cfg, rng, scr)
			if err != nil {
				t.Fatal(err)
			}
			transmissions += tr.Transmissions
			collided += tr.Collided
		}
		want := 1 - math.Exp(-2*float64(s-1)*beta)
		got := float64(collided) / float64(transmissions)
		if math.Abs(got-want) > 0.5*want+0.01 {
			t.Errorf("S=%d: collision rate %v, Eq 12 predicts %v", s, got, want)
		}
	}
}

func TestJitterDecorrelatesPhaseLockedCollisions(t *testing.T) {
	// Two advertisers with identical periods whose beacons always overlap,
	// plus one listener: without jitter every packet collides forever;
	// with jitter discovery eventually succeeds. This is the paper's
	// closing observation about BLE's advDelay randomization.
	omega := timebase.Ticks(36)
	b, _ := schedule.NewEqualGapBeacons(1, 5000, omega, 0)
	listener := schedule.Device{C: schedule.WindowSeq{
		Windows: []schedule.Window{{Start: 0, Len: 5000}}, Period: 5000}}
	nodes := []Node{
		{Device: senderOnly(b), Phase: 0},
		{Device: senderOnly(b), Phase: 10}, // overlaps: |10| < ω
		{Device: listener, Phase: 0},
	}
	noJitter, err := runNodes(nodes, Config{Horizon: 200000, Collisions: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := firstEnd(noJitter, 2, 0); ok {
		t.Error("phase-locked collisions should never resolve without jitter")
	}
	withJitter, err := runNodes(nodes, Config{Horizon: 200000, Collisions: true, Jitter: 200}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := firstEnd(withJitter, 2, 0); !ok {
		t.Error("jitter failed to decorrelate the collision pattern")
	}
}

func TestCollectStats(t *testing.T) {
	samples := []timebase.Ticks{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	st := CollectSorted(samples, 2)
	if st.N != 12 || st.Misses != 2 {
		t.Errorf("N=%d Misses=%d", st.N, st.Misses)
	}
	if st.Min != 10 || st.Max != 100 {
		t.Errorf("Min=%d Max=%d", st.Min, st.Max)
	}
	if st.Mean != 55 {
		t.Errorf("Mean=%v", st.Mean)
	}
	if st.P50 != 50 {
		t.Errorf("P50=%d", st.P50)
	}
	if math.Abs(st.FailureRate()-2.0/12) > 1e-12 {
		t.Errorf("FailureRate=%v", st.FailureRate())
	}
	empty := CollectSorted(nil, 5)
	if empty.N != 5 || empty.FailureRate() != 1 {
		t.Errorf("empty collect: %+v", empty)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	u, _ := optimal.NewUnidirectional(2, 10, 4, 1)
	cfg := Config{Horizon: 100000, Collisions: true, Jitter: 50}
	nodes := []Node{
		{Device: senderOnly(u.Sender), Phase: 3},
		{Device: listenOnly(u.Listener), Phase: 17},
	}
	a, err := runNodes(nodes, cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runNodes(nodes, cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	atA, okA := firstEnd(a, 1, 0)
	atB, okB := firstEnd(b, 1, 0)
	if okA != okB || atA != atB {
		t.Errorf("same seed, different outcomes: (%v,%v) vs (%v,%v)", atA, okA, atB, okB)
	}
}
