package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/optimal"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

func TestNodePresenceGatesTransmissions(t *testing.T) {
	// Sender present only during [100, 200): beacons at 50, 150, 250 — only
	// the one at 150 is on air.
	b, _ := schedule.NewBeaconsAt([]timebase.Ticks{50}, 10, 100)
	c, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 1000}}, 1000)
	nodes := []Node{
		{Device: schedule.Device{B: b}, Arrive: 100, Depart: 200},
		{Device: schedule.Device{C: c}},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transmissions != 1 {
		t.Errorf("transmissions = %d, want 1 (only the beacon inside presence)", res.Transmissions)
	}
	at, ok := firstEnd(res, 1, 0)
	if !ok || at != 160 {
		t.Errorf("discovery at %v (ok=%v), want 160", at, ok)
	}
}

func TestNodePresenceGatesReception(t *testing.T) {
	// Receiver arrives at 100: the beacon at 50 is missed, the one at 150
	// received.
	b, _ := schedule.NewBeaconsAt([]timebase.Ticks{50}, 10, 100)
	c, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 1000}}, 1000)
	nodes := []Node{
		{Device: schedule.Device{B: b}},
		{Device: schedule.Device{C: c}, Arrive: 100},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := firstEnd(res, 1, 0)
	if !ok || at != 160 {
		t.Errorf("discovery at %v (ok=%v), want 160", at, ok)
	}
}

func TestDepartedReceiverHearsNothing(t *testing.T) {
	b, _ := schedule.NewBeaconsAt([]timebase.Ticks{500}, 10, 1000)
	c, _ := schedule.NewWindowsAt([]schedule.Window{{Start: 0, Len: 1000}}, 1000)
	nodes := []Node{
		{Device: schedule.Device{B: b}},
		{Device: schedule.Device{C: c}, Depart: 400},
	}
	res, err := runNodes(nodes, Config{Horizon: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := firstEnd(res, 1, 0); ok {
		t.Error("receiver heard a beacon after departing")
	}
}

// churnStats runs the given number of churn trials of s devices on one
// arena, drawing from one rng seeded with seed, and summarizes the judged
// contacts.
func churnStats(t *testing.T, dev schedule.Device, s, trials int, stay timebase.Ticks, cfg Config, seed int64) Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	scr := NewScratch()
	var samples []timebase.Ticks
	misses := 0
	for i := 0; i < trials; i++ {
		contacts, _, err := ChurnTrialScratch(dev, s, stay, cfg, rng, scr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range contacts {
			if c.Discovered {
				samples = append(samples, c.Latency)
			} else {
				misses++
			}
		}
	}
	slices.Sort(samples)
	return CollectSorted(samples, misses)
}

func TestChurnDiscoveryLongContacts(t *testing.T) {
	// Contacts much longer than the worst case: every judged pair must
	// discover, within the analytic worst case of the schedule.
	pair, err := optimal.NewSymmetric(36, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	worst := pair.WorstCase()
	stats := churnStats(t, pair.E, 4, 20, 0, Config{Horizon: 8 * worst}, 5)
	if stats.N == 0 {
		t.Fatal("no pairs judged")
	}
	if stats.Misses != 0 {
		t.Errorf("%d misses despite unbounded stays", stats.Misses)
	}
	if stats.Max > worst+36 {
		t.Errorf("churn max %v exceeds worst case %v", stats.Max, worst)
	}
}

func TestChurnDiscoveryShortContacts(t *testing.T) {
	// Stays shorter than the worst case must produce some misses: a
	// bounded contact window cannot guarantee discovery.
	pair, err := optimal.NewSymmetric(36, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	worst := pair.WorstCase()
	period := pair.E.B.Period
	if pair.E.C.Period > period {
		period = pair.E.C.Period
	}
	stay := period + worst/4 // long enough to be judged, short vs worst case
	stats := churnStats(t, pair.E, 6, 30, stay, Config{Horizon: 8 * worst}, 6)
	if stats.N == 0 {
		t.Skip("no pairs overlapped long enough; adjust parameters")
	}
	if stats.Misses == 0 {
		t.Errorf("short contacts should miss sometimes (N=%d)", stats.N)
	}
	// And the successes must fit inside the contact window.
	if stats.Max > stay {
		t.Errorf("latency %v exceeds the stay %v", stats.Max, stay)
	}
}

func TestChurnRejectsBadArgs(t *testing.T) {
	pair, _ := optimal.NewSymmetric(36, 1, 0.05)
	if _, _, err := ChurnTrialScratch(pair.E, 1, 0, Config{Horizon: 1000}, rand.New(rand.NewSource(0)), NewScratch()); err == nil {
		t.Error("s=1 accepted")
	}
}
