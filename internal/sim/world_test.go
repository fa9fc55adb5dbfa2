package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/multichannel"
	"repro/internal/schedule"
	"repro/internal/timebase"
)

// floorDivT is floor division on ticks (the test's own, so the reference
// shares no arithmetic helpers with the kernel).
func floorDivT(a, b timebase.Ticks) timebase.Ticks {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// bruteOccurrences enumerates the absolute start times of a periodic
// event (period, local offset at, placed by phase) whose unjittered start
// falls in [lo, hi), in increasing time order, by explicit cycle
// enumeration — deliberately independent of schedule.BeaconsWithin /
// WindowsWithin, so a defect there cannot hide from the cross-check.
func bruteOccurrences(period, at, phase, lo, hi timebase.Ticks) []timebase.Ticks {
	var out []timebase.Ticks
	for k := floorDivT(lo-at-phase, period); ; k++ {
		s := k*period + at + phase
		if s < lo {
			continue
		}
		if s >= hi {
			return out
		}
		out = append(out, s)
	}
}

// bruteTransmitsDuring is the reference's own half-duplex predicate: any
// unjittered beacon occurrence of the node overlapping [from, to), found
// by direct cycle enumeration rather than WorldNode.transmitsDuring.
func bruteTransmitsDuring(n *WorldNode, from, to timebase.Ticks) bool {
	for _, em := range n.Emits {
		if em.B.Period <= 0 {
			continue
		}
		for _, bc := range em.B.Beacons {
			// An occurrence s overlaps iff s < to and s+Len > from, so
			// enumerate starts in [from-Len+1, to) — shifted one period
			// early to be safely inclusive.
			for _, s := range bruteOccurrences(em.B.Period, bc.Time, em.Phase, from-bc.Len-em.B.Period, to) {
				if s < to && s+bc.Len > from {
					return true
				}
			}
		}
	}
	return false
}

// bruteResult is the reference's outcome: the kernel's traffic counters
// plus every first reception, keyed by (receiver, sender).
type bruteResult struct {
	Transmissions, Collided int
	PerChannel              []ChannelLoad
	First                   map[[2]int]Reception
}

// bruteWorld is the O(n²) reference implementation of the kernel: pairwise
// collision marking per channel and a direct scan of every (window, packet)
// combination, with no sorting, no binary search, no running maxima, and
// its own occurrence enumeration and half-duplex check. The kernel must
// agree with it exactly — transmissions, per-channel loads and every first
// reception, the least by (start, channel, end) as FirstReception
// documents. rng supplies the jitter, as it does to the kernel.
func bruteWorld(t *testing.T, nodes []WorldNode, cfg Config, rng *rand.Rand) bruteResult {
	t.Helper()
	nCh, err := channelCount(nodes)
	if err != nil {
		t.Fatal(err)
	}
	type btx struct {
		sender, channel int
		start, end      timebase.Ticks
		collided        bool
	}
	var txs []btx
	for i, n := range nodes {
		depart := n.departOr(cfg.Horizon)
		for _, em := range n.Emits {
			if em.B.Empty() {
				continue
			}
			// Jitter must be drawn in the kernel's order: per emission,
			// every beacon whose unjittered start lies in [-Period,
			// Horizon), time-ascending. Cycle-major enumeration over the
			// sorted in-period beacons yields exactly that order.
			type occ struct {
				s   timebase.Ticks
				len timebase.Ticks
			}
			var occs []occ
			for _, bc := range em.B.Beacons {
				for _, s := range bruteOccurrences(em.B.Period, bc.Time, em.Phase, -em.B.Period, cfg.Horizon) {
					occs = append(occs, occ{s: s, len: bc.Len})
				}
			}
			sort.Slice(occs, func(a, b int) bool { return occs[a].s < occs[b].s })
			for _, o := range occs {
				start := o.s
				if cfg.Jitter > 0 {
					start += timebase.Ticks(rng.Int63n(int64(cfg.Jitter) + 1))
				}
				end := start + o.len
				if end <= 0 || start >= cfg.Horizon || start < n.Arrive || end > depart {
					continue
				}
				txs = append(txs, btx{sender: i, channel: em.Channel, start: start, end: end})
			}
		}
	}
	if cfg.Collisions {
		for i := range txs {
			for j := range txs {
				if i == j || txs[i].channel != txs[j].channel {
					continue
				}
				if txs[i].start < txs[j].end && txs[j].start < txs[i].end {
					txs[i].collided = true
				}
			}
		}
	}
	res := bruteResult{
		Transmissions: len(txs),
		PerChannel:    make([]ChannelLoad, nCh),
		First:         make(map[[2]int]Reception),
	}
	for _, tx := range txs {
		res.PerChannel[tx.channel].Transmissions++
		if tx.collided {
			res.Collided++
			res.PerChannel[tx.channel].Collided++
		}
	}
	for r := range nodes {
		n := &nodes[r]
		rDepart := n.departOr(cfg.Horizon)
		for _, ls := range n.Listens {
			if ls.C.Empty() {
				continue
			}
			var wins [][2]timebase.Ticks // absolute [start, end)
			for _, w := range ls.C.Windows {
				for _, s := range bruteOccurrences(ls.C.Period, w.Start, ls.Phase, -ls.C.Period, cfg.Horizon) {
					wins = append(wins, [2]timebase.Ticks{s, s + w.Len})
				}
			}
			for _, w := range wins {
				wStart, wEnd := w[0], w[1]
				for _, tx := range txs {
					if tx.channel != ls.Channel || tx.start < wStart || tx.start >= wEnd {
						continue
					}
					if tx.sender == r || tx.start < n.Arrive || tx.end > rDepart {
						continue
					}
					if cfg.TruncatedWindows && tx.end > wEnd {
						continue
					}
					if cfg.Collisions && tx.collided {
						continue
					}
					if cfg.HalfDuplex && bruteTransmitsDuring(n, tx.start, tx.end) {
						continue
					}
					rec := Reception{Start: tx.start, End: tx.end, Channel: tx.channel}
					key := [2]int{r, tx.sender}
					prev, seen := res.First[key]
					if !seen || rec.Start < prev.Start ||
						rec.Start == prev.Start && (rec.Channel < prev.Channel ||
							rec.Channel == prev.Channel && rec.End < prev.End) {
						res.First[key] = rec
					}
				}
			}
		}
	}
	return res
}

// compareWorlds runs the kernel and the reference on the same world, each
// with its own jitter stream seeded with jitterSeed, and demands equal
// traffic, per-channel loads and first receptions.
func compareWorlds(t *testing.T, label string, nodes []WorldNode, cfg Config, jitterSeed int64) {
	t.Helper()
	var kernelRNG, bruteRNG *rand.Rand
	if cfg.Jitter > 0 {
		kernelRNG = rand.New(rand.NewSource(jitterSeed))
		bruteRNG = rand.New(rand.NewSource(jitterSeed))
	}
	got, err := RunWorldScratch(nodes, cfg, kernelRNG, NewScratch())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := bruteWorld(t, nodes, cfg, bruteRNG)
	if got.Transmissions != want.Transmissions || got.Collided != want.Collided {
		t.Fatalf("%s: traffic diverges: kernel %d/%d, brute force %d/%d",
			label, got.Transmissions, got.Collided, want.Transmissions, want.Collided)
	}
	if !reflect.DeepEqual(got.PerChannel, want.PerChannel) {
		t.Fatalf("%s: per-channel loads diverge:\nkernel %+v\nbrute  %+v", label, got.PerChannel, want.PerChannel)
	}
	for r := range nodes {
		for snd := range nodes {
			rec, ok := got.FirstReception(r, snd)
			wantRec, wantOK := want.First[[2]int{r, snd}]
			if ok != wantOK || rec != wantRec {
				t.Fatalf("%s: reception of %d at %d diverges: kernel %+v (%v), brute force %+v (%v)",
					label, snd, r, rec, ok, wantRec, wantOK)
			}
		}
	}
}

// randomWorld builds a small world of nodes with randomized periodic
// schedules spread over channels, including transmit-only, listen-only and
// churning nodes. Each emission sends one beacon per period, or with mixed
// two to four beacons of different lengths a few ticks apart, so jitter
// makes packets of one run start together.
func randomWorld(rng *rand.Rand, nNodes, nCh int, horizon timebase.Ticks, churn, mixed bool) []WorldNode {
	nodes := make([]WorldNode, nNodes)
	for i := range nodes {
		n := WorldNode{}
		if churn && rng.Intn(2) == 0 {
			n.Arrive = timebase.Ticks(rng.Int63n(int64(horizon / 2)))
			n.Depart = n.Arrive + timebase.Ticks(rng.Int63n(int64(horizon/2))) + 1
		}
		for c := 0; c < nCh; c++ {
			if rng.Intn(3) > 0 {
				b := schedule.BeaconSeq{Period: timebase.Ticks(rng.Intn(400) + 50)}
				if mixed {
					b.Beacons = mixedBeacons(rng, b.Period)
				} else {
					length := timebase.Ticks(rng.Intn(20) + 1)
					at := timebase.Ticks(rng.Intn(int(b.Period - length)))
					b.Beacons = []schedule.Beacon{{Time: at, Len: length}}
				}
				n.Emits = append(n.Emits, Emission{
					Channel: c,
					B:       b,
					Phase:   timebase.Ticks(rng.Intn(500)) - 250,
				})
			}
			if rng.Intn(3) > 0 {
				period := timebase.Ticks(rng.Intn(500) + 80)
				length := timebase.Ticks(rng.Intn(60) + 10)
				at := timebase.Ticks(rng.Intn(int(period - length)))
				n.Listens = append(n.Listens, Listening{
					Channel: c,
					C: schedule.WindowSeq{
						Windows: []schedule.Window{{Start: at, Len: length}},
						Period:  period,
					},
					Phase: timebase.Ticks(rng.Intn(500)) - 250,
				})
			}
		}
		nodes[i] = n
	}
	return nodes
}

// mixedBeacons draws two to four beacons of 1–20 ticks, each 0–2 ticks
// after the previous one's end, within period: close enough that jitter
// often starts two of them on one tick.
func mixedBeacons(rng *rand.Rand, period timebase.Ticks) []schedule.Beacon {
	var bs []schedule.Beacon
	at := timebase.Ticks(rng.Intn(20))
	for k := 2 + rng.Intn(3); k > 0; k-- {
		length := timebase.Ticks(rng.Intn(20) + 1)
		if at+length > period {
			break
		}
		bs = append(bs, schedule.Beacon{Time: at, Len: length})
		at += length + timebase.Ticks(rng.Intn(3))
	}
	return bs
}

// TestRunWorldMatchesBruteForce drives the kernel across randomized small
// worlds — 1 to 3 channels, every channel-semantics combination, static and
// churning presence, one beacon per emission and mixed-length beacons —
// and across crowds of 17 to 24 emitters on one channel, and demands exact
// agreement with the quadratic reference on traffic, per-channel collision
// accounting and every first reception.
func TestRunWorldMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	horizon := timebase.Ticks(3000)
	for trial := 0; trial < 200; trial++ {
		nNodes := 2 + rng.Intn(3)
		nCh := 1 + rng.Intn(3)
		churn := trial%4 == 3
		nodes := randomWorld(rng, nNodes, nCh, horizon, churn, false)
		cfg := Config{
			Horizon:          horizon,
			Collisions:       trial%2 == 0,
			HalfDuplex:       trial%3 == 0,
			TruncatedWindows: trial%5 == 0,
		}
		if trial%7 == 0 {
			cfg.Jitter = timebase.Ticks(rng.Intn(30) + 1)
		}
		compareWorlds(t, "random world", nodes, cfg, int64(trial)+1)
	}
	// Mixed-length worlds, jittered in three trials of four, so that
	// equal-start packets of one run are common; collisions, which destroy
	// both packets of such a tie, stay off in most.
	mixedRNG := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		nodes := randomWorld(mixedRNG, 2+mixedRNG.Intn(3), 1+mixedRNG.Intn(2), horizon, trial%5 == 4, true)
		cfg := Config{
			Horizon:          horizon,
			Collisions:       trial%5 == 0,
			HalfDuplex:       trial%7 == 0,
			TruncatedWindows: trial%2 == 0,
		}
		if trial%4 != 0 {
			cfg.Jitter = timebase.Ticks(mixedRNG.Intn(30) + 1)
		}
		compareWorlds(t, "mixed-length world", nodes, cfg, int64(trial)+1)
	}
	// Crowds: more than 16 emitters on channel 0, on the collision channel,
	// some jittered and some with many equal starts.
	crowdRNG := rand.New(rand.NewSource(43))
	for trial := 0; trial < 24; trial++ {
		nNodes := 17 + crowdRNG.Intn(8)
		equalStarts := trial%3 == 0
		nodes := crowdWorld(crowdRNG, nNodes, 1+trial%2, horizon, trial%4 == 3, equalStarts, false)
		cfg := Config{
			Horizon:    horizon,
			Collisions: true,
			HalfDuplex: trial%5 < 2,
		}
		if trial%2 == 1 {
			cfg.Jitter = timebase.Ticks(crowdRNG.Intn(30) + 1)
		}
		compareWorlds(t, "crowd world", nodes, cfg, int64(trial)+1)
	}
}

// crowdWorld is randomWorld plus one channel-0 emission per node, so all
// nNodes nodes emit on channel 0. With equalStarts those emissions share
// one period and phase and draw their offsets from four values, so many
// packets start at the same tick.
func crowdWorld(rng *rand.Rand, nNodes, nCh int, horizon timebase.Ticks, churn, equalStarts, mixed bool) []WorldNode {
	nodes := randomWorld(rng, nNodes, nCh, horizon, churn, mixed)
	shared := timebase.Ticks(rng.Intn(300) + 100)
	for i := range nodes {
		period := shared
		at := 10 * timebase.Ticks(rng.Intn(4))
		phase := timebase.Ticks(0)
		if !equalStarts {
			period = timebase.Ticks(rng.Intn(400) + 50)
			at = timebase.Ticks(rng.Intn(int(period - 20)))
			phase = timebase.Ticks(rng.Intn(500)) - 250
		}
		nodes[i].Emits = append(nodes[i].Emits, Emission{
			Channel: 0,
			B: schedule.BeaconSeq{
				Beacons: []schedule.Beacon{{Time: at, Len: timebase.Ticks(rng.Intn(20) + 1)}},
				Period:  period,
			},
			Phase: phase,
		})
	}
	return nodes
}

// FuzzRunWorldMatchesBruteForce runs the kernel and the quadratic
// reference on fuzzer-chosen worlds: seed drives randomWorld (or
// crowdWorld), nodes and channels pick the world's size, and flags the
// channel semantics and whether emissions mix beacon lengths. The two must
// agree exactly.
func FuzzRunWorldMatchesBruteForce(f *testing.F) {
	const (
		collisions = 1 << iota
		halfDuplex
		truncated
		jitter
		churn
		crowd
		equalStarts
		mixedLengths
	)
	f.Add(int64(1), uint8(2), uint8(1), uint8(0))
	f.Add(int64(2), uint8(20), uint8(1), uint8(collisions|jitter|crowd))
	f.Add(int64(3), uint8(6), uint8(3), uint8(collisions|halfDuplex|churn))
	f.Add(int64(4), uint8(2), uint8(1), uint8(jitter|mixedLengths))
	f.Fuzz(func(t *testing.T, seed int64, nodes, channels, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		horizon := timebase.Ticks(3000)
		n := 2 + int(nodes)%23
		nCh := 1 + int(channels)%3
		var world []WorldNode
		mixed := flags&mixedLengths != 0
		if flags&crowd != 0 {
			world = crowdWorld(rng, n, nCh, horizon, flags&churn != 0, flags&equalStarts != 0, mixed)
		} else {
			world = randomWorld(rng, n, nCh, horizon, flags&churn != 0, mixed)
		}
		cfg := Config{
			Horizon:          horizon,
			Collisions:       flags&collisions != 0,
			HalfDuplex:       flags&halfDuplex != 0,
			TruncatedWindows: flags&truncated != 0,
		}
		if flags&jitter != 0 {
			cfg.Jitter = timebase.Ticks(rng.Intn(30) + 1)
		}
		compareWorlds(t, "fuzzed world", world, cfg, seed)
	})
}

// TestFirstReceptionTieOrder: of equal-start packets in one run, the
// shortest is the first reception, whatever order jitter generated them in
// and however the run was sorted, so a longer horizon cannot change a
// reception that ended well before the shorter one's cut. Here a jittered
// emitter of mixed-length beacons starts two packets at tick 8, 6 and 1
// ticks long.
func TestFirstReceptionTieOrder(t *testing.T) {
	emitter := WorldNode{Emits: []Emission{{B: schedule.BeaconSeq{
		Beacons: []schedule.Beacon{{Time: 3, Len: 5}, {Time: 7, Len: 1}, {Time: 10, Len: 6}, {Time: 11, Len: 5}, {Time: 15, Len: 1}},
		Period:  44,
	}, Phase: 24}}}
	listener := WorldNode{Listens: []Listening{{C: schedule.WindowSeq{
		Windows: []schedule.Window{{Start: 0, Len: 5}},
		Period:  32,
	}, Phase: 7}}}
	want := Reception{Start: 8, End: 9}
	for _, h := range []timebase.Ticks{218, 1744} {
		cfg := Config{Horizon: h, Jitter: 26}
		res, err := RunWorldScratch([]WorldNode{emitter, listener}, cfg, rand.New(NewFastSource(3684313017840420493)), NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		if rec, ok := res.FirstReception(1, 0); !ok || rec != want {
			t.Errorf("horizon %d: first reception %+v (%v), want %+v", h, rec, ok, want)
		}
	}
}

// TestRunWorldMultiChannelGroupMatchesBruteForce pins the kernel against
// the brute-force reference on the exact node construction the
// multichannel-group and multichannel-churn workloads use — BLE-style
// advertiser/scanner devices with per-channel collisions and half-duplex
// radios — on small populations.
func TestRunWorldMultiChannelGroupMatchesBruteForce(t *testing.T) {
	mc := multichannel.Config{
		Ta: 700, Omega: 40, IFS: 10,
		Ts: 900, Ds: 300, Channels: 3,
	}
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
	circle := timebase.Ticks(mc.Channels) * mc.Ts
	bs, ws := NewScratch().mcTemplates(mc)
	rng := rand.New(rand.NewSource(7))
	horizon := timebase.Ticks(20000)
	for trial := 0; trial < 50; trial++ {
		s := 2 + rng.Intn(3)
		nodes := make([]WorldNode, s)
		for i := range nodes {
			u := timebase.Ticks(rng.Int63n(int64(mc.Ta)))
			x := timebase.Ticks(rng.Int63n(int64(circle)))
			for c := range bs {
				nodes[i].Emits = append(nodes[i].Emits, Emission{Channel: c, B: bs[c], Phase: -u})
				nodes[i].Listens = append(nodes[i].Listens, Listening{Channel: c, C: ws[c], Phase: -x})
			}
			if trial%2 == 1 {
				nodes[i].Arrive = timebase.Ticks(rng.Int63n(int64(horizon / 2)))
				nodes[i].Depart = nodes[i].Arrive + horizon/3
			}
		}
		cfg := Config{Horizon: horizon, Collisions: true, HalfDuplex: true}
		compareWorlds(t, "multi-channel group world", nodes, cfg, 0)
	}
}

// TestRunWorldRejectsBadInput: the kernel validates its inputs.
func TestRunWorldRejectsBadInput(t *testing.T) {
	ok := WorldNode{Emits: []Emission{{B: schedule.BeaconSeq{
		Beacons: []schedule.Beacon{{Time: 0, Len: 1}}, Period: 10,
	}}}}
	if _, err := RunWorldScratch([]WorldNode{ok, ok}, Config{Horizon: 0}, nil, NewScratch()); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := RunWorldScratch([]WorldNode{ok}, Config{Horizon: 100}, nil, NewScratch()); err == nil {
		t.Error("single-node world accepted")
	}
	bad := ok
	bad.Emits = []Emission{{Channel: -1, B: ok.Emits[0].B}}
	if _, err := RunWorldScratch([]WorldNode{bad, ok}, Config{Horizon: 100}, nil, NewScratch()); err == nil {
		t.Error("negative channel accepted")
	}
}

// TestRunWorldJitterNeedsRNG: jitter without a stream to draw it from is
// an error, and a nil stream is fine without jitter.
func TestRunWorldJitterNeedsRNG(t *testing.T) {
	ok := WorldNode{Emits: []Emission{{B: schedule.BeaconSeq{
		Beacons: []schedule.Beacon{{Time: 0, Len: 1}}, Period: 10,
	}}}}
	nodes := []WorldNode{ok, ok}
	_, err := RunWorldScratch(nodes, Config{Horizon: 100, Jitter: 3}, nil, NewScratch())
	if err == nil || !strings.Contains(err.Error(), "needs an rng") {
		t.Errorf("jitter without an rng: got error %v", err)
	}
	if _, err := RunWorldScratch(nodes, Config{Horizon: 100}, nil, NewScratch()); err != nil {
		t.Errorf("jitter-free run without an rng: %v", err)
	}
	if _, err := RunWorldScratch(nodes, Config{Horizon: 100, Jitter: 3}, rand.New(NewFastSource(1)), NewScratch()); err != nil {
		t.Errorf("jittered run with an rng: %v", err)
	}
}

// TestMultiChannelGroupTrialAccounting: the group trial's pooled counters
// are consistent — per-channel loads sum to the totals, discoveries sum to
// the discovered pairs, and samples + misses cover every ordered pair.
func TestMultiChannelGroupTrialAccounting(t *testing.T) {
	mc := multichannel.Config{Ta: 700, Omega: 40, IFS: 10, Ts: 900, Ds: 300, Channels: 3}
	rng := rand.New(NewFastSource(11))
	const s = 5
	res, err := MultiChannelGroupTrialScratch(mc, s, Config{Horizon: 30000, Collisions: true, HalfDuplex: true}, rng, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples)+res.Misses != s*(s-1) {
		t.Fatalf("judged %d+%d pairs, want %d", len(res.Samples), res.Misses, s*(s-1))
	}
	var tx, coll, disc int
	for _, l := range res.PerChannel {
		tx += l.Transmissions
		coll += l.Collided
	}
	for _, d := range res.Discoveries {
		disc += d
	}
	if tx != res.Transmissions || coll != res.Collided {
		t.Fatalf("per-channel loads %d/%d don't sum to totals %d/%d", tx, coll, res.Transmissions, res.Collided)
	}
	if disc != len(res.Samples) {
		t.Fatalf("per-channel discoveries %d don't match %d discovered pairs", disc, len(res.Samples))
	}
	if res.Transmissions == 0 {
		t.Fatal("no traffic simulated")
	}
}

// TestMultiChannelChurnTrialContacts: churn contacts are judged only past
// the scanner-cycle overlap threshold, latencies are measured from joint
// presence, and the counters stay consistent.
func TestMultiChannelChurnTrialContacts(t *testing.T) {
	mc := multichannel.Config{Ta: 700, Omega: 40, IFS: 10, Ts: 900, Ds: 300, Channels: 3}
	circle := timebase.Ticks(mc.Channels) * mc.Ts
	rng := rand.New(NewFastSource(13))
	const s = 6
	horizon := timebase.Ticks(40000)
	res, err := MultiChannelChurnTrialScratch(mc, s, horizon/3, Config{Horizon: horizon, Collisions: true}, rng, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contacts) == 0 {
		t.Fatal("no contacts judged")
	}
	if len(res.Contacts) > s*(s-1) {
		t.Fatalf("judged %d contacts, more than the %d ordered pairs", len(res.Contacts), s*(s-1))
	}
	discovered := 0
	for _, c := range res.Contacts {
		if c.Overlap < circle {
			t.Fatalf("contact with overlap %d below the %d-tick judging threshold", c.Overlap, circle)
		}
		if c.Discovered {
			discovered++
			if c.Latency < 0 || c.Latency > horizon {
				t.Fatalf("implausible contact latency %d", c.Latency)
			}
		}
	}
	if discovered != len(res.Samples) || len(res.Samples)+res.Misses != len(res.Contacts) {
		t.Fatalf("contact accounting inconsistent: %d discovered, %d samples, %d misses, %d contacts",
			discovered, len(res.Samples), res.Misses, len(res.Contacts))
	}
	var disc int
	for _, d := range res.Discoveries {
		disc += d
	}
	if disc != discovered {
		t.Fatalf("per-channel discoveries %d don't match %d discovered contacts", disc, discovered)
	}
}

// TestMultiChannelGroupTrialDeterministic: the same rng stream yields the
// same trial, and disjoint streams differ — the sharding contract.
func TestMultiChannelGroupTrialDeterministic(t *testing.T) {
	mc := multichannel.Config{Ta: 700, Omega: 40, IFS: 10, Ts: 900, Ds: 300, Channels: 3}
	cfg := Config{Horizon: 30000, Collisions: true}
	run := func(seed int64) GroupTrialResult {
		res, err := MultiChannelGroupTrialScratch(mc, 4, cfg, rand.New(NewFastSource(seed)), NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(3), run(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different trials")
	}
	if reflect.DeepEqual(run(3), run(4)) {
		t.Fatal("different seeds produced identical trials")
	}
}
