package engine

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/multichannel"
	"repro/internal/obs"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// buildMode selects the per-trial primitive a built protocol runs on.
type buildMode int

const (
	// modePair is the continuous-time event simulator: schedules E and F
	// with arbitrary tick-level phase offsets (pair, group and churn
	// workloads).
	modePair buildMode = iota
	// modeMultiChannel is the multi-channel advertiser/scanner pair
	// (sim.MultiChannelPairTrialScratch against multichannel.Analyze).
	modeMultiChannel
	// modeSlotGrid is the slot-aligned slotted pair
	// (sim.SlotGridPair.TrialScratch against slots.Analyze).
	modeSlotGrid
	// modeMultiChannelGroup is the multi-node multi-channel workload on
	// the world kernel (sim.MultiChannelGroupTrialScratch /
	// sim.MultiChannelChurnTrialScratch with per-channel collision
	// accounting); the pairwise multichannel.Analyze facts stay attached
	// as the quiet-channel baseline.
	modeMultiChannelGroup
)

// built is the materialized form of a ProtocolSpec: the two device
// schedules a scenario simulates (E == F for symmetric kinds), the exact
// coverage analysis of E's beacons against F's windows, and the
// fundamental bound the configuration should be measured against.
// Multi-channel and slot-domain kinds materialize their own models (MC,
// Slot) instead of device schedules; their exact facts are translated into
// the same Analysis shape so aggregation is mode-independent.
type built struct {
	Mode buildMode

	E, F      schedule.Device
	Symmetric bool // F is a copy of E; group workloads require this

	Analysis coverage.Result // exact pair analysis of E.B vs F.C
	// WorstTwoWay is the exact worst case the Bound speaks about: the
	// max over both discovery directions for asymmetric pairs, and
	// simply Analysis.WorstLatency when E == F. Zero when the schedule
	// is not deterministic.
	WorstTwoWay timebase.Ticks
	Bound       float64 // fundamental bound in ticks at the achieved budgets
	EtaE        float64 // E's achieved total duty-cycle
	EtaF        float64 // F's achieved total duty-cycle
	BetaE       float64 // E's transmit channel utilization
	GammaF      float64 // F's receive duty-cycle
	BetaMax     float64 // resolved channel cap ("constrained" only)

	// TableEntries is the entry count of the quiet pair's latency table
	// (sim.Pair.Tabulate) as the analysis reports it, for the pair kinds:
	// E's beacons against F's windows, or the multi-channel pair. Zero
	// when no table can be built.
	TableEntries int

	// MC is the multi-channel model and MCBranches its per-starting-PDU
	// exact analysis (modeMultiChannel only).
	MC         multichannel.Config
	MCBranches []multichannel.Branch

	// Slot is the slot-domain schedule, SlotLen the slot length, and
	// SlotPair the prepared trial state shared (read-only) by all trials
	// (modeSlotGrid only).
	Slot     slots.Schedule
	SlotLen  timebase.Ticks
	SlotPair *sim.SlotGridPair
}

// buildCacheCap bounds the build cache: enough to cover every preset,
// suite and modest sweep without rebuilds, while a 100k-point
// protocol-axis sweep — every grid point a distinct key — retains at most
// this many builds instead of all of them for the process lifetime.
const buildCacheCap = 256

// buildCache memoizes built schedules across trials, scenarios and suites:
// repeated trials of the same scenario — and distinct scenarios sharing a
// protocol — never rebuild or re-analyze schedules. Keyed by the protocol
// spec plus the population when the build consults it (the Appendix B
// solve). Entries hold a sync.Once so concurrent prepares of sweep points
// sharing a key run the expensive build + analysis exactly once; the cache
// evicts least-recently-used entries past its capacity (in-flight builders
// keep their entry alive through their own reference).
var buildCache = newBuildLRU(buildCacheCap)

// buildUncachedCalls counts buildUncached invocations, observed by the
// concurrent-miss test to prove the once-per-key contract.
var buildUncachedCalls atomic.Int64

type buildEntry struct {
	once sync.Once
	b    *built
	err  error
}

// buildLRU is the bounded, mutex-guarded LRU replacing the former
// unbounded sync.Map. Lookup and insertion are O(1); the lock is held only
// for list/map surgery, never across a build. It counts its traffic
// (hits/misses/evictions) for the observability layer; the counters are
// process-lifetime totals, snapshotted and differenced per run.
type buildLRU struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element
	order   *list.List // front = most recently used; values are *lruNode

	hits, misses, evictions int64
}

type lruNode struct {
	key   uint64
	entry *buildEntry
}

func newBuildLRU(capacity int) *buildLRU {
	return &buildLRU{
		cap:     capacity,
		entries: make(map[uint64]*list.Element),
		order:   list.New(),
	}
}

// get returns the entry for key, creating (and, past capacity, evicting
// the least recently used) as needed.
func (c *buildLRU) get(key uint64) *buildEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*lruNode).entry
	}
	c.misses++
	e := &buildEntry{}
	c.entries[key] = c.order.PushFront(&lruNode{key: key, entry: e})
	if c.order.Len() > c.cap {
		c.evictions++
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*lruNode).key)
	}
	return e
}

// stats snapshots the cache's lifetime traffic counters.
func (c *buildLRU) stats() obs.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return obs.CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// len reports the resident entry count (for the eviction test).
func (c *buildLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// populationDependent reports whether building p consults the scenario
// population — only the Appendix B solve does. buildKey and buildUncached
// both defer to this predicate so the cache can never share a build whose
// construction actually depended on the population.
func populationDependent(p ProtocolSpec) bool {
	return p.Kind == "constrained" && p.BetaMax == 0 && p.PF > 0
}

func buildKey(p ProtocolSpec, population int) uint64 {
	// For population-independent builds, keying on the population would
	// only duplicate build + analysis work across a population sweep's
	// grid points.
	if !populationDependent(p) {
		population = 0
	}
	blob, err := json.Marshal(struct {
		P ProtocolSpec `json:"p"`
		S int          `json:"s"`
	}{p, population})
	if err != nil {
		panic(fmt.Sprintf("engine: build key: %v", err))
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

// build materializes the protocol spec, memoized (errors included — specs
// are deterministic, so a failing build always fails). A miss analyzes on
// ws, the calling goroutine's workspace.
func build(p ProtocolSpec, population int, ws *coverage.Workspace) (*built, error) {
	e := buildCache.get(buildKey(p, population))
	e.once.Do(func() { e.b, e.err = buildUncached(p, population, ws) })
	return e.b, e.err
}

// blePI resolves a named BLE operating point.
func blePI(preset string) (protocols.PI, error) {
	switch preset {
	case "fast":
		return protocols.BLEFastAdv, nil
	case "balanced":
		return protocols.BLEBalanced, nil
	case "lowpower":
		return protocols.BLELowPower, nil
	}
	return protocols.PI{}, fmt.Errorf("engine: unknown BLE preset %q", preset)
}

func buildUncached(p ProtocolSpec, population int, ws *coverage.Workspace) (*built, error) {
	buildUncachedCalls.Add(1)
	alpha := p.Alpha
	if alpha == 0 {
		alpha = 1
	}
	params := core.Params{Omega: p.Omega, Alpha: alpha}

	if p.MultiChannel() || p.MultiChannelGroup() {
		return buildMultiChannel(p, params, alpha)
	}
	if p.SlotDomain() {
		return buildSlotGrid(p, params, alpha)
	}

	b := &built{Symmetric: true}
	switch p.Kind {
	case "optimal":
		pair, err := optimal.NewSymmetric(p.Omega, alpha, p.Eta)
		if err != nil {
			return nil, err
		}
		b.E, b.F = pair.E, pair.F

	case "asymmetric":
		pair, err := optimal.NewAsymmetric(p.Omega, alpha, p.EtaE, p.EtaF)
		if err != nil {
			return nil, err
		}
		b.E, b.F = pair.E, pair.F
		b.Symmetric = false

	case "constrained":
		betaMax := p.BetaMax
		if populationDependent(p) {
			// Appendix B: derive the channel cap from the redundancy
			// design for failure rate ≤ PF among the population.
			sol, err := collision.SolveFractional(params, p.Eta, p.PF, population, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: solving Appendix B cap: %w", err)
			}
			betaMax = sol.Beta
		}
		if betaMax <= 0 {
			return nil, fmt.Errorf("engine: constrained kind needs beta_max or pf")
		}
		pair, err := optimal.NewConstrained(p.Omega, alpha, p.Eta, betaMax)
		if err != nil {
			return nil, err
		}
		b.E, b.F = pair.E, pair.F
		b.BetaMax = betaMax

	case "pi-optimal":
		pi, err := protocols.OptimalPI(p.Omega, alpha, p.Eta)
		if err != nil {
			return nil, err
		}
		dev, err := pi.Device()
		if err != nil {
			return nil, err
		}
		b.E, b.F = dev, dev

	case "ble":
		pi, err := blePI(p.Preset)
		if err != nil {
			return nil, err
		}
		if p.Omega > 0 {
			pi.Omega = p.Omega
		}
		dev, err := pi.Device()
		if err != nil {
			return nil, err
		}
		b.E, b.F = dev, dev

	case "pi":
		pi := protocols.PI{Ta: p.Ta, Ts: p.Ts, Ds: p.Ds, Omega: p.Omega}
		dev, err := pi.Device()
		if err != nil {
			return nil, err
		}
		b.E, b.F = dev, dev

	case "disco", "uconnect", "searchlight", "diffcode":
		sl, err := buildSlotted(p)
		if err != nil {
			return nil, err
		}
		dev, err := sl.Device()
		if err != nil {
			return nil, err
		}
		b.E, b.F = dev, dev

	default:
		return nil, fmt.Errorf("engine: unknown protocol kind %q", p.Kind)
	}

	ana, entries, err := coverage.AnalyzeWithTableSize(b.E.B, b.F.C, coverage.Options{}, ws)
	if err != nil {
		return nil, fmt.Errorf("engine: analyzing %s: %w", p.Kind, err)
	}
	b.Analysis, b.TableEntries = ana, entries
	if ana.Deterministic {
		b.WorstTwoWay = ana.WorstLatency
	}
	if !b.Symmetric {
		// The two-way bounds (Theorem 5.7) cap the slower direction, so
		// the bound-comparable worst case is the max over both.
		rev, _, err := coverage.AnalyzeWithTableSize(b.F.B, b.E.C, coverage.Options{}, ws)
		if err != nil {
			return nil, fmt.Errorf("engine: analyzing %s reverse direction: %w", p.Kind, err)
		}
		switch {
		case !ana.Deterministic || !rev.Deterministic:
			b.WorstTwoWay = 0
		case rev.WorstLatency > b.WorstTwoWay:
			b.WorstTwoWay = rev.WorstLatency
		}
	}
	b.EtaE = b.E.Eta(alpha)
	b.EtaF = b.F.Eta(alpha)
	b.BetaE = b.E.B.Beta()
	b.GammaF = b.F.C.Gamma()

	switch p.Kind {
	case "asymmetric":
		b.Bound = params.Asymmetric(b.EtaE, b.EtaF)
	case "constrained":
		b.Bound = params.Constrained(b.EtaE, b.BetaMax)
	case "ble", "pi":
		// Each device's transmit and receive budget separately, spent
		// optimally (Theorem 5.7 with each side's full budget doubled to
		// express a one-way configuration), as in the BLE comparison of
		// the paper's Section 7.
		etaAdv := alpha * b.E.B.Beta()
		etaScan := b.F.C.Gamma()
		if etaAdv > 0 && etaScan > 0 {
			b.Bound = params.Asymmetric(2*etaAdv, 2*etaScan)
		}
	default:
		b.Bound = params.Symmetric(b.EtaE)
	}
	return b, nil
}

// buildSlotted constructs the slotted protocol named by p.Kind (with any
// "slot-" prefix already stripped by the caller for slot-domain kinds).
func buildSlotted(p ProtocolSpec) (*protocols.Slotted, error) {
	switch p.Kind {
	case "disco", "slot-disco":
		return protocols.NewDisco(p.P1, p.P2, p.SlotLen, p.Omega)
	case "uconnect", "slot-uconnect":
		return protocols.NewUConnect(p.P, p.SlotLen, p.Omega)
	case "searchlight", "slot-searchlight":
		return protocols.NewSearchlight(p.T, p.Striped, p.SlotLen, p.Omega)
	case "diffcode", "slot-diffcode":
		return protocols.NewDiffcode(p.Q, p.SlotLen, p.Omega)
	}
	return nil, fmt.Errorf("engine: unknown slotted kind %q", p.Kind)
}

// multiChannelConfig resolves the multi-channel model of spec p: explicit
// Ta/Ts/Ds/Omega, else the named BLE preset's values (the same precedence
// the "ble" kind applies), with BLE defaults for the channel count (3)
// and inter-frame space (150 µs).
func multiChannelConfig(p ProtocolSpec) (multichannel.Config, error) {
	ta, ts, ds, omega := p.Ta, p.Ts, p.Ds, p.Omega
	if p.Preset != "" {
		pi, err := blePI(p.Preset)
		if err != nil {
			return multichannel.Config{}, err
		}
		if ta == 0 {
			ta = pi.Ta
		}
		if ts == 0 {
			ts = pi.Ts
		}
		if ds == 0 {
			ds = pi.Ds
		}
		if omega == 0 {
			omega = pi.Omega
		}
	}
	channels := p.Channels
	if channels == 0 {
		channels = 3
	}
	ifs := p.IFS
	if ifs == 0 {
		ifs = 150 * timebase.Microsecond
	}
	return multichannel.Config{
		Ta: ta, Omega: omega, IFS: ifs,
		Ts: ts, Ds: ds, Channels: channels,
	}, nil
}

// buildMultiChannel materializes the "multichannel" kind and its
// multi-node siblings ("multichannel-group", "multichannel-churn"): the
// exact facts come from multichannel.Analyze, translated into the Analysis
// shape the aggregator reads for every mode. For the multi-node kinds the
// analysis is the quiet-channel pairwise baseline the crowd is measured
// against; every device plays both roles, so the build is symmetric.
func buildMultiChannel(p ProtocolSpec, params core.Params, alpha float64) (*built, error) {
	cfg, err := multiChannelConfig(p)
	if err != nil {
		return nil, err
	}
	res, entries, err := multichannel.AnalyzeWithTableSize(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: analyzing multichannel: %w", err)
	}
	b := &built{
		Mode:         modeMultiChannel,
		Symmetric:    false, // advertiser and scanner are distinct roles
		MC:           cfg,
		MCBranches:   res.Branches,
		TableEntries: entries,
		Analysis: coverage.Result{
			Deterministic:   res.Deterministic,
			CoveredFraction: res.CoveredFraction,
			WorstLatency:    res.WorstLatency,
			MeanLatency:     res.MeanLatency,
		},
	}
	if p.MultiChannelGroup() {
		b.Mode = modeMultiChannelGroup
		b.Symmetric = true // every device advertises and scans
	}
	if res.Deterministic {
		b.WorstTwoWay = res.WorstLatency
	}
	// The advertiser transmits Channels PDUs per advertising interval; the
	// scanner listens Ds out of every scan interval.
	b.BetaE = float64(cfg.Channels) * float64(cfg.Omega) / float64(cfg.Ta)
	b.GammaF = float64(cfg.Ds) / float64(cfg.Ts)
	if b.Symmetric {
		// Multi-node kinds: each device spends the advertiser's and the
		// scanner's budget, so the symmetric bound at the combined
		// duty-cycle is the yardstick.
		b.EtaE = alpha*b.BetaE + b.GammaF
		b.EtaF = b.EtaE
		b.Bound = params.Symmetric(b.EtaE)
		return b, nil
	}
	b.EtaE = alpha * b.BetaE
	b.EtaF = b.GammaF
	// As for "ble"/"pi": each side's budget doubled to express a one-way
	// configuration, so the ratio measures the multi-channel rotation
	// against the paper's two-way worst case at matched budgets.
	if b.EtaE > 0 && b.GammaF > 0 {
		b.Bound = params.Asymmetric(2*b.EtaE, 2*b.GammaF)
	}
	return b, nil
}

// buildSlotGrid materializes a "slot-*" kind: the schedule pattern comes
// from the same constructors as the continuous-time slotted kinds, the
// exact facts from the slot-domain analysis, and latency = slots × slot
// length throughout.
func buildSlotGrid(p ProtocolSpec, params core.Params, alpha float64) (*built, error) {
	if p.Kind == "slot-searchlight" && p.Striped {
		// Searchlight-S closes its striped-probing gaps by extending the
		// listen phase past the slot edge — exactly the overlap a rigid
		// slot grid cannot express.
		return nil, fmt.Errorf("engine: slot-searchlight does not support striped (slot extension needs the continuous-time kind)")
	}
	sl, err := buildSlotted(p)
	if err != nil {
		return nil, err
	}
	sch := slots.Schedule{Period: sl.Period, Active: sl.Active}
	res, err := slots.Analyze(sch, sch)
	if err != nil {
		return nil, fmt.Errorf("engine: analyzing %s: %w", p.Kind, err)
	}
	pair, err := sim.NewSlotGridPair(sch, sch, p.SlotLen)
	if err != nil {
		return nil, fmt.Errorf("engine: preparing %s: %w", p.Kind, err)
	}
	b := &built{
		Mode:      modeSlotGrid,
		Symmetric: true,
		Slot:      sch,
		SlotLen:   p.SlotLen,
		SlotPair:  pair,
		Analysis: coverage.Result{
			Deterministic:   res.Deterministic,
			CoveredFraction: res.CoveredFraction,
			WorstLatency:    timebase.Ticks(res.WorstSlots) * p.SlotLen,
			MeanLatency:     res.MeanSlots * float64(p.SlotLen),
		},
	}
	if res.Deterministic {
		b.WorstTwoWay = b.Analysis.WorstLatency
	}
	// Energy accounting uses the same slot layout as the continuous-time
	// kinds (two edge beacons plus the listen stretch per active slot), so
	// the two paths for one protocol are directly comparable.
	b.BetaE = sl.Beta()
	b.GammaF = sl.Gamma()
	b.EtaE = sl.Eta(alpha)
	b.EtaF = b.EtaE
	b.Bound = params.Symmetric(b.EtaE)
	return b, nil
}

// maxPeriod is the longest repetition period of the built pair, the
// fallback horizon unit for non-deterministic schedules.
func (b *built) maxPeriod() timebase.Ticks {
	switch b.Mode {
	case modeMultiChannel, modeMultiChannelGroup:
		// The longer of the advertiser's interval and the scanner's full
		// channel cycle (the hyperperiod can be impractically long).
		m := b.MC.Ta
		if c := timebase.Ticks(b.MC.Channels) * b.MC.Ts; c > m {
			m = c
		}
		return m
	case modeSlotGrid:
		return timebase.Ticks(b.Slot.Period) * b.SlotLen
	}
	m := b.E.B.Period
	for _, p := range []timebase.Ticks{b.E.C.Period, b.F.B.Period, b.F.C.Period} {
		if p > m {
			m = p
		}
	}
	return m
}
