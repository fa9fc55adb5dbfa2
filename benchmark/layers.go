package main

import (
	"fmt"
	"time"

	"repro/internal/coverage"
	"repro/internal/engine"
	"repro/internal/multichannel"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// reference is a scenario rebuilt outside the engine, from the layers'
// public functions: the schedules from the optimal/protocols constructors,
// the exact worst case from a standalone coverage/multichannel/slots
// analysis, and the inputs the sim trial primitives take. It is both the
// verifier's expected answer and the traced run's handle on each layer.
type reference struct {
	kernel string         // which sim primitive the scenario's trials run on
	worst  timebase.Ticks // the expected Aggregate.ExactWorst (0 when not deterministic)

	e, f     schedule.Device     // continuous-time kinds
	mc       multichannel.Config // multi-channel kinds
	slotPair *sim.SlotGridPair   // slot-domain kinds
}

// Kernel names; each is the suffix of a sim.<kernel>_ns_per_trial metric.
const (
	kernelPair     = "pair"
	kernelMCPair   = "mcpair"
	kernelSlotGrid = "slotgrid"
	kernelGroup    = "group"
	kernelMCGroup  = "mcgroup"
	kernelChurn    = "churn"
)

var kernels = []string{kernelPair, kernelMCPair, kernelSlotGrid, kernelGroup, kernelMCGroup, kernelChurn}

// kernelOf names the trial primitive the engine runs the scenario on.
func kernelOf(sc engine.Scenario) string {
	p := sc.Protocol
	switch {
	case p.MultiChannel():
		return kernelMCPair
	case p.MultiChannelGroup():
		return kernelMCGroup
	case p.SlotDomain():
		return kernelSlotGrid
	case sc.Churn != nil:
		return kernelChurn
	case sc.Population == 2:
		return kernelPair
	default:
		return kernelGroup
	}
}

// buildReference constructs and analyzes sc's protocol, recording a span
// per layer call under parent. Analysis spans carry the bytes the call
// allocated when tracing is on (calls run one at a time then).
func buildReference(sc engine.Scenario, tr *tracer, parent int) (*reference, error) {
	p := sc.Protocol
	ref := &reference{kernel: kernelOf(sc)}
	alpha := p.Alpha
	if alpha == 0 {
		alpha = 1
	}
	switch {
	case p.MultiChannel() || p.MultiChannelGroup():
		id := tr.begin("schedule.build", parent)
		cfg, err := mcConfig(p)
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		ref.mc = cfg
		var res multichannel.Result
		err = traceAnalysis(tr, "multichannel.analyze", parent, func() (err error) {
			res, err = multichannel.Analyze(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		if res.Deterministic {
			ref.worst = res.WorstLatency
		}

	case p.SlotDomain():
		id := tr.begin("schedule.build", parent)
		sl, err := slotted(p)
		var sch slots.Schedule
		if err == nil {
			sch = slots.Schedule{Period: sl.Period, Active: sl.Active}
			ref.slotPair, err = sim.NewSlotGridPair(sch, sch, p.SlotLen)
		}
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		var res slots.Result
		err = traceAnalysis(tr, "slots.analyze", parent, func() (err error) {
			res, err = slots.Analyze(sch, sch)
			return err
		})
		if err != nil {
			return nil, err
		}
		if res.Deterministic {
			ref.worst = timebase.Ticks(res.WorstSlots) * p.SlotLen
		}

	default:
		id := tr.begin("schedule.build", parent)
		e, f, err := devices(p, alpha)
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		ref.e, ref.f = e, f
		var fwd, rev coverage.Result
		err = traceAnalysis(tr, "coverage.analyze", parent, func() (err error) {
			fwd, err = coverage.Analyze(e.B, f.C, coverage.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		if fwd.Deterministic {
			ref.worst = fwd.WorstLatency
		}
		if p.Kind == "asymmetric" {
			// The bound-comparable worst case of an asymmetric pair is the
			// slower of the two directions.
			err = traceAnalysis(tr, "coverage.analyze", parent, func() (err error) {
				rev, err = coverage.Analyze(f.B, e.C, coverage.Options{})
				return err
			})
			if err != nil {
				return nil, err
			}
			switch {
			case !fwd.Deterministic || !rev.Deterministic:
				ref.worst = 0
			case rev.WorstLatency > ref.worst:
				ref.worst = rev.WorstLatency
			}
		}
	}
	return ref, nil
}

// traceAnalysis runs one analysis call inside a span whose count is the
// bytes the call allocated.
func traceAnalysis(tr *tracer, name string, parent int, call func() error) error {
	id := tr.begin(name, parent)
	if id == 0 {
		return call()
	}
	m0 := readMem()
	err := call()
	tr.end(id, int64(readMem().sub(m0).allocBytes))
	return err
}

// devices builds the continuous-time pair with the constructors the
// protocol kind names.
func devices(p engine.ProtocolSpec, alpha float64) (e, f schedule.Device, err error) {
	switch p.Kind {
	case "optimal":
		pair, err := optimal.NewSymmetric(p.Omega, alpha, p.Eta)
		return pair.E, pair.F, err
	case "asymmetric":
		pair, err := optimal.NewAsymmetric(p.Omega, alpha, p.EtaE, p.EtaF)
		return pair.E, pair.F, err
	case "pi-optimal":
		pi, err := protocols.OptimalPI(p.Omega, alpha, p.Eta)
		if err != nil {
			return e, f, err
		}
		dev, err := pi.Device()
		return dev, dev, err
	case "disco", "uconnect", "searchlight", "diffcode":
		sl, err := slotted(p)
		if err != nil {
			return e, f, err
		}
		dev, err := sl.Device()
		return dev, dev, err
	}
	return e, f, fmt.Errorf("benchmark: no reference construction for kind %q", p.Kind)
}

// slotted builds the slotted protocol a (slot-)disco/uconnect/searchlight/
// diffcode kind names.
func slotted(p engine.ProtocolSpec) (*protocols.Slotted, error) {
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
	return nil, fmt.Errorf("benchmark: unknown slotted kind %q", p.Kind)
}

// mcConfig resolves a multi-channel spec: explicit Ta/Ts/Ds/Omega, else
// the named BLE operating point, with BLE's 3 channels and 150 µs
// inter-frame space by default.
func mcConfig(p engine.ProtocolSpec) (multichannel.Config, error) {
	ta, ts, ds, omega := p.Ta, p.Ts, p.Ds, p.Omega
	if p.Preset != "" {
		var pi protocols.PI
		switch p.Preset {
		case "fast":
			pi = protocols.BLEFastAdv
		case "balanced":
			pi = protocols.BLEBalanced
		case "lowpower":
			pi = protocols.BLELowPower
		default:
			return multichannel.Config{}, fmt.Errorf("benchmark: unknown BLE preset %q", p.Preset)
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
	return multichannel.Config{Ta: ta, Omega: omega, IFS: ifs, Ts: ts, Ds: ds, Channels: channels}, nil
}

// kernelSampleTime is the least time sampleKernel spends timing one
// scenario's trials, so cheap kernels are timed over many trials.
const kernelSampleTime = time.Millisecond

// sampleKernel replays trials of sc on its sim primitive, directly, inside
// one "sim.<kernel>" span counting the trials: at least n (and at least
// kernelSampleTime's worth), at most the trials the engine ran, after one
// untimed trial that grows the arena. agg supplies the horizon and the
// exact worst case the engine resolved for sc. It returns the heap objects
// the timed trials allocated.
func (r *reference) sampleKernel(sc engine.Scenario, agg engine.Aggregate, n int, scr *sim.Scratch, tr *tracer, parent int) (uint64, error) {
	cfg := sim.Config{
		Horizon:          agg.Horizon,
		Collisions:       sc.Channel.Collisions,
		HalfDuplex:       sc.Channel.HalfDuplex,
		TruncatedWindows: sc.Channel.TruncatedWindows,
		Jitter:           sc.Channel.Jitter,
	}
	var stay timebase.Ticks
	if ch := sc.Churn; ch != nil {
		stay = ch.Stay
		if stay == 0 {
			stay = timebase.Ticks(ch.StayWorstMultiple * float64(agg.ExactWorst))
		}
	}
	trial := func(t int) error {
		rng := scr.Rand(sc.Seed + int64(t))
		var err error
		switch r.kernel {
		case kernelPair:
			_, _, err = sim.PairTrialScratch(schedule.Device{B: r.e.B}, schedule.Device{C: r.f.C}, cfg, rng, scr)
		case kernelGroup:
			_, err = sim.GroupTrialScratch(r.e, sc.Population, cfg, rng, scr)
		case kernelChurn:
			_, _, err = sim.ChurnTrialScratch(r.e, sc.Population, stay, cfg, rng, scr)
		case kernelMCPair:
			_, err = sim.MultiChannelPairTrialScratch(r.mc, cfg.Horizon, rng, scr)
		case kernelMCGroup:
			if sc.Churn != nil {
				_, err = sim.MultiChannelChurnTrialScratch(r.mc, sc.Population, stay, cfg, rng, scr)
			} else {
				_, err = sim.MultiChannelGroupTrialScratch(r.mc, sc.Population, cfg, rng, scr)
			}
		case kernelSlotGrid:
			_, _, err = r.slotPair.TrialScratch(cfg.Horizon, rng, scr)
		}
		return err
	}
	if agg.Trials == 0 {
		return 0, nil
	}
	if err := trial(agg.Trials - 1); err != nil {
		return 0, err
	}
	m0 := readMem()
	id := tr.begin("sim."+r.kernel, parent)
	t0 := time.Now()
	done := 0
	var err error
	for ; done < agg.Trials && err == nil && (done < n || time.Since(t0) < kernelSampleTime); done++ {
		err = trial(done)
	}
	tr.end(id, int64(done))
	return readMem().sub(m0).allocObjects, err
}

// checkExactWorst compares each aggregate's exact worst case with a
// standalone analysis of the same schedules.
func checkExactWorst(sc engine.Scenario, agg engine.Aggregate, ref *reference) error {
	if agg.ExactWorst != ref.worst {
		return fmt.Errorf("%s: exact_worst %d, standalone analysis says %d", sc.Name, agg.ExactWorst, ref.worst)
	}
	return nil
}
