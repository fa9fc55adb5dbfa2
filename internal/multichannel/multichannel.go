// Package multichannel models BLE-style multi-channel neighbor discovery.
//
// The paper (like most of the ND literature) assumes a single channel.
// Real BLE advertises each event on three advertising channels (37, 38,
// 39) back to back, while the scanner listens to one channel per scan
// interval, cycling through the three. A beacon is received only if its
// channel matches the scanner's current channel and the timing overlaps —
// so the effective discovery problem is the union of three phase-locked
// single-channel problems.
//
// This package computes the exact worst-case multi-channel discovery
// latency with the same interval-sweep technique as package coverage: the
// scanner's channel schedule repeats with period channels·Ts (the
// analysis circle), every advertising event contributes one offset
// interval per (PDU, matching window) pair, and the labeled sweep yields
// the per-offset first-success delay. The engine's "multichannel" kinds
// pair this analysis (including the per-starting-PDU branch stats) with
// the multi-channel Monte-Carlo trials of package sim.
package multichannel

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/timebase"
)

// Config describes a BLE-like advertiser/scanner pair.
type Config struct {
	// Advertiser: every Ta, one PDU of airtime Omega per channel, spaced
	// IFS apart (start to start: Omega + IFS).
	Ta    timebase.Ticks
	Omega timebase.Ticks
	IFS   timebase.Ticks

	// Scanner: listens Ds at the end of every scan interval Ts, on one
	// channel per interval, cycling through Channels channels.
	Ts timebase.Ticks
	Ds timebase.Ticks

	// Channels is the number of advertising channels (BLE: 3).
	Channels int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels < 1 {
		return fmt.Errorf("multichannel: %d channels invalid", c.Channels)
	}
	if c.Omega <= 0 {
		return fmt.Errorf("multichannel: airtime %d invalid", c.Omega)
	}
	if c.IFS < 0 {
		return fmt.Errorf("multichannel: negative inter-frame space")
	}
	eventLen := timebase.Ticks(c.Channels)*(c.Omega+c.IFS) - c.IFS
	if c.Ta <= eventLen {
		return fmt.Errorf("multichannel: advertising interval %d must exceed the %d-channel event length %d", c.Ta, c.Channels, eventLen)
	}
	if c.Ds <= 0 || c.Ds > c.Ts {
		return fmt.Errorf("multichannel: scan window %d / interval %d invalid", c.Ds, c.Ts)
	}
	return nil
}

// Result is the exact multi-channel analysis outcome.
type Result struct {
	// Deterministic reports whether every initial offset leads to
	// discovery.
	Deterministic bool

	// CoveredFraction is the fraction of offsets that ever discover.
	CoveredFraction float64

	// WorstLatency is the supremum discovery latency from range entry
	// (valid only if Deterministic).
	WorstLatency timebase.Ticks

	// MeanLatency is the expectation over uniform entry and offset.
	MeanLatency float64

	// Branches holds the per-starting-PDU breakdown, one entry per
	// channel, in PDU order.
	Branches []Branch
}

// Branch is the exact analysis of one starting-PDU branch: the case where
// range entry falls in the transmission gap preceding PDU j (whose channel
// equals its index within the advertising event).
type Branch struct {
	// PDU is the starting PDU index, which is also its channel.
	PDU int

	// EntryProb is the probability that a uniform range entry lands in
	// this branch: the preceding gap over the advertising interval.
	EntryProb float64

	// Covered is the fraction of scanner offsets that ever discover when
	// entry falls in this branch.
	Covered float64

	// Worst is the supremum latency from range entry within the branch,
	// over the offsets that discover. Zero when Covered is zero.
	Worst timebase.Ticks

	// Mean is the expected latency from range entry within the branch,
	// over uniform entry in the gap and the offsets that discover. Zero
	// when Covered is zero.
	Mean float64
}

// pdu is one advertising PDU within the repeating event.
type pdu struct {
	channel int
	offset  timebase.Ticks // start relative to the event start
}

// Analyze computes the exact worst-case discovery latency of the
// configuration, sweeping all relative phases between advertiser and
// scanner.
func Analyze(cfg Config) (Result, error) {
	res, _, err := AnalyzeWithTableSize(cfg)
	return res, err
}

// AnalyzeWithTableSize is Analyze that also returns the entry count of the
// configuration's latency table: Analyze folds the table (NewTable), so the
// count comes free.
func AnalyzeWithTableSize(cfg Config) (Result, int, error) {
	t, err := NewTable(cfg)
	if err != nil {
		return Result{}, 0, err
	}
	circle := timebase.Ticks(cfg.Channels) * cfg.Ts // scanner channel cycle
	pdus := eventPDUs(cfg)

	var (
		worst     timebase.Ticks
		meanNum   float64
		coveredOK = true
		coveredW  float64 // Σ_j gap_j · covered_j, in ticks²
		entries   int
		branches  = make([]Branch, 0, cfg.Channels)
	)
	// Starting PDU j: range entry can fall anywhere in the gap before it.
	// Gaps within an event are IFS-scale; the gap before PDU 0 spans back
	// to the previous event's last PDU.
	for j, segs := range t {
		entries += len(segs)
		var lMax timebase.Ticks
		var lSum float64
		var covSum timebase.Ticks
		for _, seg := range segs {
			if seg.Count == 0 {
				continue
			}
			covSum += seg.Iv.Len()
			if l := timebase.Ticks(seg.Label); l > lMax {
				lMax = l
			}
			lSum += float64(seg.Label) * float64(seg.Iv.Len())
		}
		cov := covSum == circle
		if !cov {
			coveredOK = false
		}
		// Range entry lands in the gap before PDU j with probability
		// gapBefore/Ta, and within that branch a fraction covSum/circle
		// of offsets ever discovers — so the overall covered fraction is
		// the gap-weighted mean over all starting PDUs, not branch 0's
		// coverage alone (branches differ whenever the channel/window
		// geometry does).
		gapBefore := gapBeforePDU(cfg, pdus, j)
		coveredW += float64(gapBefore) * float64(covSum)
		br := Branch{
			PDU:       j,
			EntryProb: float64(gapBefore) / float64(cfg.Ta),
			Covered:   float64(covSum) / float64(circle),
		}
		if covSum > 0 {
			// Branch latency over discovering offsets: the expected
			// remaining gap (gap/2 for uniform entry) plus the mean label
			// over the covered offsets; the branch worst is the full gap
			// plus the largest label.
			br.Worst = gapBefore + lMax
			br.Mean = lSum/float64(covSum) + float64(gapBefore)/2
		}
		branches = append(branches, br)
		if cov {
			if l := gapBefore + lMax; l > worst {
				worst = l
			}
			meanNum += float64(gapBefore) * (lSum/float64(circle) + float64(gapBefore)/2)
		}
	}
	res := Result{
		Deterministic:   coveredOK,
		CoveredFraction: coveredW / (float64(cfg.Ta) * float64(circle)),
		Branches:        branches,
	}
	if coveredOK {
		res.WorstLatency = worst
		res.MeanLatency = meanNum / float64(cfg.Ta)
	}
	return res, entries, nil
}

// Table is a configuration's latency table: for every starting PDU j, the
// elementary segments of branch j over the scanner's channel cycle
// [0, Channels·Ts). With PDU j starting at offset φ of the cycle, the
// segment holding φ labels the delay from PDU j's start to the start of
// the first PDU received; a segment of Count 0 never discovers.
type Table [][]interval.Segment

// NewTable sweeps every branch j, range entry just before PDU j, over the
// scanner's channel cycle: every PDU from PDU j on, over one hyperperiod
// of advertiser and scanner, contributes one offset interval labeled with
// its delay after PDU j. The images repeat after the hyperperiod, so an
// offset no PDU covers by then never discovers.
func NewTable(cfg Config) (Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	circle := timebase.Ticks(cfg.Channels) * cfg.Ts
	// Scanner window for channel c sits at the end of interval c within
	// the cycle: [c·Ts + Ts − Ds, (c+1)·Ts).
	winStart := func(ch int) timebase.Ticks {
		return timebase.Ticks(ch)*cfg.Ts + cfg.Ts - cfg.Ds
	}
	// Beacon occurrences repeat with period Ta; their images on the
	// circle repeat after the hyperperiod.
	hyper := timebase.LCM(cfg.Ta, circle)
	events := int(hyper / cfg.Ta)
	if events < 1 {
		events = 1
	}
	pdus := eventPDUs(cfg)
	t := make(Table, cfg.Channels)
	for j := range t {
		var items []interval.Labeled
		start := pdus[j].offset
		for e := 0; e < events+1; e++ {
			for _, p := range pdus {
				at := timebase.Ticks(e)*cfg.Ta + p.offset
				if at < start {
					continue
				}
				delay := at - start
				items = append(items, interval.Labeled{
					Lo:     winStart(p.channel) - delay,
					Length: cfg.Ds,
					Label:  int64(delay),
				})
			}
		}
		t[j], _ = interval.SweepMin(circle, items)
	}
	return t, nil
}

// eventPDUs lays out the PDUs of one advertising event.
func eventPDUs(cfg Config) []pdu {
	pdus := make([]pdu, cfg.Channels)
	for i := range pdus {
		pdus[i] = pdu{channel: i, offset: timebase.Ticks(i) * (cfg.Omega + cfg.IFS)}
	}
	return pdus
}

// gapBeforePDU returns the transmission gap preceding PDU j (start to
// start), across the event boundary for j == 0.
func gapBeforePDU(cfg Config, pdus []pdu, j int) timebase.Ticks {
	if j > 0 {
		return pdus[j].offset - pdus[j-1].offset
	}
	return cfg.Ta - pdus[len(pdus)-1].offset
}

// BLE returns the standard 3-channel configuration for the given
// advertising and scanning parameters, with the 150 µs BLE inter-frame
// space.
func BLE(ta, omega, ts, ds timebase.Ticks) Config {
	return Config{Ta: ta, Omega: omega, IFS: 150, Ts: ts, Ds: ds, Channels: 3}
}
