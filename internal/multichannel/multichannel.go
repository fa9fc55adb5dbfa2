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
// This package computes the exact multi-channel discovery latency with
// package coverage's one sweep: the scanner's channel schedule repeats
// with period Channels·Ts (the analysis circle), the advertiser is a
// beacon sequence whose PDU c goes out on channel c, and each PDU's images
// fall only in its own channel's scan window (Schedules). Starting PDU j's
// branch, range entry just before PDU j, is coverage's start j, so one
// sorted sweep of PDU 0's images over one hyperperiod gives every branch
// (coverage.NewChannelTable), and Analyze folds that table with exact
// integer sums. Like every coverage analysis it examines at most 2^22 PDUs
// per hyperperiod, and refuses a configuration past that cap. The engine's
// "multichannel" kinds pair this analysis (including the per-starting-PDU
// branch stats) with the multi-channel Monte-Carlo trials of package sim,
// which run the same layout. Karowski & Miller (arXiv 1506.05255) model
// the same ensemble.
package multichannel

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/schedule"
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

// Analyze computes the exact worst-case discovery latency of the
// configuration, sweeping all relative phases between advertiser and
// scanner.
func Analyze(cfg Config) (Result, error) {
	res, _, err := AnalyzeWithTableSize(cfg)
	return res, err
}

// AnalyzeWithTableSize is Analyze that also returns the entry count of the
// configuration's latency table, so the count comes free. The table is
// coverage's table of the advertiser against the scanner's channels
// (Schedules), whose start j is starting PDU j: an entry's delay runs from
// PDU j's start to the start of the first PDU received, and its index is
// that PDU's channel. Like every coverage table it spans one hyperperiod of
// advertiser and scanner, and it is refused for a configuration whose
// hyperperiod holds more PDUs than coverage's beacon cap.
func AnalyzeWithTableSize(cfg Config) (Result, int, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, 0, err
	}
	adv, scan := cfg.Schedules()
	t, err := coverage.NewChannelTable(adv, scan)
	if err != nil {
		return Result{}, 0, err
	}
	circle := scan[0].Period // the scanner's channel cycle
	n := cfg.Channels

	// Per branch j, over the PDU-0 offsets where it ever discovers: their
	// measure, the largest latency, and the exact Σ latency · length, so
	// the fold does not depend on the segments' order.
	covSum := make([]timebase.Ticks, n)
	lMax := make([]timebase.Ticks, n)
	lSum := make([]timebase.Sum128, n)
	for s, lo := range t.Bounds {
		hi := circle
		if s+1 < len(t.Bounds) {
			hi = t.Bounds[s+1]
		}
		for j, l := range t.Delay[s*n : (s+1)*n] {
			if l < 0 {
				continue
			}
			covSum[j] += hi - lo
			lMax[j] = max(lMax[j], l)
			lSum[j].AddMul(l, hi-lo)
		}
	}

	var (
		worst     timebase.Ticks
		meanNum   float64
		coveredOK = true
		coveredW  float64 // Σ_j gap_j · covered_j, in ticks²
		branches  = make([]Branch, 0, n)
	)
	// Starting PDU j: range entry can fall anywhere in the gap before it.
	// Gaps within an event are IFS-scale; the gap before PDU 0 spans back
	// to the previous event's last PDU.
	gaps := adv.Gaps()
	for j := 0; j < n; j++ {
		cov := covSum[j] == circle
		if !cov {
			coveredOK = false
		}
		// Range entry lands in the gap before PDU j with probability
		// gapBefore/Ta, and within that branch a fraction covSum/circle
		// of offsets ever discovers — so the overall covered fraction is
		// the gap-weighted mean over all starting PDUs, not branch 0's
		// coverage alone.
		gapBefore := gaps[(j-1+n)%n]
		coveredW += float64(gapBefore) * float64(covSum[j])
		br := Branch{
			PDU:       j,
			EntryProb: float64(gapBefore) / float64(cfg.Ta),
			Covered:   float64(covSum[j]) / float64(circle),
		}
		sum := lSum[j].Float64()
		if covSum[j] > 0 {
			// Branch latency over discovering offsets: the expected
			// remaining gap (gap/2 for uniform entry) plus the mean label
			// over the covered offsets; the branch worst is the full gap
			// plus the largest label.
			br.Worst = gapBefore + lMax[j]
			br.Mean = sum/float64(covSum[j]) + float64(gapBefore)/2
		}
		branches = append(branches, br)
		if cov {
			worst = max(worst, gapBefore+lMax[j])
			meanNum += float64(gapBefore) * (sum/float64(circle) + float64(gapBefore)/2)
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
	return res, len(t.Delay), nil
}

// Schedules lays the pair out once, for the exact analysis and the
// simulation kernel alike: the advertiser's event as one beacon sequence
// of period Ta, PDU c on channel c at c·(Omega + IFS), and the scanner's
// listening on each channel over the channel cycle Channels·Ts, channel
// c's window the last Ds of scan interval c.
func (c Config) Schedules() (adv schedule.BeaconSeq, scan []schedule.WindowSeq) {
	adv = schedule.BeaconSeq{Beacons: make([]schedule.Beacon, c.Channels), Period: c.Ta}
	scan = make([]schedule.WindowSeq, c.Channels)
	for ch := range scan {
		adv.Beacons[ch] = schedule.Beacon{Time: timebase.Ticks(ch) * (c.Omega + c.IFS), Len: c.Omega}
		scan[ch] = schedule.WindowSeq{
			Windows: []schedule.Window{{Start: timebase.Ticks(ch)*c.Ts + c.Ts - c.Ds, Len: c.Ds}},
			Period:  timebase.Ticks(c.Channels) * c.Ts,
		}
	}
	return adv, scan
}

// BLE returns the standard 3-channel configuration for the given
// advertising and scanning parameters, with the 150 µs BLE inter-frame
// space.
func BLE(ta, omega, ts, ds timebase.Ticks) Config {
	return Config{Ta: ta, Omega: omega, IFS: 150, Ts: ts, Ds: ds, Channels: 3}
}
