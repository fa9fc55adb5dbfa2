package engine

import (
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// CDFPoint is one point of the empirical discovery-latency CDF: Fraction
// of all judged pairs (including misses) discovered within Latency.
type CDFPoint struct {
	Latency  timebase.Ticks `json:"latency"`
	Fraction float64        `json:"fraction"`
}

// Aggregate is the full result of one scenario: the effective spec, the
// exact schedule-level facts (analysis and bound), and the Monte-Carlo
// measurements pooled over all trials. It is the JSON unit ndscen emits.
type Aggregate struct {
	Scenario Scenario `json:"scenario"`

	// Schedule-level exact facts, independent of the trials.
	Deterministic   bool           `json:"deterministic"`
	CoveredFraction float64        `json:"covered_fraction"`
	ExactWorst      timebase.Ticks `json:"exact_worst,omitempty"` // 0 when not deterministic
	ExactMean       float64        `json:"exact_mean,omitempty"`
	Bound           float64        `json:"bound,omitempty"`       // fundamental bound, ticks
	BoundRatio      float64        `json:"bound_ratio,omitempty"` // ExactWorst / Bound
	EtaE            float64        `json:"eta_e"`
	EtaF            float64        `json:"eta_f"`
	BetaE           float64        `json:"beta_e"`  // E's transmit channel utilization
	GammaF          float64        `json:"gamma_f"` // F's receive duty-cycle
	Horizon         timebase.Ticks `json:"horizon"`

	// Monte-Carlo aggregates over all trials. CollisionRate is the pooled
	// ratio Collided/Transmissions, so every packet weighs the same no
	// matter how trials split the traffic.
	Trials        int        `json:"trials"`
	Pairs         int        `json:"pairs"` // judged (receiver, sender) pairs incl. misses
	Latency       sim.Stats  `json:"latency"`
	FailureRate   float64    `json:"failure_rate"`
	CDF           []CDFPoint `json:"cdf,omitempty"`
	CollisionRate float64    `json:"collision_rate"`
	Transmissions int        `json:"transmissions"`
	Collided      int        `json:"collided"`

	// ExactMode marks aggregates answered from the schedule analysis alone
	// (Scenario.Exact / the -exact flag): no trials ran, so the Monte-Carlo
	// block is empty except for Latency.Max/Mean, which restate the exact
	// worst/mean latency so downstream table and sweep consumers keep
	// reading the same columns.
	ExactMode bool `json:"exact_mode,omitempty"`

	// Streamed marks aggregates of quantized points (more than
	// streamThreshold expected samples): their quantiles and CDF latencies
	// are bin upper edges, at most QuantileResolution ticks above the
	// exact order statistic (see accum.go for the full accuracy contract).
	// Everything else is exact.
	Streamed           bool           `json:"streamed,omitempty"`
	QuantileResolution timebase.Ticks `json:"quantile_resolution,omitempty"`

	// ContactBins, for churn scenarios with a deterministic schedule,
	// bins the per-contact discovery ratio by contact duration relative
	// to the exact worst case L — the deployment-planning view: contacts
	// of at least L are guaranteed, shorter ones are best-effort.
	ContactBins []ContactBin `json:"contact_bins,omitempty"`

	// PerChannel, for multi-channel kinds, is the per-advertising-channel
	// view: Monte-Carlo discovery counts by the channel the successful
	// PDU used, joined with the exact branch-entry analysis of the
	// starting-PDU branch on the same channel.
	PerChannel []ChannelStat `json:"per_channel,omitempty"`

	// Runtime is the point's execution-metrics record (wall time from
	// first to last trial, implied trials/sec). It is OUTSIDE the
	// determinism contract: values differ run to run and worker count to
	// worker count, so the golden harness and the worker-invariance tests
	// strip it (StripRuntime) before comparing.
	Runtime *obs.PointMetrics `json:"runtime,omitempty"`
}

// ChannelStat is one advertising channel's row: integer Monte-Carlo
// discovery and traffic counts (deterministic across worker counts) plus
// the exact per-branch facts of multichannel.Analyze.
type ChannelStat struct {
	Channel     int     `json:"channel"`
	Discoveries int     `json:"discoveries"`
	Fraction    float64 `json:"fraction"` // of all discovered trials

	// Per-channel traffic accounting of the multi-node kinds: packets on
	// air on this channel, packets destroyed by same-channel overlap, and
	// their pooled ratio. All zero for the pair kind, whose model is a
	// quiet channel.
	Transmissions int     `json:"transmissions,omitempty"`
	Collided      int     `json:"collided,omitempty"`
	CollisionRate float64 `json:"collision_rate,omitempty"`

	// EntryProb is the probability that range entry falls in the
	// transmission gap before this channel's PDU; BranchCovered the
	// fraction of scanner offsets that ever discover in that branch;
	// BranchWorst/BranchMean that branch's exact worst and mean latency
	// over its discovering offsets.
	EntryProb     float64        `json:"entry_prob"`
	BranchCovered float64        `json:"branch_covered"`
	BranchWorst   timebase.Ticks `json:"branch_worst,omitempty"`
	BranchMean    float64        `json:"branch_mean,omitempty"`
}

// channelStats joins the Monte-Carlo per-channel discovery counts with the
// per-channel traffic counters and the exact branch analysis. counts has
// one slot per channel; tx and coll may be nil (the pair kind's quiet
// channel carries no traffic accounting).
func channelStats(b *built, counts, tx, coll []int64) []ChannelStat {
	if len(counts) == 0 {
		return nil
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	stats := make([]ChannelStat, len(counts))
	for c := range stats {
		stats[c] = ChannelStat{Channel: c, Discoveries: int(counts[c])}
		if total > 0 {
			stats[c].Fraction = float64(counts[c]) / float64(total)
		}
		if c < len(tx) {
			stats[c].Transmissions = int(tx[c])
			stats[c].Collided = int(coll[c])
			if tx[c] > 0 {
				stats[c].CollisionRate = float64(coll[c]) / float64(tx[c])
			}
		}
		if c < len(b.MCBranches) {
			br := b.MCBranches[c]
			stats[c].EntryProb = br.EntryProb
			stats[c].BranchCovered = br.Covered
			stats[c].BranchWorst = br.Worst
			stats[c].BranchMean = br.Mean
		}
	}
	return stats
}

// ContactBin is one row of the churn discovery-ratio histogram: contacts
// whose joint presence lasted [Lo·L, Hi·L), with Hi = 0 meaning unbounded.
type ContactBin struct {
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi,omitempty"`
	Contacts   int     `json:"contacts"`
	Discovered int     `json:"discovered"`
}

// Ratio is the discovered fraction of the bin's contacts.
func (b ContactBin) Ratio() float64 {
	if b.Contacts == 0 {
		return 0
	}
	return float64(b.Discovered) / float64(b.Contacts)
}

// contactBinEdges are the bin boundaries in units of the worst case L.
var contactBinEdges = []float64{0, 0.25, 0.5, 0.75, 1.0, 1.5}

// cdfQuantiles is the fixed grid the empirical CDF is sampled on.
var cdfQuantiles = []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.00}

// baseAggregate assembles the trial-independent portion of an Aggregate —
// the effective spec and the exact schedule-level facts — shared by the
// accumulator's finalizer and the exact-mode synthesis.
func baseAggregate(sc Scenario, b *built, horizon timebase.Ticks) Aggregate {
	agg := Aggregate{
		Scenario:        sc,
		Deterministic:   b.Analysis.Deterministic,
		CoveredFraction: b.Analysis.CoveredFraction,
		EtaE:            b.EtaE,
		EtaF:            b.EtaF,
		BetaE:           b.BetaE,
		GammaF:          b.GammaF,
		Horizon:         horizon,
		Trials:          sc.Trials,
	}
	if b.Analysis.Deterministic {
		// For asymmetric pairs this is the two-way worst case — the
		// quantity the Theorem 5.7 bound constrains.
		agg.ExactWorst = b.WorstTwoWay
		agg.ExactMean = b.Analysis.MeanLatency
	}
	if b.Bound > 0 {
		agg.Bound = b.Bound
		if agg.ExactWorst > 0 {
			agg.BoundRatio = float64(agg.ExactWorst) / b.Bound
		}
	}
	return agg
}

// aggregateAnalysis answers an exact-mode point from the schedule analysis
// alone: the coverage analysis already integrates the trial ensemble over
// every phase offset exactly, so the worst and mean latency are the limits
// the Monte-Carlo estimators converge to. Eligibility (exactEligible) has
// guaranteed a deterministic quiet-channel pair, so the failure mass is
// zero and no sample pool, CDF or traffic counters exist. Multi-channel
// points keep their per-branch exact rows with zero Monte-Carlo counts.
func aggregateAnalysis(sc Scenario, b *built, horizon timebase.Ticks) Aggregate {
	agg := baseAggregate(sc, b, horizon)
	agg.ExactMode = true
	agg.Latency = sim.Stats{
		Max:  b.Analysis.WorstLatency,
		Mean: b.Analysis.MeanLatency,
	}
	if b.Mode == modeMultiChannel {
		agg.PerChannel = channelStats(b, make([]int64, b.MC.Channels), nil, nil)
	}
	return agg
}

// contactBinsFromCounters materializes the churn discovery-ratio histogram
// from the pooled per-bin counters (integer counts: order-independent, so
// trivially deterministic across worker counts and shard splits).
func contactBinsFromCounters(contactN, contactD []int64) []ContactBin {
	bins := make([]ContactBin, len(contactBinEdges))
	for i, lo := range contactBinEdges {
		bins[i].Lo = lo
		if i+1 < len(contactBinEdges) {
			bins[i].Hi = contactBinEdges[i+1]
		}
		if i < len(contactN) {
			bins[i].Contacts = int(contactN[i])
		}
		if i < len(contactD) {
			bins[i].Discovered = int(contactD[i])
		}
	}
	return bins
}

// contactBinIndex returns the contactBinEdges bin for a contact whose
// overlap is x worst-case lengths.
func contactBinIndex(x float64) int {
	idx := 0
	for j, lo := range contactBinEdges {
		if x >= lo {
			idx = j
		}
	}
	return idx
}
