// Package nd is the public API of this repository: a library for analyzing,
// constructing and simulating deterministic neighbor-discovery (ND)
// protocols, reproducing "On Optimal Neighbor Discovery" (Kindt &
// Chakraborty, SIGCOMM 2019).
//
// The library is organized around four activities:
//
//   - Bounds. Params bundles the radio constants (packet airtime ω and
//     power ratio α) and exposes every fundamental bound of the paper as a
//     method: Symmetric (Theorem 5.5), Asymmetric (Theorem 5.7),
//     Unidirectional (Theorem 5.4), Constrained (Theorem 5.6),
//     MutualExclusive (Theorem C.1), the slotted-protocol limits of
//     Section 6 and the relaxed-assumption variants of Appendix A.
//
//   - Analysis. Analyze computes, exactly and in integer microseconds, the
//     worst-case and mean discovery latency of any periodic pair of beacon
//     and reception-window schedules, along with determinism, redundancy
//     and coverage diagnostics (the paper's Section 4 coverage maps).
//
//   - Construction. OptimalSymmetric, OptimalAsymmetric, OptimalConstrained
//     and MutualExclusive build schedules that meet the corresponding
//     bounds with equality; Disco, UConnect, Searchlight, Diffcode and the
//     PI (BLE-like) family provide the classic protocols for comparison.
//
//   - Simulation. RunScenario and RunSuite run declarative Monte-Carlo
//     scenarios (pairs, crowds, churn, multi-channel and slot-aligned
//     kinds) on a discrete-event multi-device kernel with an ALOHA
//     collision channel, half-duplex radios and optional beacon jitter.
//
// All time quantities are integer Ticks (1 tick = 1 µs). Closed-form bounds
// return float64 ticks, since they are generally fractional.
package nd

import (
	"repro/internal/collision"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/energy"
	"repro/internal/multichannel"
	"repro/internal/optimal"
	"repro/internal/protocols"
	"repro/internal/schedule"
	"repro/internal/slots"
	"repro/internal/timebase"
)

// Ticks is a time instant or duration in integer microseconds.
type Ticks = timebase.Ticks

// Common tick quantities.
const (
	Microsecond = timebase.Microsecond
	Millisecond = timebase.Millisecond
	Second      = timebase.Second
)

// Params bundles the radio constants all bounds depend on: packet airtime
// ω (Omega) and transmit/receive power ratio α (Alpha). See the method set
// of core.Params for the full list of bounds.
type Params = core.Params

// RadioOverheads models non-ideal radio switching times (Appendix A.2/A.5).
type RadioOverheads = core.RadioOverheads

// SlottedProtocol enumerates the Table 1 protocol rows for
// Params.Table1Latency.
type SlottedProtocol = core.SlottedProtocol

// The Table 1 protocols.
const (
	Diffcodes    = core.Diffcodes
	Disco        = core.Disco
	SearchlightS = core.SearchlightS
	UConnect     = core.UConnect
)

// Schedule building blocks (Definitions 3.1–3.3 of the paper).
type (
	// Beacon is one transmission: start time and airtime.
	Beacon = schedule.Beacon
	// Window is one reception window: start time and length.
	Window = schedule.Window
	// BeaconSeq is a finite beacon sequence repeated with period TB.
	BeaconSeq = schedule.BeaconSeq
	// WindowSeq is a finite reception-window sequence repeated with TC.
	WindowSeq = schedule.WindowSeq
	// Device couples the beacon and window sequences of one device.
	Device = schedule.Device
)

// NewUniformWindows builds a listener with one window of length d per
// period k·d — the shape Theorem 5.3 identifies as optimal.
func NewUniformWindows(d Ticks, k int) (WindowSeq, error) {
	return schedule.NewUniformWindows(d, k)
}

// NewEqualGapBeacons builds a sender with m equally spaced beacons of
// airtime omega, gap gap, first beacon at phase.
func NewEqualGapBeacons(m int, gap, omega, phase Ticks) (BeaconSeq, error) {
	return schedule.NewEqualGapBeacons(m, gap, omega, phase)
}

// NewBeaconsAt builds a beacon sequence from explicit times.
func NewBeaconsAt(times []Ticks, omega, period Ticks) (BeaconSeq, error) {
	return schedule.NewBeaconsAt(times, omega, period)
}

// NewWindowsAt builds a window sequence from explicit windows.
func NewWindowsAt(windows []Window, period Ticks) (WindowSeq, error) {
	return schedule.NewWindowsAt(windows, period)
}

// Analysis is the exact coverage-based evaluation of a schedule pair; see
// coverage.Result for field documentation.
type Analysis = coverage.Result

// AnalysisOptions selects the modeling assumptions of Appendix A.
type AnalysisOptions = coverage.Options

// Analyze computes the exact discovery properties of sender b against
// listener c: determinism, worst-case and mean latency, redundancy.
func Analyze(b BeaconSeq, c WindowSeq, opt AnalysisOptions) (Analysis, error) {
	return coverage.Analyze(b, c, opt)
}

// MinBeacons is Theorem 4.3: the minimum number of beacons needed for
// deterministic discovery against a listener with period tc and total
// window time sumD per period.
func MinBeacons(tc, sumD Ticks) int { return core.MinBeacons(tc, sumD) }

// CollisionProbability is Equation 12: the per-beacon collision probability
// among s senders with channel utilization beta.
func CollisionProbability(s int, beta float64) float64 {
	return core.CollisionProbability(s, beta)
}

// Optimal constructions (Section 5 / Appendix C of the paper).
type (
	// OptimalUnidirectional is a bound-tight one-way configuration.
	OptimalUnidirectional = optimal.Unidirectional
	// OptimalPair is a bound-tight bidirectional configuration.
	OptimalPair = optimal.Pair
	// Quadruple is the Appendix C mutual-exclusive configuration.
	Quadruple = optimal.Quadruple
)

// Unidirectional builds the optimal one-way pair with window length d,
// listener period k·d and beacon gap (m·k−1)·d (Theorems 5.1–5.4).
func Unidirectional(omega, d Ticks, k, m int) (OptimalUnidirectional, error) {
	return optimal.NewUnidirectional(omega, d, k, m)
}

// UnidirectionalForDutyCycles builds the optimal one-way pair closest to
// the requested transmit and receive duty-cycles.
func UnidirectionalForDutyCycles(omega Ticks, beta, gamma float64) (OptimalUnidirectional, error) {
	return optimal.ForDutyCycles(omega, beta, gamma)
}

// OptimalSymmetric builds a symmetric bidirectional protocol meeting
// Theorem 5.5's bound 4αω/η².
func OptimalSymmetric(omega Ticks, alpha, eta float64) (OptimalPair, error) {
	return optimal.NewSymmetric(omega, alpha, eta)
}

// OptimalAsymmetric builds an asymmetric bidirectional protocol meeting
// Theorem 5.7's bound 4αω/(ηE·ηF).
func OptimalAsymmetric(omega Ticks, alpha, etaE, etaF float64) (OptimalPair, error) {
	return optimal.NewAsymmetric(omega, alpha, etaE, etaF)
}

// OptimalConstrained builds a symmetric protocol whose channel utilization
// never exceeds betaMax, meeting Theorem 5.6's bound.
func OptimalConstrained(omega Ticks, alpha, eta, betaMax float64) (OptimalPair, error) {
	return optimal.NewConstrained(omega, alpha, eta, betaMax)
}

// MutualExclusive builds the Appendix C quadruple meeting Theorem C.1's
// bound 2αω/η² for one-way discovery, sized for the given duty-cycle.
func MutualExclusive(omega Ticks, alpha, eta float64) (Quadruple, error) {
	return optimal.ForEta(omega, alpha, eta)
}

// VerifyMutualExclusive exhaustively certifies a quadruple: every offset
// discovers in at least one direction; returns the worst-case latency.
func VerifyMutualExclusive(q Quadruple) (covered bool, worst Ticks) {
	return optimal.VerifyMutualExclusive(q)
}

// Classic protocols (Section 6 / Table 1 of the paper).
type (
	// Slotted is a slotted protocol schedule (Disco, U-Connect, …).
	Slotted = protocols.Slotted
	// PI is a periodic-interval (BLE-like) protocol configuration.
	PI = protocols.PI
)

// NewDisco builds Disco with primes p1 < p2.
func NewDisco(p1, p2 int, slotLen, omega Ticks) (*Slotted, error) {
	return protocols.NewDisco(p1, p2, slotLen, omega)
}

// NewUConnect builds U-Connect with odd prime p.
func NewUConnect(p int, slotLen, omega Ticks) (*Slotted, error) {
	return protocols.NewUConnect(p, slotLen, omega)
}

// NewSearchlight builds Searchlight (striped selects Searchlight-S).
func NewSearchlight(t int, striped bool, slotLen, omega Ticks) (*Slotted, error) {
	return protocols.NewSearchlight(t, striped, slotLen, omega)
}

// NewDiffcode builds the difference-set schedule of order q.
func NewDiffcode(q int, slotLen, omega Ticks) (*Slotted, error) {
	return protocols.NewDiffcode(q, slotLen, omega)
}

// BLE presets for the PI family.
var (
	BLEFastAdv  = protocols.BLEFastAdv
	BLEBalanced = protocols.BLEBalanced
	BLELowPower = protocols.BLELowPower
)

// OptimalPI expresses the optimal symmetric construction as BLE-like PI
// parameters (Ta, Ts, Ds): configure any periodic-interval stack with
// these values and it performs at the Theorem 5.5 bound.
func OptimalPI(omega Ticks, alpha, eta float64) (PI, error) {
	return protocols.OptimalPI(omega, alpha, eta)
}

// AssistResult evaluates the mutual-assistance extension of Appendix C.
type AssistResult = optimal.AssistResult

// EvaluateAssistance measures two-way discovery when the first (one-way)
// discovery is followed by an assisted reply in the sender's announced
// next reception window (the Griassdi mechanism the paper builds on).
func EvaluateAssistance(q Quadruple) AssistResult {
	return optimal.EvaluateAssistance(q)
}

// Stream interfaces for aperiodic schedules (Appendix A.1).
type (
	// BeaconStream yields beacons of a possibly aperiodic B∞.
	BeaconStream = schedule.BeaconStream
	// WindowStream yields windows of a possibly aperiodic C∞.
	WindowStream = schedule.WindowStream
	// StreamAnalysis is the bounded-horizon result for stream pairs.
	StreamAnalysis = coverage.StreamResult
	// DriftingWindows is a built-in non-repetitive window stream whose
	// spacing grows every period.
	DriftingWindows = coverage.DriftingWindows
)

// AnalyzeStreams measures discovery latency for arbitrary (aperiodic)
// streams over a bounded horizon — the Appendix A.1 evaluator.
func AnalyzeStreams(b BeaconStream, c WindowStream, horizon, step Ticks) (StreamAnalysis, error) {
	return coverage.AnalyzeStreams(b, c, horizon, step)
}

// CoverageMap is the explicit Section 4.1 coverage map (one Ωi per beacon),
// renderable as ASCII art in the style of the paper's Figure 3b.
type CoverageMap = coverage.Map

// BuildCoverageMap constructs the coverage map of the first numBeacons
// beacons of b against c.
func BuildCoverageMap(b BeaconSeq, c WindowSeq, numBeacons int, opt AnalysisOptions) (CoverageMap, error) {
	return coverage.BuildMap(b, c, numBeacons, opt)
}

// RedundancySolution is an Appendix B operating point.
type RedundancySolution = collision.Solution

// SolveRedundancy finds the redundancy degree and duty-cycle split that
// minimize the latency L′ achieved with failure rate at most pf among s
// contending devices (Appendix B, Equations 32/33).
func SolveRedundancy(p Params, eta, pf float64, s int) (RedundancySolution, error) {
	return collision.SolveFractional(p, eta, pf, s, 64)
}

// Slot-domain analysis: the slotted literature's own model, as an
// independent verification path next to the tick-domain engine.
type SlotSchedule = slots.Schedule

// SlotWorstCase computes the exact worst-case slot count for two
// slot-aligned schedules over all initial phases.
func SlotWorstCase(a, b SlotSchedule) (int, bool) { return slots.WorstCase(a, b) }

// Multi-channel BLE analysis.
type (
	// MultichannelConfig is a BLE-like 3-channel advertiser/scanner pair.
	MultichannelConfig = multichannel.Config
	// MultichannelResult is its exact analysis.
	MultichannelResult = multichannel.Result
)

// BLEMultichannel returns the standard 3-channel BLE configuration.
func BLEMultichannel(ta, omega, ts, ds Ticks) MultichannelConfig {
	return multichannel.BLE(ta, omega, ts, ds)
}

// AnalyzeMultichannel computes the exact worst-case discovery latency of a
// multi-channel configuration over all relative phases. It examines at
// most 2^22 PDUs per hyperperiod of advertiser and scanner, and returns an
// error for a configuration whose hyperperiod holds more.
func AnalyzeMultichannel(cfg MultichannelConfig) (MultichannelResult, error) {
	return multichannel.Analyze(cfg)
}

// Energy model: battery-life planning for real radios.
type (
	// RadioProfile carries a radio's per-state current draw.
	RadioProfile = energy.RadioProfile
	// PlanPoint is one row of a latency/lifetime plan.
	PlanPoint = energy.PlanPoint
)

// Radio profiles and battery capacities.
var (
	NRF52          = energy.NRF52
	CC2640         = energy.CC2640
	CR2032Capacity = energy.CR2032Capacity
)

// LifetimePlan maps worst-case latency targets (seconds) to the minimum
// duty-cycle the fundamental bound admits and the resulting battery life.
func LifetimePlan(r RadioProfile, omega Ticks, capacityMAh float64, latencies []float64) ([]PlanPoint, error) {
	return energy.Plan(r, omega, capacityMAh, latencies)
}
