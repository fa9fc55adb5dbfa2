package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/timebase"
)

// A SweepSpec is a first-class parameter sweep: a base scenario plus named
// axes, each ranging a protocol/population/channel field over a value
// list. Expansion takes the cartesian product of the axes (first axis
// slowest, last fastest) and stamps every grid point with a canonical
// name, so a sweep is just a generated scenario matrix — it runs through
// the same scheduler, keeps the same per-scenario determinism contract,
// and serializes to JSON like everything else in this package.
type SweepSpec struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Base        Scenario    `json:"base"`
	Axes        []SweepAxis `json:"axes"`
}

// SweepAxis ranges one scenario field over a list of values. Field is a
// dotted path into the Scenario JSON shape (e.g. "protocol.eta",
// "population", "channel.jitter"); see sweepFields for the supported set.
// Values are numeric for every field; integer-valued fields reject
// fractional entries.
type SweepAxis struct {
	Field  string    `json:"field"`
	Values []float64 `json:"values"`
}

// maxSweepPoints caps grid expansion: a typo in a value list should fail
// loudly, not enqueue a million scenarios.
const maxSweepPoints = 100000

// sweepField is one settable scenario field: whether it is integer-valued
// and how to apply a value to a scenario.
type sweepField struct {
	integer bool
	set     func(*Scenario, float64)
}

// sweepFields maps axis field paths to setters. Paths follow the Scenario
// JSON field names.
var sweepFields = map[string]sweepField{
	"protocol.eta":            {set: func(s *Scenario, v float64) { s.Protocol.Eta = v }},
	"protocol.eta_e":          {set: func(s *Scenario, v float64) { s.Protocol.EtaE = v }},
	"protocol.eta_f":          {set: func(s *Scenario, v float64) { s.Protocol.EtaF = v }},
	"protocol.alpha":          {set: func(s *Scenario, v float64) { s.Protocol.Alpha = v }},
	"protocol.beta_max":       {set: func(s *Scenario, v float64) { s.Protocol.BetaMax = v }},
	"protocol.pf":             {set: func(s *Scenario, v float64) { s.Protocol.PF = v }},
	"protocol.omega":          {integer: true, set: func(s *Scenario, v float64) { s.Protocol.Omega = timebase.Ticks(v) }},
	"protocol.channels":       {integer: true, set: func(s *Scenario, v float64) { s.Protocol.Channels = int(v) }},
	"protocol.ifs":            {integer: true, set: func(s *Scenario, v float64) { s.Protocol.IFS = timebase.Ticks(v) }},
	"protocol.ta":             {integer: true, set: func(s *Scenario, v float64) { s.Protocol.Ta = timebase.Ticks(v) }},
	"protocol.ts":             {integer: true, set: func(s *Scenario, v float64) { s.Protocol.Ts = timebase.Ticks(v) }},
	"protocol.ds":             {integer: true, set: func(s *Scenario, v float64) { s.Protocol.Ds = timebase.Ticks(v) }},
	"protocol.slot_len":       {integer: true, set: func(s *Scenario, v float64) { s.Protocol.SlotLen = timebase.Ticks(v) }},
	"protocol.p1":             {integer: true, set: func(s *Scenario, v float64) { s.Protocol.P1 = int(v) }},
	"protocol.p2":             {integer: true, set: func(s *Scenario, v float64) { s.Protocol.P2 = int(v) }},
	"protocol.p":              {integer: true, set: func(s *Scenario, v float64) { s.Protocol.P = int(v) }},
	"protocol.q":              {integer: true, set: func(s *Scenario, v float64) { s.Protocol.Q = int(v) }},
	"protocol.t":              {integer: true, set: func(s *Scenario, v float64) { s.Protocol.T = int(v) }},
	"population":              {integer: true, set: func(s *Scenario, v float64) { s.Population = int(v) }},
	"trials":                  {integer: true, set: func(s *Scenario, v float64) { s.Trials = int(v) }},
	"seed":                    {integer: true, set: func(s *Scenario, v float64) { s.Seed = int64(v) }},
	"channel.jitter":          {integer: true, set: func(s *Scenario, v float64) { s.Channel.Jitter = timebase.Ticks(v) }},
	"horizon.ticks":           {integer: true, set: func(s *Scenario, v float64) { s.Horizon.Ticks = timebase.Ticks(v) }},
	"horizon.worst_multiple":  {set: func(s *Scenario, v float64) { s.Horizon.WorstMultiple = v }},
	"horizon.period_multiple": {set: func(s *Scenario, v float64) { s.Horizon.PeriodMultiple = v }},
	"churn.stay_worst_multiple": {set: func(s *Scenario, v float64) {
		if s.Churn == nil {
			s.Churn = &ChurnSpec{}
		}
		s.Churn.StayWorstMultiple = v
	}},
}

// SweepFieldNames lists the sweepable field paths, sorted.
func SweepFieldNames() []string {
	names := make([]string, 0, len(sweepFields))
	for n := range sweepFields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks the sweep's shape: a name, at least one axis, known and
// distinct fields, non-empty integral-where-required value lists, and a
// bounded grid.
func (sp SweepSpec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("engine: sweep needs a name")
	}
	if len(sp.Axes) == 0 {
		return fmt.Errorf("engine: sweep %q needs at least one axis", sp.Name)
	}
	seen := make(map[string]bool, len(sp.Axes))
	points := 1
	for _, ax := range sp.Axes {
		def, ok := sweepFields[ax.Field]
		if !ok {
			return fmt.Errorf("engine: sweep %q: unknown field %q (have %v)", sp.Name, ax.Field, SweepFieldNames())
		}
		if seen[ax.Field] {
			return fmt.Errorf("engine: sweep %q: duplicate axis %q", sp.Name, ax.Field)
		}
		seen[ax.Field] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("engine: sweep %q: axis %q has no values", sp.Name, ax.Field)
		}
		vseen := make(map[float64]bool, len(ax.Values))
		for _, v := range ax.Values {
			if vseen[v] {
				return fmt.Errorf("engine: sweep %q: axis %q repeats value %v", sp.Name, ax.Field, v)
			}
			vseen[v] = true
		}
		if def.integer {
			for _, v := range ax.Values {
				if v != float64(int64(v)) {
					return fmt.Errorf("engine: sweep %q: axis %q needs integer values, got %v", sp.Name, ax.Field, v)
				}
			}
		}
		if points > maxSweepPoints/len(ax.Values) {
			return fmt.Errorf("engine: sweep %q expands past %d points", sp.Name, maxSweepPoints)
		}
		points *= len(ax.Values)
	}
	return nil
}

// Points returns the grid size.
func (sp SweepSpec) Points() int {
	n := 1
	for _, ax := range sp.Axes {
		n *= len(ax.Values)
	}
	return n
}

// grid enumerates the sweep's points: one coordinate vector per point, in
// row-major axis order.
func (sp SweepSpec) grid() [][]float64 {
	axes := make([][]float64, len(sp.Axes))
	for a, ax := range sp.Axes {
		axes[a] = ax.Values
	}
	return cartesian(axes)
}

// cartesian expands per-axis value lists row-major (first axis slowest,
// last fastest): the one enumeration order of sweep grids and adaptive
// rounds.
func cartesian(axes [][]float64) [][]float64 {
	total := 1
	for _, vs := range axes {
		total *= len(vs)
	}
	out := make([][]float64, 0, total)
	for i := 0; i < total; i++ {
		vals := make([]float64, len(axes))
		rem := i
		for a := len(axes) - 1; a >= 0; a-- {
			n := len(axes[a])
			vals[a] = axes[a][rem%n]
			rem /= n
		}
		out = append(out, vals)
	}
	return out
}

// axisLabel is the short display name of an axis: the last path segment.
func axisLabel(field string) string {
	if i := strings.LastIndexByte(field, '.'); i >= 0 {
		return field[i+1:]
	}
	return field
}

func formatAxisValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// point materializes the grid point at coordinates vals as a validated
// scenario: the base with every axis field set (its churn spec deep-copied,
// so points never share state), the sweep's description, and the canonical
// name "<prefix>/<axis>=<value>,<axis>=<value>". kind ("sweep" or
// "adaptive") names the search in a validation error.
func (sp SweepSpec) point(kind, prefix string, vals []float64) (Scenario, error) {
	sc := sp.Base
	if sp.Base.Churn != nil {
		ch := *sp.Base.Churn
		sc.Churn = &ch
	}
	parts := make([]string, len(sp.Axes))
	for a, ax := range sp.Axes {
		sweepFields[ax.Field].set(&sc, vals[a])
		parts[a] = axisLabel(ax.Field) + "=" + formatAxisValue(vals[a])
	}
	sc.Name = prefix + "/" + strings.Join(parts, ",")
	if sp.Description != "" {
		sc.Description = sp.Description
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, fmt.Errorf("engine: %s %q point %q: %w", kind, sp.Name, sc.Name, err)
	}
	return sc, nil
}

// Expand materializes the scenario matrix: one validated scenario per grid
// point, in row-major axis order, each named after its coordinates.
func (sp SweepSpec) Expand() ([]Scenario, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	grid := sp.grid()
	out := make([]Scenario, 0, len(grid))
	for _, vals := range grid {
		sc, err := sp.point("sweep", sp.Name, vals)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// RunSweep expands the sweep and runs every grid point concurrently over
// one shared worker pool, returning one aggregate per point in grid order.
// Each point keeps the per-scenario determinism contract: its aggregate is
// bit-identical for any worker count.
func RunSweep(sp SweepSpec, opt Options) ([]Aggregate, error) {
	scenarios, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	return runMany(scenarios, opt)
}
