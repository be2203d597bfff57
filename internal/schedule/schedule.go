// Package schedule models the time-varying process driving the paper's
// production runs (§5): directional solidification is not a fixed-parameter
// benchmark — grains nucleate in bursts, the pull velocity and thermal
// gradient ramp as the furnace program advances, and long runs are stopped
// and restarted from single-precision checkpoints (§3.2).
//
// A Schedule is an ordered list of typed events applied between timesteps
// by solver.Sim.RunSchedule:
//
//   - NucleationBurst seeds spherical solid nuclei in a lab-frame z-range
//     (moving-window aware: coordinates shift with the window offset);
//   - Ramp linearly drives a process parameter (pull velocity V, thermal
//     gradient G, or the timestep Δt) from one value to another over a
//     step range. Ramp values are pure functions of the step index, so a
//     run restarted mid-ramp from a checkpoint recomputes bit-identical
//     coefficients;
//   - SetBC changes the boundary condition of one block face for one field
//     (φ or µ) — switching the BCKind and, for Dirichlet walls, ramping the
//     prescribed face values as a pure function of the step index, so a
//     run restarted mid-BC-ramp recomputes bit-identical wall values;
//   - Checkpoint requests periodic state dumps through a caller-supplied
//     writer hook.
//
// One-shot events (bursts) are consumed in order; the count of consumed
// events is the "schedule position" carried by checkpoint headers so a
// restart never re-fires a burst. Ramps, SetBC events and checkpoint
// cadences are stateless functions of the step index and need no position
// tracking.
//
// Independent schedules (a furnace program, a boundary-environment program,
// an instrumentation overlay) compose with Compose, which merges them
// deterministically and rejects ambiguous combinations.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// Param identifies a rampable process parameter.
type Param int

const (
	// ParamPullVelocity ramps the isotherm pull velocity V. The solver
	// compensates the isotherm offset Z0 so the temperature field stays
	// continuous across each velocity change.
	ParamPullVelocity Param = iota
	// ParamGradient ramps the thermal gradient G (the profile rotates
	// about the eutectic isotherm, which is continuous by construction).
	ParamGradient
	// ParamDt ramps the timestep Δt; the solver rejects values beyond
	// the explicit-Euler stability limit.
	ParamDt
)

func (p Param) String() string {
	switch p {
	case ParamPullVelocity:
		return "v"
	case ParamGradient:
		return "G"
	case ParamDt:
		return "dt"
	}
	return fmt.Sprintf("Param(%d)", int(p))
}

// Event is one entry of a Schedule.
type Event interface {
	// StartStep is the completed-step count at which the event first
	// applies: an event with StartStep k acts on the step that advances
	// the simulation from k to k+1 completed steps.
	StartStep() int
	// OneShot reports whether the event is consumed once (bursts) or
	// evaluated every step (ramps, checkpoints).
	OneShot() bool
	validate() error
}

// NucleationBurst seeds Count spherical nuclei of radius Radius (cells)
// uniformly in the lab-frame box [0,NX)×[0,NY)×[ZMin,ZMax). Phase pins all
// nuclei to one solid phase; Phase < 0 apportions them over the solid
// phases by the eutectic volume fractions (the Voronoi rule of the §2.1
// initial condition). Only melt-dominated cells are overwritten — nuclei
// form in the liquid, never inside existing grains.
type NucleationBurst struct {
	Step   int
	Count  int
	Phase  int // solid phase index, or -1 for eutectic apportionment
	Radius float64
	ZMin   int // lab-frame z range (inclusive, exclusive)
	ZMax   int
	Seed   int64 // RNG seed for the nucleus positions
}

// StartStep implements Event: the burst fires on the step leaving e.Step.
func (e NucleationBurst) StartStep() int { return e.Step }

// OneShot implements Event: a burst is consumed once.
func (e NucleationBurst) OneShot() bool { return true }

func (e NucleationBurst) validate() error {
	if e.Step < 0 {
		return fmt.Errorf("schedule: burst at negative step %d", e.Step)
	}
	if e.Count < 1 {
		return fmt.Errorf("schedule: burst with count %d", e.Count)
	}
	if !(e.Radius > 0) || math.IsInf(e.Radius, 0) {
		return fmt.Errorf("schedule: burst with radius %g", e.Radius)
	}
	if e.ZMin >= e.ZMax {
		return fmt.Errorf("schedule: burst z range [%d,%d) empty", e.ZMin, e.ZMax)
	}
	if e.Phase >= kernels.NP-1 {
		return fmt.Errorf("schedule: burst phase %d is not a solid phase", e.Phase)
	}
	return nil
}

func (e NucleationBurst) String() string {
	ph := "eutectic mix"
	if e.Phase >= 0 {
		ph = fmt.Sprintf("phase %d", e.Phase)
	}
	return fmt.Sprintf("burst of %d nuclei (%s, r=%g) in z∈[%d,%d)", e.Count, ph, e.Radius, e.ZMin, e.ZMax)
}

// Ramp drives Param linearly From→To over the steps [Step, Step+Over); from
// Step+Over on the parameter holds at To. Value is a pure function of the
// step index so restarts recompute identical coefficients.
type Ramp struct {
	Param    Param
	Step     int // first step of the ramp
	Over     int // ramp length in steps (≥ 1)
	From, To float64
}

// StartStep implements Event: the ramp starts acting on the step leaving
// e.Step.
func (e Ramp) StartStep() int { return e.Step }

// OneShot implements Event: a ramp is a pure function of the step index,
// evaluated every step.
func (e Ramp) OneShot() bool { return false }

// Value returns the parameter value the ramp prescribes for the step that
// advances the simulation from `step` completed steps.
func (e Ramp) Value(step int) float64 {
	if step <= e.Step {
		return e.From
	}
	if step >= e.Step+e.Over {
		return e.To
	}
	return e.From + (e.To-e.From)*(float64(step-e.Step)/float64(e.Over))
}

func (e Ramp) validate() error {
	if e.Step < 0 {
		return fmt.Errorf("schedule: ramp at negative step %d", e.Step)
	}
	if e.Over < 1 || e.Step > math.MaxInt-e.Over {
		return fmt.Errorf("schedule: ramp over %d steps from %d", e.Over, e.Step)
	}
	if e.Param < ParamPullVelocity || e.Param > ParamDt {
		return fmt.Errorf("schedule: unknown ramp param %d", int(e.Param))
	}
	if e.Param == ParamDt && (e.From <= 0 || e.To <= 0) {
		return fmt.Errorf("schedule: dt ramp through nonpositive values")
	}
	for _, v := range [2]float64{e.From, e.To} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("schedule: ramp with non-finite value %g", v)
		}
	}
	// Value interpolates via To-From, which can overflow for finite
	// endpoints of opposite huge sign and leak Inf into the solver.
	if math.IsInf(e.To-e.From, 0) {
		return fmt.Errorf("schedule: ramp span %g→%g overflows", e.From, e.To)
	}
	return nil
}

func (e Ramp) String() string {
	return fmt.Sprintf("ramp %s %g→%g over steps [%d,%d)", e.Param, e.From, e.To, e.Step, e.Step+e.Over)
}

// Checkpoint requests a state dump every Every steps counted from Step
// (i.e. after Step+Every, Step+2·Every, … steps have completed). Path is a
// template passed to the writer hook with the step count substituted for a
// %d-style verb (an empty template uses the runner's default).
type Checkpoint struct {
	Step  int
	Every int
	Path  string
}

// StartStep implements Event: the cadence counts from e.Step.
func (e Checkpoint) StartStep() int { return e.Step }

// OneShot implements Event: a cadence is evaluated every step.
func (e Checkpoint) OneShot() bool { return false }

// Due reports whether a dump is due after `step` steps have completed.
func (e Checkpoint) Due(step int) bool {
	return step > e.Step && (step-e.Step)%e.Every == 0
}

func (e Checkpoint) validate() error {
	if e.Step < 0 {
		return fmt.Errorf("schedule: checkpoint at negative step %d", e.Step)
	}
	if e.Every < 1 {
		return fmt.Errorf("schedule: checkpoint every %d steps", e.Every)
	}
	return nil
}

// BCField selects which field a SetBC event targets. Boundary payloads are
// per-component, so the two fields take different Dirichlet arities: φ walls
// prescribe one value per phase, µ walls one per reduced chemical potential.
type BCField int

const (
	// BCPhi targets the phase-field boundary condition.
	BCPhi BCField = iota
	// BCMu targets the chemical-potential boundary condition.
	BCMu
)

func (f BCField) String() string {
	switch f {
	case BCPhi:
		return "phi"
	case BCMu:
		return "mu"
	}
	return fmt.Sprintf("BCField(%d)", int(f))
}

// NComps returns the Dirichlet payload arity of the targeted field.
func (f BCField) NComps() int {
	if f == BCPhi {
		return kernels.NP
	}
	return kernels.NR
}

// SetBC changes the boundary condition of one block face for one field from
// step Step on: the face switches to Kind, and for Dirichlet walls the
// prescribed per-component values ramp linearly From→To over the steps
// [Step, Step+Over) (Over = 0 installs To immediately). Like Ramp, the
// active values are a pure function of the step index, so a run restarted
// mid-BC-ramp from a checkpoint recomputes bit-identical wall values. The
// event stays in force until a later SetBC on the same (face, field)
// overrides it.
//
// Time-varying conditions apply to physical (non-periodic) domain faces —
// in the production topology the z faces; faces on axes whose periodicity
// is realized by the communication layer are rejected by the solver.
type SetBC struct {
	Step  int
	Over  int // Dirichlet value-ramp length in steps (0 = immediate)
	Face  grid.Face
	Field BCField
	Kind  grid.BCKind
	From  []float64 // Dirichlet values at Step (nil with Over 0 = start at To)
	To    []float64 // Dirichlet values from Step+Over on
}

// StartStep implements Event: the BC change applies from the step leaving
// e.Step.
func (e SetBC) StartStep() int { return e.Step }

// OneShot implements Event: BC prescriptions are pure functions of the
// step index, evaluated every step until settled.
func (e SetBC) OneShot() bool { return false }

// rampEnd returns the first step at which the event's values have settled
// at To; degenerate (Over ≤ 0) ramps settle one step after they start.
func (e SetBC) rampEnd() int {
	if e.Over < 1 {
		return e.Step + 1
	}
	return e.Step + e.Over
}

// SettleStep returns the first step from which the event's prescription is
// constant: the kind is installed and the values have reached To. From the
// step after it, re-applying the event is a no-op (the solver uses this to
// stop per-step wall updates once a ramp has settled).
func (e SetBC) SettleStep() int { return e.rampEnd() }

// ValuesAt writes the Dirichlet payload prescribed for `step` into dst
// (len ≥ Field.NComps()) and returns it. The interpolation mirrors
// Ramp.Value exactly so restarts are bit-compatible.
func (e SetBC) ValuesAt(step int, dst []float64) []float64 {
	n := e.Field.NComps()
	dst = dst[:n]
	if e.From == nil || step >= e.Step+e.Over {
		copy(dst, e.To)
		return dst
	}
	if step <= e.Step {
		copy(dst, e.From)
		return dst
	}
	frac := float64(step-e.Step) / float64(e.Over)
	for i := range dst {
		dst[i] = e.From[i] + (e.To[i]-e.From[i])*frac
	}
	return dst
}

func (e SetBC) validate() error {
	if e.Step < 0 {
		return fmt.Errorf("schedule: setbc at negative step %d", e.Step)
	}
	if e.Over < 0 || e.Step > math.MaxInt-e.Over-1 {
		return fmt.Errorf("schedule: setbc ramp length %d invalid", e.Over)
	}
	if e.Face < 0 || e.Face >= grid.NumFaces {
		return fmt.Errorf("schedule: setbc on unknown face %d", int(e.Face))
	}
	if e.Field != BCPhi && e.Field != BCMu {
		return fmt.Errorf("schedule: setbc on unknown field %d", int(e.Field))
	}
	switch e.Kind {
	case grid.BCPeriodic, grid.BCNeumann:
		if e.From != nil || e.To != nil || e.Over != 0 {
			return fmt.Errorf("schedule: setbc %v carries Dirichlet payload", e.Kind)
		}
	case grid.BCDirichlet:
		if len(e.To) != e.Field.NComps() {
			return fmt.Errorf("schedule: setbc %s wall needs %d values, got %d",
				e.Field, e.Field.NComps(), len(e.To))
		}
		if e.Over > 0 && len(e.From) != len(e.To) {
			return fmt.Errorf("schedule: setbc ramp needs matching from/to arities (%d vs %d)",
				len(e.From), len(e.To))
		}
		if e.From != nil && len(e.From) != len(e.To) {
			return fmt.Errorf("schedule: setbc from/to arity mismatch (%d vs %d)",
				len(e.From), len(e.To))
		}
		for _, vs := range [2][]float64{e.From, e.To} {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("schedule: setbc with non-finite value %g", v)
				}
			}
		}
		// ValuesAt interpolates via To-From, which can overflow for
		// finite endpoints of opposite huge sign.
		for i := range e.From {
			if math.IsInf(e.To[i]-e.From[i], 0) {
				return fmt.Errorf("schedule: setbc ramp span %g→%g overflows", e.From[i], e.To[i])
			}
		}
	default:
		return fmt.Errorf("schedule: setbc to unsupported kind %v", e.Kind)
	}
	return nil
}

func (e SetBC) String() string {
	s := fmt.Sprintf("set %s BC on %v → %v", e.Field, e.Face, e.Kind)
	if e.Kind == grid.BCDirichlet {
		if e.Over > 0 {
			s += fmt.Sprintf(" ramp %v→%v over steps [%d,%d)", e.From, e.To, e.Step, e.Step+e.Over)
		} else {
			s += fmt.Sprintf(" %v", e.To)
		}
	}
	return s
}

// Schedule is an ordered list of events. Build one with New (or FromJSON)
// so events are validated and sorted by start step.
type Schedule struct {
	Events []Event
}

// New validates the events — individually and against each other (see
// Compose for the conflict rules) — and returns them as a Schedule sorted
// stably by start step.
func New(events ...Event) (*Schedule, error) {
	for i, e := range events {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	s := &Schedule{Events: append([]Event(nil), events...)}
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].StartStep() < s.Events[j].StartStep()
	})
	if err := s.validateConflicts(); err != nil {
		return nil, err
	}
	return s, nil
}

// OneShots returns the one-shot events (bursts) in firing order; the index
// into this slice is the schedule position stored in checkpoint headers.
func (s *Schedule) OneShots() []Event {
	var out []Event
	for _, e := range s.Events {
		if e.OneShot() {
			out = append(out, e)
		}
	}
	return out
}

// Ramps returns all ramp events in order.
func (s *Schedule) Ramps() []Ramp {
	var out []Ramp
	for _, e := range s.Events {
		if r, ok := e.(Ramp); ok {
			out = append(out, r)
		}
	}
	return out
}

// Checkpoints returns all checkpoint cadences in order.
func (s *Schedule) Checkpoints() []Checkpoint {
	var out []Checkpoint
	for _, e := range s.Events {
		if c, ok := e.(Checkpoint); ok {
			out = append(out, c)
		}
	}
	return out
}

// SetBCs returns all boundary-condition events in order.
func (s *Schedule) SetBCs() []SetBC {
	var out []SetBC
	for _, e := range s.Events {
		if b, ok := e.(SetBC); ok {
			out = append(out, b)
		}
	}
	return out
}

// EndStep returns the last step any event prescribes activity for (the
// natural run length of the schedule), or 0 for an empty schedule.
func (s *Schedule) EndStep() int {
	end := 0
	for _, e := range s.Events {
		last := e.StartStep()
		switch t := e.(type) {
		case Ramp:
			last = t.Step + t.Over
		case SetBC:
			last = t.rampEnd()
		}
		if last > end {
			end = last
		}
	}
	return end
}

// Compose merges independent schedules into one. Events keep their relative
// order within each source schedule; across sources, events are ordered by
// start step with same-step ties broken by argument position — an event of
// an earlier argument fires before a same-step event of a later one (the
// base program goes first, overlays refine it). Nil schedules are skipped.
//
// Ambiguous combinations are rejected rather than silently resolved
// (by New, so single-file schedules are held to the same rules):
//
//   - two SetBC events on the same (face, field) whose value-ramp windows
//     overlap — the wall state they prescribe would depend on evaluation
//     order (a later SetBC overriding an earlier settled one is fine);
//   - two Ramps of the same parameter starting at the same step — within
//     one step the last applied ramp would silently win.
func Compose(scheds ...*Schedule) (*Schedule, error) {
	var events []Event
	for _, s := range scheds {
		if s == nil {
			continue
		}
		events = append(events, s.Events...)
	}
	return New(events...)
}

// validateConflicts rejects event combinations whose outcome would depend
// on evaluation order (see Compose).
func (s *Schedule) validateConflicts() error {
	bcs := s.SetBCs()
	for i := 0; i < len(bcs); i++ {
		for j := i + 1; j < len(bcs); j++ {
			a, b := bcs[i], bcs[j]
			if a.Face != b.Face || a.Field != b.Field {
				continue
			}
			if a.Step < b.rampEnd() && b.Step < a.rampEnd() {
				return fmt.Errorf("schedule: conflicting setbc events on %v/%s: ramp windows [%d,%d) and [%d,%d) overlap",
					a.Face, a.Field, a.Step, a.rampEnd(), b.Step, b.rampEnd())
			}
		}
	}
	ramps := s.Ramps()
	for i := 0; i < len(ramps); i++ {
		for j := i + 1; j < len(ramps); j++ {
			if ramps[i].Param == ramps[j].Param && ramps[i].Step == ramps[j].Step {
				return fmt.Errorf("schedule: two %s ramps start at step %d", ramps[i].Param, ramps[i].Step)
			}
		}
	}
	return nil
}
