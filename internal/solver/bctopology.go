package solver

import (
	"fmt"
	"sort"

	"repro/internal/grid"
	"repro/internal/schedule"
)

// bctopology.go owns the interplay between scheduled boundary-condition
// events and the rank topology. Periodicity is realized in two distinct
// ways: on a single-block axis a BCPeriodic face condition wraps the ghost
// layer within the block, while on a decomposed axis the wrap crosses block
// (and possibly process) boundaries through the communication layer's
// neighbor relation. A SetBC event may therefore flip any face's kind —
// including faces of decomposed or currently-periodic axes — as long as
// every prescription leaves each decomposed axis in a uniform state: either
// all four of its (φ/µ × min/max) face kinds are periodic, or none are.
// RunSchedule validates that invariant up front over the whole schedule and
// rejects violations with a *ScheduleError before any step runs; at run
// time, syncTopology pushes the derived per-axis periodicity into the
// communication topology whenever applied events change it.

// ScheduleError is the structured rejection of a schedule whose
// boundary-condition prescription the rank topology cannot honor. It is
// returned by RunSchedule before the first step executes, wrapped all the
// way out of the solver, so callers (the job daemon in particular) can
// distinguish an unrealizable schedule — a permanent, non-retryable input
// error — from transient faults, and surface the offending event to the
// submitter. All fields are plain strings/ints so the value serializes
// directly into job status JSON.
type ScheduleError struct {
	// Face names the offending domain face ("x-", "y+", ...); for
	// axis-wide violations it is the axis' min face.
	Face string `json:"face"`
	// Step is the schedule step at which the prescription becomes
	// unrealizable.
	Step int `json:"step"`
	// Reason says why the topology cannot honor the prescription.
	Reason string `json:"reason"`
}

// Error implements the error interface.
func (e *ScheduleError) Error() string {
	return fmt.Sprintf("solver: schedule unrealizable at step %d (face %s): %s", e.Step, e.Face, e.Reason)
}

// axisFaces returns the min and max face of an axis.
func axisFaces(axis int) (grid.Face, grid.Face) {
	return grid.Face(2 * axis), grid.Face(2*axis + 1)
}

// validateSetBCs simulates the kind evolution every SetBC event prescribes
// and rejects, before any step runs, prescriptions the decomposition cannot
// honor. The JSON front-end and Compose cannot know the topology, and
// aborting a production run at the event's fire step would lose everything
// since the last checkpoint. Only axes the schedule touches are checked, so
// a pre-existing (caller-constructed) configuration is never retroactively
// rejected.
func (s *Sim) validateSetBCs(setbcs []schedule.SetBC) error {
	if len(setbcs) == 0 {
		return nil
	}
	// Simulated per-(face,field) kinds, seeded from the live domain sets
	// (index layout matches applyDueSetBCs: 2*face+field). On a
	// topologically periodic axis the face kinds are periodic by
	// construction of the default sets; force them so a caller-supplied
	// divergent set cannot skew the simulation.
	var kinds [2 * int(grid.NumFaces)]grid.BCKind
	for f := grid.Face(0); f < grid.NumFaces; f++ {
		kinds[2*int(f)+int(schedule.BCPhi)] = s.domainPhiBCs[f].Kind
		kinds[2*int(f)+int(schedule.BCMu)] = s.domainMuBCs[f].Kind
	}
	for axis := 0; axis < 3; axis++ {
		if s.World.Topology().Periodic[axis] {
			lo, hi := axisFaces(axis)
			for _, f := range [2]grid.Face{lo, hi} {
				kinds[2*int(f)+int(schedule.BCPhi)] = grid.BCPeriodic
				kinds[2*int(f)+int(schedule.BCMu)] = grid.BCPeriodic
			}
		}
	}

	// Walk the events in step order; after each group of same-step events
	// the touched axes must be uniform. (applyDueSetBCs applies the latest
	// due event per (face, field), and schedule.New rejects ambiguous
	// same-step overlaps, so in-order application reproduces the live kind
	// at every step boundary.)
	order := make([]int, len(setbcs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return setbcs[order[a]].Step < setbcs[order[b]].Step })

	blocks := [3]int{s.Cfg.BG.PX, s.Cfg.BG.PY, s.Cfg.BG.PZ}
	for i := 0; i < len(order); {
		step := setbcs[order[i]].Step
		var touched [3]bool
		for ; i < len(order) && setbcs[order[i]].Step == step; i++ {
			b := setbcs[order[i]]
			kinds[2*int(b.Face)+int(b.Field)] = b.Kind
			touched[b.Face.Axis()] = true
		}
		for axis := 0; axis < 3; axis++ {
			if !touched[axis] {
				continue
			}
			lo, hi := axisFaces(axis)
			n := 0
			for _, f := range [2]grid.Face{lo, hi} {
				for fld := 0; fld < 2; fld++ {
					if kinds[2*int(f)+fld] == grid.BCPeriodic {
						n++
					}
				}
			}
			if n > 0 && n < 4 && blocks[axis] > 1 {
				return &ScheduleError{
					Face: lo.String(), Step: step,
					Reason: fmt.Sprintf("axis decomposed into %d blocks: periodicity wraps through the communication layer, so the φ/µ min/max faces must switch together (%d of 4 periodic)", blocks[axis], n),
				}
			}
			if n == 4 && axis == 2 && s.Cfg.MovingWindow {
				return &ScheduleError{
					Face: lo.String(), Step: step,
					Reason: "moving window scrolls material through z: the axis cannot become periodic",
				}
			}
		}
	}
	return nil
}

// syncTopology re-derives the periodicity of the touched axes from the live
// domain BC kinds (an axis is periodic iff all four of its φ/µ min/max face
// kinds are periodic) and pushes changes into the communication topology.
// Reports whether anything changed — the caller must then re-establish all
// ghost layers, because neighbor relations, not just wall fills, moved.
// Safe only at step boundaries.
func (s *Sim) syncTopology(touched [3]bool) bool {
	changed := false
	for axis := 0; axis < 3; axis++ {
		if !touched[axis] {
			continue
		}
		lo, hi := axisFaces(axis)
		want := true
		for _, f := range [2]grid.Face{lo, hi} {
			if s.domainPhiBCs[f].Kind != grid.BCPeriodic || s.domainMuBCs[f].Kind != grid.BCPeriodic {
				want = false
			}
		}
		if want != s.World.Topology().Periodic[axis] {
			s.World.SetPeriodic(axis, want)
			changed = true
		}
	}
	if changed {
		s.refreshRankBCs()
		s.invalidateActivity()
	}
	return changed
}
