package solver

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/schedule"
)

// Flipping a comm-realized periodic axis to walls — rejected outright
// before the topology lift — must now run, and must stay bit-identical
// across decompositions of that axis: the single-block run realizes the
// flip through face conditions, the decomposed run through a topology
// rewire, and both must produce the same trajectory.
func TestSetBCFlipPeriodicToWallsBitwiseAcrossDecompositions(t *testing.T) {
	flip := func() *schedule.Schedule {
		return mkSched(t,
			schedule.SetBC{Step: 3, Face: grid.XMin, Field: schedule.BCPhi, Kind: grid.BCNeumann},
			schedule.SetBC{Step: 3, Face: grid.XMax, Field: schedule.BCPhi, Kind: grid.BCNeumann},
			schedule.SetBC{Step: 3, Face: grid.XMin, Field: schedule.BCMu, Kind: grid.BCNeumann},
			schedule.SetBC{Step: 3, Face: grid.XMax, Field: schedule.BCMu, Kind: grid.BCNeumann})
	}
	run := func(px, py int) *Sim {
		s := mkSim(t, px, py, 1, 16/px, 16/py, 10, OverlapNone)
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
		if err := s.RunSchedule(8, flip(), ScheduleHooks{}); err != nil {
			t.Fatalf("%dx%d: kind flip on decomposed periodic axis rejected: %v", px, py, err)
		}
		if s.World.Topology().Periodic[0] {
			t.Errorf("%dx%d: x axis still topologically periodic after wall flip", px, py)
		}
		phi, _ := s.DomainBCs()
		if phi[grid.XMin].Kind != grid.BCNeumann {
			t.Errorf("%dx%d: φ x- kind %v, want Neumann", px, py, phi[grid.XMin].Kind)
		}
		return s
	}
	ref := run(1, 1)
	dec := run(2, 2)
	if ok, maxd := ref.GatherGlobalPhi().InteriorEqual(dec.GatherGlobalPhi(), 0); !ok {
		t.Errorf("φ diverged %g between decompositions across periodicity flip", maxd)
	}
	if ok, maxd := ref.GatherGlobalMu().InteriorEqual(dec.GatherGlobalMu(), 0); !ok {
		t.Errorf("µ diverged %g between decompositions across periodicity flip", maxd)
	}
}

// The reverse flip: a walled, decomposed axis becomes periodic mid-run when
// all four face prescriptions switch together, the wrap crossing block
// boundaries through the communication layer. Bit-compared against the
// single-block realization of the same schedule.
func TestSetBCFlipWallsToPeriodicBitwiseAcrossDecompositions(t *testing.T) {
	flip := func() *schedule.Schedule {
		return mkSched(t,
			schedule.SetBC{Step: 2, Face: grid.ZMin, Field: schedule.BCPhi, Kind: grid.BCPeriodic},
			schedule.SetBC{Step: 2, Face: grid.ZMax, Field: schedule.BCPhi, Kind: grid.BCPeriodic},
			schedule.SetBC{Step: 2, Face: grid.ZMin, Field: schedule.BCMu, Kind: grid.BCPeriodic},
			schedule.SetBC{Step: 2, Face: grid.ZMax, Field: schedule.BCMu, Kind: grid.BCPeriodic})
	}
	run := func(pz int) *Sim {
		s := mkSim(t, 1, 1, pz, 8, 8, 12/pz, OverlapNone)
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
		if err := s.RunSchedule(6, flip(), ScheduleHooks{}); err != nil {
			t.Fatalf("pz=%d: periodic flip on z rejected: %v", pz, err)
		}
		if !s.World.Topology().Periodic[2] {
			t.Errorf("pz=%d: z axis not topologically periodic after flip", pz)
		}
		return s
	}
	ref := run(1)
	dec := run(2)
	if ok, maxd := ref.GatherGlobalPhi().InteriorEqual(dec.GatherGlobalPhi(), 0); !ok {
		t.Errorf("φ diverged %g between decompositions across periodic flip", maxd)
	}
	if ok, maxd := ref.GatherGlobalMu().InteriorEqual(dec.GatherGlobalMu(), 0); !ok {
		t.Errorf("µ diverged %g between decompositions across periodic flip", maxd)
	}
}

// A prescription leaving a decomposed axis mixed-periodic is unrealizable;
// the rejection must fail fast (zero steps run) and be a structured
// *ScheduleError so the job daemon can mark the job permanently failed and
// surface the offending event instead of retrying.
func TestSetBCMixedPeriodicityStructuredError(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 6, 8, 10, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	// Only φ's x faces leave the periodic state: µ still wraps through the
	// comm layer while φ wants walls — unrealizable on a decomposed axis.
	sched := mkSched(t,
		schedule.SetBC{Step: 4, Face: grid.XMin, Field: schedule.BCPhi, Kind: grid.BCNeumann},
		schedule.SetBC{Step: 4, Face: grid.XMax, Field: schedule.BCPhi, Kind: grid.BCNeumann})
	err := s.RunSchedule(10, sched, ScheduleHooks{})
	if err == nil {
		t.Fatal("mixed periodicity on a decomposed axis accepted")
	}
	var serr *ScheduleError
	if !errors.As(err, &serr) {
		t.Fatalf("error %v (%T) is not a *ScheduleError", err, err)
	}
	if serr.Step != 4 || serr.Face != grid.XMin.String() || serr.Reason == "" {
		t.Errorf("structured fields %+v, want step 4 face %s with reason", serr, grid.XMin)
	}
	if s.StepCount() != 0 {
		t.Errorf("ran %d steps before rejecting", s.StepCount())
	}
}

// The moving window scrolls material through z; a schedule making z
// periodic under it must be rejected up front.
func TestSetBCRejectsPeriodicZUnderMovingWindow(t *testing.T) {
	bg, err := grid.NewBlockGrid(1, 1, 1, 8, 8, 12, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = 6 * p.Dx
	s, err := New(Config{Params: p, BG: bg, MovingWindow: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	sched := mkSched(t,
		schedule.SetBC{Step: 1, Face: grid.ZMin, Field: schedule.BCPhi, Kind: grid.BCPeriodic},
		schedule.SetBC{Step: 1, Face: grid.ZMax, Field: schedule.BCPhi, Kind: grid.BCPeriodic},
		schedule.SetBC{Step: 1, Face: grid.ZMin, Field: schedule.BCMu, Kind: grid.BCPeriodic},
		schedule.SetBC{Step: 1, Face: grid.ZMax, Field: schedule.BCMu, Kind: grid.BCPeriodic})
	var serr *ScheduleError
	if err := s.RunSchedule(3, sched, ScheduleHooks{}); !errors.As(err, &serr) {
		t.Fatalf("periodic z under moving window accepted (err=%v)", err)
	}
}
