package phasefield

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
	"repro/internal/schedule"
)

// multirank_test.go is the decomposition-equivalence harness: the golden
// trajectory — composed schedule with a velocity ramp, a nucleation burst,
// a µ-wall BC ramp, a φ-wall switch, moving-window shifts and a mid-ramp
// checkpoint — must produce bitwise-identical fields
// on 1 rank and on a 2×2 comm.World decomposition, both for the
// uninterrupted run and for the restart leg resumed from each run's own V3
// checkpoint. Ghost layers carry exact copies of neighbor interiors (or
// BC-filled values identical to the single-block fills), so any deviation
// is a halo-exchange, BC-staging or window-shift bug, not roundoff. This
// also regression-guards the zero-allocation halo exchange and the µ
// exchange tasks on the sweep pool under BoundarySets that change between
// steps.

// mkGoldenSim builds the golden scenario on a px×py decomposition.
func mkGoldenSim(t *testing.T, px, py int) *Simulation {
	t.Helper()
	cfg := goldenConfig()
	cfg.PX, cfg.PY = px, py
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitProduction(); err != nil {
		t.Fatal(err)
	}
	return sim
}

// expectBitwise asserts two simulations hold bitwise-identical global
// fields.
func expectBitwise(t *testing.T, label string, a, b *Simulation) {
	t.Helper()
	if ok, maxd := a.GlobalPhi().InteriorEqual(b.GlobalPhi(), 0); !ok {
		t.Errorf("%s: φ differs by %g (want bitwise identity)", label, maxd)
	}
	if ok, maxd := a.sim.GatherGlobalMu().InteriorEqual(b.sim.GatherGlobalMu(), 0); !ok {
		t.Errorf("%s: µ differs by %g (want bitwise identity)", label, maxd)
	}
}

func TestMultiRankBitwiseEquivalence(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	sims := [2]*Simulation{mkGoldenSim(t, 1, 1), mkGoldenSim(t, 2, 2)}
	scheds := [2]*schedule.Schedule{}
	for i := range sims {
		scheds[i] = goldenSchedule(t, filepath.Join(dirs[i], "mr_%06d.pfcp"))
	}

	// Advance both decompositions in lockstep, checking bitwise identity
	// at the waypoints where each event class has just acted: after the
	// burst + first window shift (step 12), mid BC-ramp at the checkpoint
	// (step 20), with the BC ramp settled (step 28), and at the end with the
	// φ top wall switched (step 40).
	for _, until := range []int{12, goldenCkptStep, 28, goldenSteps} {
		for i, sim := range sims {
			if err := sim.RunSchedule(scheds[i], until-sim.Step(), ScheduleOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		expectBitwise(t, fmt.Sprintf("step %d", until), sims[0], sims[1])
		if sims[0].WindowShift() != sims[1].WindowShift() {
			t.Fatalf("step %d: window shifts diverged (%d vs %d)",
				until, sims[0].WindowShift(), sims[1].WindowShift())
		}
	}
	if sims[0].WindowShift() == 0 {
		t.Fatal("run never shifted the window; the harness guards nothing")
	}
	phiBCs0, muBCs0 := sims[0].DomainBCs()
	phiBCs1, muBCs1 := sims[1].DomainBCs()
	if muBCs0[grid.ZMin].Values[0] != muBCs1[grid.ZMin].Values[0] ||
		phiBCs0[grid.ZMax].Kind != phiBCs1[grid.ZMax].Kind {
		t.Fatal("live BC state diverged across decompositions")
	}

	// Restart leg: resume each decomposition from its own mid-BC-ramp V3
	// checkpoint. Both seed from float32 round trips of bitwise-identical
	// states, so the continued trajectories must again agree bit for bit —
	// including the remaining BC ramp.
	restored := [2]*Simulation{}
	for i := range restored {
		path := filepath.Join(dirs[i], fmt.Sprintf("mr_%06d.pfcp", goldenCkptStep))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("mid-ramp checkpoint missing: %v", err)
		}
		r, err := Restore(path, Config{MovingWindow: true, WindowFraction: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if r.Step() != goldenCkptStep {
			t.Fatalf("restored at step %d", r.Step())
		}
		if err := r.RunSchedule(scheds[i], goldenSteps-r.Step(), ScheduleOptions{}); err != nil {
			t.Fatal(err)
		}
		restored[i] = r
	}
	expectBitwise(t, "restart leg", restored[0], restored[1])
	// And the restart legs' BC state must settle identically to the
	// uninterrupted runs'.
	_, muR0 := restored[0].DomainBCs()
	if muR0[grid.ZMin].Values[0] != muBCs0[grid.ZMin].Values[0] ||
		muR0[grid.ZMin].Values[1] != muBCs0[grid.ZMin].Values[1] {
		t.Error("restarted BC ramp settled at different wall values")
	}
}
