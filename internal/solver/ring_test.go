package solver

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/schedule"
)

// ring_test.go — the carried φ ring (activity.go): on a rank whose x/y
// ghost ring is filled from its own block, the φdst fill keeps the ring of
// a slice that slept this step and the last, and derivePhi skips the ring
// re-read of a slice that slept last step. Both rest on the ring being the
// boundary image of the slice's own interior; proveSkips checks that
// after every step.

// proveSkips checks, after a step, what the tracker skipped or will skip
// on every ring-local rank. φsrc is the buffer the step's fill wrote: a
// full x/y fill of a copy must reproduce it bit for bit, kept rings
// included. And every slice that slept, whose ring the next derivation
// will not re-read, must hold its vertex on that ring. It returns the
// number of kept rings.
func proveSkips(t *testing.T, s *Sim) (kept int) {
	t.Helper()
	for _, r := range s.ranks {
		a := &r.act
		if !a.ringLocal {
			continue
		}
		f := r.fields.PhiSrc
		full := f.Clone()
		r.phiBCs.ApplyAxis(full, 0, true, true, nil)
		r.phiBCs.ApplyAxis(full, 1, true, true, nil)
		for i := range f.Data {
			if math.Float64bits(f.Data[i]) != math.Float64bits(full.Data[i]) {
				t.Fatalf("step %d rank %d: cell %d holds %v after the fill, a full fill writes %v",
					s.step, r.id, i, f.Data[i], full.Data[i])
			}
		}
		for z, slept := range a.phiSleep {
			if a.keep[z] {
				kept++
			}
			if slept && a.prevImaged && !phiAt(f, z, a.vertex[z+1], false, true) {
				t.Fatalf("step %d rank %d: slept slice %d left vertex %d on its ring, which goes unread",
					s.step, r.id, z, a.vertex[z+1])
			}
		}
	}
	return kept
}

// ringCase is a tracked shape of the root package's bitwise matrix, built
// the way the facade builds it.
type ringCase struct {
	name       string
	seed       int64
	nx, ny, nz int
	grid       [3]int
	production bool
	window     float64
	overlap    OverlapMode
	par, steps int
	events     []schedule.Event
}

func (c ringCase) sim(t *testing.T, disable bool) *Sim {
	t.Helper()
	bg, err := grid.NewBlockGrid(c.grid[0], c.grid[1], c.grid[2],
		c.nx/c.grid[0], c.ny/c.grid[1], c.nz/c.grid[2], [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(c.nz) / 2 * p.Dx
	p.Dt = 0.8 * p.StableDt()
	s, err := New(Config{Params: p, BG: bg, Variant: kernels.VarShortcut, Overlap: c.overlap,
		MovingWindow: c.window > 0, WindowFrontFraction: c.window, Parallelism: c.par,
		DisableActiveSweep: disable, Seed: c.seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	sc := ScenarioInterface
	if c.production {
		sc = ScenarioProduction
	}
	if err := s.InitScenario(sc); err != nil {
		t.Fatal(err)
	}
	return s
}

// seamBurstCase is the matrix's seam_burst shape: one phase-0 nucleus
// burst near a seam of a two-block melt column, whose tails cross the
// seam while the other block's slices there sleep and carry.
func seamBurstCase(name string, blocks [3]int, burstSeed int64) ringCase {
	return ringCase{name: name, seed: 3, nx: 16, ny: 16, nz: 32, grid: blocks, production: true,
		overlap: OverlapNone, par: 1, steps: 14, events: []schedule.Event{schedule.NucleationBurst{
			Step: 3, Count: 1, Phase: 0, Radius: 2.5, ZMin: 12, ZMax: 14, Seed: burstSeed}}}
}

// Every tracked matrix shape, plus a z-decomposed column (ring-local
// ranks with remote z faces) and a lateral wall switch, with every skip
// proved at every step (proveSkips). The trajectory must equal the
// untracked one, and the ring-local shapes must keep rings at all.
func TestKeptRingsMatchFullFill(t *testing.T) {
	cases := []ringCase{
		{name: "sparse_column", nx: 8, ny: 8, nz: 48, grid: [3]int{1, 1, 1}, production: true,
			window: 7.5 / 48, overlap: OverlapMu, par: 2, steps: 20},
		{name: "dense_interface", nx: 16, ny: 16, nz: 16, grid: [3]int{1, 1, 1},
			overlap: OverlapMu, par: 4, steps: 8},
		{name: "io_cycle", nx: 12, ny: 12, nz: 16, grid: [3]int{1, 1, 1},
			overlap: OverlapMu, par: 2, steps: 10},
		{name: "tracked_seams", seed: 76, nx: 12, ny: 6, nz: 28, grid: [3]int{4, 1, 1}, production: true,
			overlap: OverlapMu, par: 1, steps: 18},
		{name: "tracked_ring", seed: 260, nx: 12, ny: 24, nz: 17, grid: [3]int{2, 4, 1}, production: true,
			overlap: OverlapNone, par: 1, steps: 13},
		seamBurstCase("seam_burst_x", [3]int{2, 1, 1}, 7),
		seamBurstCase("seam_burst_y", [3]int{1, 2, 1}, 16),
		{name: "z_blocks", nx: 8, ny: 8, nz: 48, grid: [3]int{1, 1, 2}, production: true,
			overlap: OverlapMu, par: 2, steps: 20},
		lateralWallCase(),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracked, full := c.sim(t, false), c.sim(t, true)
			kept := 0
			prove := func(int) bool {
				kept += proveSkips(t, tracked)
				return false
			}
			if err := tracked.RunSchedule(c.steps, mkSched(t, c.events...), ScheduleHooks{StepDone: prove}); err != nil {
				t.Fatal(err)
			}
			if err := full.RunSchedule(c.steps, mkSched(t, c.events...), ScheduleHooks{}); err != nil {
				t.Fatal(err)
			}
			requireSameTrajectory(t, tracked, full)
			if local := c.grid[0] == 1 && c.grid[1] == 1; local != (kept > 0) {
				t.Errorf("ring-local grid %v, but %d slice rings kept", local, kept)
			}
		})
	}
}

// lateralWallCase puts Dirichlet x walls at the melt vertex, so the melt
// beside them sleeps with its rings kept, then switches one wall to a
// solid vertex through the schedule, which refills φsrc's walls at once.
func lateralWallCase() ringCase {
	wall := func(step int, f grid.Face, field schedule.BCField, kind grid.BCKind, to []float64) schedule.SetBC {
		return schedule.SetBC{Step: step, Face: f, Field: field, Kind: kind, To: to}
	}
	liquid := []float64{0, 0, 0, 1}
	return ringCase{name: "lateral_wall", nx: 8, ny: 8, nz: 40, grid: [3]int{1, 1, 1}, production: true,
		overlap: OverlapNone, par: 1, steps: 14, events: []schedule.Event{
			wall(0, grid.XMin, schedule.BCPhi, grid.BCDirichlet, liquid),
			wall(0, grid.XMax, schedule.BCPhi, grid.BCDirichlet, liquid),
			wall(0, grid.XMin, schedule.BCMu, grid.BCNeumann, nil),
			wall(0, grid.XMax, schedule.BCMu, grid.BCNeumann, nil),
			wall(6, grid.XMin, schedule.BCPhi, grid.BCDirichlet, []float64{1, 0, 0, 0}),
		}}
}

// A wall switched through SetDomainBCs (the restore path) leaves φsrc's
// ring as the old wall's image until the next fill: the step after the
// switch classifies the stale ring, and the step after that must re-read
// the freshly filled one rather than trust it, or the melt beside the new
// solid wall sleeps through its first change.
func TestDomainBCSwitchRereadsRing(t *testing.T) {
	c := lateralWallCase()
	tracked, full := c.sim(t, false), c.sim(t, true)
	for _, s := range []*Sim{tracked, full} {
		if err := s.RunSchedule(6, mkSched(t, c.events[:4]...), ScheduleHooks{}); err != nil {
			t.Fatal(err)
		}
		phi, mu := s.DomainBCs()
		phi[grid.XMin].Values = []float64{1, 0, 0, 0}
		if err := s.SetDomainBCs(phi, mu); err != nil {
			t.Fatal(err)
		}
		for range 8 {
			s.Run(1)
			proveSkips(t, s)
		}
	}
	requireSameTrajectory(t, tracked, full)
}
