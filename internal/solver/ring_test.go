package solver

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/schedule"
)

// ring_test.go — the carried rings (activity.go): on a rank whose x/y
// ghost ring is filled from its own block, the φdst fill keeps the ring of
// a slice that slept this step and the last, derivePhi skips the ring
// re-read of a slice that slept last step, and a slept µ-slice's broadcast
// ring is kept through the µ fill and trusted by the next deriveMu. All
// rest on the ring being the boundary image of the slice's own interior;
// proveSkips checks that after every step.

// proveSkips checks, after a step, what the tracker skipped or will skip
// on every ring-local rank. φsrc is the buffer the step's fill wrote: a
// full x/y fill of a copy must reproduce it bit for bit, kept rings
// included. And every slice that slept, whose ring the next derivation
// will not re-read, must hold its vertex on that ring. Every µ-slice whose
// ring the µ fill keeps (muKeep) must hold its broadcast value over its
// interior and ring, and a full x/y fill must write those same bytes; under
// OverlapNone µsrc was filled at the end of the step, so the whole field
// must match. No rank that is not ring-local keeps a µ ring. It returns the
// number of kept φ and µ rings.
func proveSkips(t *testing.T, s *Sim) (kept, muKept int) {
	t.Helper()
	for _, r := range s.ranks {
		a := &r.act
		if !a.ringLocal {
			for z, k := range a.muKeep {
				if k {
					t.Fatalf("step %d rank %d: µ ring of slice %d kept on a rank with a remote x/y face", s.step, r.id, z)
				}
			}
			continue
		}
		f := r.fields.PhiSrc
		full := f.Clone()
		r.phiBCs.ApplyAxis(full, 0, true, true, nil)
		r.phiBCs.ApplyAxis(full, 1, true, true, nil)
		requireSameCells(t, s, r, "φ", f.Data, full.Data)
		for z, slept := range a.phiSleep {
			if a.keep[z] {
				kept++
			}
			if slept && a.prevImaged && !phiAt(f, z, a.vertex[z+1], false, true) {
				t.Fatalf("step %d rank %d: slept slice %d left vertex %d on its ring, which goes unread",
					s.step, r.id, z, a.vertex[z+1])
			}
		}
		mu := r.fields.MuSrc
		fullMu := mu.Clone()
		r.muBCs.ApplyAxis(fullMu, 0, true, true, nil)
		r.muBCs.ApplyAxis(fullMu, 1, true, true, nil)
		if s.Cfg.Overlap == OverlapNone {
			requireSameCells(t, s, r, "µ", mu.Data, fullMu.Data)
		}
		n := (mu.NX + 2*mu.G) * (mu.NY + 2*mu.G)
		for z, k := range a.muKeep {
			if !k {
				continue
			}
			muKept++
			if !muAt(mu, z, &a.muBcast[z], true, true) {
				t.Fatalf("step %d rank %d: kept µ slice %d does not hold its broadcast value %v", s.step, r.id, z, a.muBcast[z])
			}
			for c := 0; c < mu.NComp; c++ {
				i := mu.Idx(c, -mu.G, -mu.G, z)
				requireSameCells(t, s, r, "kept µ ring", mu.Data[i:i+n], fullMu.Data[i:i+n])
			}
		}
	}
	return kept, muKept
}

// requireSameCells compares a field's cells after the step's fill with a
// full fill's, bit for bit.
func requireSameCells(t *testing.T, s *Sim, r *rank, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d rank %d: %s cell %d holds %v after the fill, a full fill writes %v",
				s.step, r.id, what, i, got[i], want[i])
		}
	}
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
	setup      func(*Sim) // applied after the scenario, to both runs
	muRings    bool       // slept µ-slices keep their rings through the fill
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
	s, err := New(Config{Params: p, BG: bg, Overlap: c.overlap,
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
	if c.setup != nil {
		c.setup(s)
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
// ranks with remote z faces), a lateral wall switch, a lateral Dirichlet µ
// wall and a two-block column whose µ differs across the x seam, with
// every skip proved at every step (proveSkips). The trajectory must equal
// the untracked one, the ring-local shapes must keep φ rings at all, and
// µ rings are kept exactly where muRings says: on ring-local ranks whose
// µ x/y faces are periodic or Neumann, once µ-slices sleep.
func TestKeptRingsMatchFullFill(t *testing.T) {
	cases := []ringCase{
		{name: "sparse_column", nx: 8, ny: 8, nz: 48, grid: [3]int{1, 1, 1}, production: true,
			window: 7.5 / 48, overlap: OverlapMu, par: 2, steps: 20, muRings: true},
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
			overlap: OverlapMu, par: 2, steps: 20, muRings: true},
		lateralWallCase(),
		muWallCase(),
		muSeamCase(),
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracked, full := c.sim(t, false), c.sim(t, true)
			kept, muKept := 0, 0
			prove := func(int) bool {
				k, mk := proveSkips(t, tracked)
				kept += k
				muKept += mk
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
			if c.muRings != (muKept > 0) {
				t.Errorf("µ rings expected %v, but %d kept", c.muRings, muKept)
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
		overlap: OverlapNone, par: 1, steps: 14, muRings: true, events: []schedule.Event{
			wall(0, grid.XMin, schedule.BCPhi, grid.BCDirichlet, liquid),
			wall(0, grid.XMax, schedule.BCPhi, grid.BCDirichlet, liquid),
			wall(0, grid.XMin, schedule.BCMu, grid.BCNeumann, nil),
			wall(0, grid.XMax, schedule.BCMu, grid.BCNeumann, nil),
			wall(6, grid.XMin, schedule.BCPhi, grid.BCDirichlet, []float64{1, 0, 0, 0}),
		}}
}

// muWallCase holds Dirichlet µ x walls at the melt's initial µ, so at the
// first step the melt slices are uniform over their rings and sleep. The
// broadcast then carries the drift, and the walls do not: every later fill
// must rewrite the ring with the wall value, which wakes those slices.
func muWallCase() ringCase {
	wall := func(f grid.Face) schedule.SetBC {
		return schedule.SetBC{Face: f, Field: schedule.BCMu, Kind: grid.BCDirichlet, To: []float64{0, 0}}
	}
	return ringCase{name: "mu_wall", nx: 8, ny: 8, nz: 40, grid: [3]int{1, 1, 1}, production: true,
		overlap: OverlapMu, par: 2, steps: 12, events: []schedule.Event{wall(grid.XMin), wall(grid.XMax)}}
}

// muSeamCase is a two-block melt column whose upper µ is raised inside
// block 1 away from its x faces: block 0's slices there start uniform over
// their rings and sleep, and the raised µ then diffuses across the x seam
// into the rings they carry, which must wake them.
func muSeamCase() ringCase {
	return ringCase{name: "mu_seam_x", nx: 16, ny: 8, nz: 40, grid: [3]int{2, 1, 1}, production: true,
		overlap: OverlapMu, par: 1, steps: 12, setup: func(s *Sim) {
			for _, r := range s.ranks {
				if r.id != 1 {
					continue
				}
				mu := r.fields.MuSrc
				for k := 0; k < mu.NComp; k++ {
					for z := 24; z < mu.NZ; z++ {
						for y := 0; y < mu.NY; y++ {
							row := mu.Row(k, y, z)[mu.G:]
							for x := 2; x < mu.NX-2; x++ {
								row[x] += 1e-3 * float64(k+1)
							}
						}
					}
				}
			}
			s.invalidateActivity()
			s.refreshGhosts()
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

// A schedule advanced one step per RunSchedule call re-applies its settled
// x-wall SetBCs at every entry. A face that already holds its prescription
// changes nothing, so the tracker keeps its carry and rings across calls:
// fourteen one-step calls match one fourteen-step call bit for bit, keep
// φ and µ rings, and log each event once.
func TestChunkedScheduleKeepsRings(t *testing.T) {
	c := lateralWallCase()
	events := c.events[:4] // the walls settled at step 0
	chunked, whole := c.sim(t, false), c.sim(t, false)
	kept, muKept := 0, 0
	for range c.steps {
		if err := chunked.RunSchedule(1, mkSched(t, events...), ScheduleHooks{}); err != nil {
			t.Fatal(err)
		}
		k, mk := proveSkips(t, chunked)
		kept += k
		muKept += mk
	}
	if err := whole.RunSchedule(c.steps, mkSched(t, events...), ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}
	requireSameTrajectory(t, chunked, whole)
	if kept == 0 || muKept == 0 {
		t.Errorf("%d one-step calls kept %d φ and %d µ slice rings, want both > 0", c.steps, kept, muKept)
	}
	if got := len(chunked.AppliedEvents()); got != len(events) {
		t.Errorf("audit log holds %d events, want %d", got, len(events))
	}
}
