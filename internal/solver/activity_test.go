package solver

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/schedule"
)

// activity_test.go — the equivalence suite for per-slice activity
// tracking. The contract under test is absolute: a run that skips sleeping
// slices is bit-identical to the same run sweeping everything, for every
// overlap mode, parallelism level and rank decomposition, and across every
// way the outside world can poke a sleeping slice (nucleation bursts, wall
// ramps, window shifts).

// actSim builds a production-style tall-melt simulation: Voronoi nuclei in
// the bottom ~2ε slices, pure melt above — the composition where activity
// tracking earns its keep, since the upper bulk sleeps.
func actSim(t testing.TB, px, py, pz, bx, by, bz int, ov OverlapMode, disable bool, par int) *Sim {
	t.Helper()
	bg, err := grid.NewBlockGrid(px, py, pz, bx, by, bz, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	_, _, nz := bg.GlobalCells()
	p.Temp.Z0 = float64(nz) / 2 * p.Dx
	s, err := New(Config{Params: p, BG: bg, Overlap: ov,
		DisableActiveSweep: disable, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioProduction); err != nil {
		t.Fatal(err)
	}
	return s
}

// requireBitEqual compares two gathered global fields bit for bit — not
// within a tolerance. Activity tracking promises exactness, so the first
// differing bit is a failure.
func requireBitEqual(t *testing.T, name string, got, want *grid.Field) {
	t.Helper()
	if got.NX != want.NX || got.NY != want.NY || got.NZ != want.NZ {
		t.Fatalf("%s: shape %dx%dx%d vs %dx%dx%d", name,
			got.NX, got.NY, got.NZ, want.NX, want.NY, want.NZ)
	}
	for c := 0; c < got.NComp; c++ {
		for z := 0; z < got.NZ; z++ {
			for y := 0; y < got.NY; y++ {
				for x := 0; x < got.NX; x++ {
					g, w := got.At(c, x, y, z), want.At(c, x, y, z)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: comp %d cell (%d,%d,%d): %x != %x (%g vs %g)",
							name, c, x, y, z, math.Float64bits(g), math.Float64bits(w), g, w)
					}
				}
			}
		}
	}
}

// requireSameTrajectory runs nothing — it just compares the current state
// of a tracked and an always-full simulation bit for bit.
func requireSameTrajectory(t *testing.T, tracked, full *Sim) {
	t.Helper()
	requireBitEqual(t, "phi", tracked.GatherGlobalPhi(), full.GatherGlobalPhi())
	requireBitEqual(t, "mu", tracked.GatherGlobalMu(), full.GatherGlobalMu())
}

// The production kernels must produce the identical trajectory with and
// without activity tracking, and the tall-melt domain must actually
// engage the tracker (active fraction < 1) — a suite that compares two
// full sweeps proves nothing.
func TestActiveSweepBitIdenticalAllVariants(t *testing.T) {
	t.Run(kernels.VarShortcut.String(), func(t *testing.T) {
		tracked := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
		full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
		tracked.Run(6)
		full.Run(6)
		requireSameTrajectory(t, tracked, full)
		if af := tracked.ActiveFraction(); !(af < 1) || af <= 0 {
			t.Errorf("active fraction = %g, want engaged (0 < af < 1)", af)
		}
		if af := full.ActiveFraction(); af != 1 {
			t.Errorf("disabled tracker reports active fraction %g, want 1", af)
		}
	})
}

// The two overlap modes interleave halo exchange with the sweeps in
// different orders; the sleep predicate must hold under each one. Each
// mode is compared against its own always-full twin (cross-mode equality
// is TestOverlapModesEquivalent).
func TestActiveSweepAllOverlapModes(t *testing.T) {
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		t.Run(ov.String(), func(t *testing.T) {
			tracked := actSim(t, 1, 1, 2, 8, 8, 20, ov, false, 1)
			full := actSim(t, 1, 1, 2, 8, 8, 20, ov, true, 1)
			tracked.Run(6)
			full.Run(6)
			requireSameTrajectory(t, tracked, full)
		})
	}
}

// Skip decisions must be a pure function of step-start field state —
// never of how many workers happen to sweep. Every parallelism level must
// reproduce the serial tracked run bit for bit.
func TestActiveSweepParallelismIndependent(t *testing.T) {
	serial := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
	serial.Run(6)
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		s := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, par)
		s.Run(6)
		s.Sync()
		requireSameTrajectory(t, s, serial)
		s.Close()
	}
	// And the whole family equals the always-full sweep.
	full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
	full.Run(6)
	requireSameTrajectory(t, serial, full)
}

// Sleeping saves compute, never halo traffic: a z-split decomposition
// whose upper block is pure melt must stay bit-identical to its
// always-full twin and send exactly the same frames and bytes on every
// (rank, peer, tag) stream, in both overlap modes.
func TestActiveSweepHaloTrafficUnchanged(t *testing.T) {
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		t.Run(ov.String(), func(t *testing.T) {
			tracked := actSim(t, 1, 1, 2, 8, 8, 20, ov, false, 1)
			full := actSim(t, 1, 1, 2, 8, 8, 20, ov, true, 1)
			tracked.Run(10)
			full.Run(10)
			requireSameTrajectory(t, tracked, full)
			if af := tracked.ActiveFraction(); !(af < 1) {
				t.Fatalf("active fraction = %g, want the tracker engaged", af)
			}

			got, want := tracked.World.PeerFlows(), full.World.PeerFlows()
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("tracked run has %d flows, full run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("flow %d: tracked %+v, full %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// A tracked tall-melt column step stays off the allocator. The proxy
// check runs once per candidate slice per step, so anything it allocates
// scales with the column height; the budget is the per-step fan-out of
// stepAllocs.
func TestActiveSweepStepAllocFree(t *testing.T) {
	s := actSim(t, 1, 1, 1, 8, 8, 64, OverlapNone, false, 2)
	defer s.Close()
	s.Run(3) // warm-up: tracker scratch and pack buffers
	if af := s.ActiveFraction(); !(af < 1) {
		t.Fatalf("active fraction = %g, want the tracker engaged", af)
	}
	if avg, want := testing.AllocsPerRun(10, func() { s.Run(1) }), stepAllocs(1); avg > want {
		t.Errorf("tracked Run(1) allocates %.1f objects, want the tracker's contribution to be zero (budget %g)", avg, want)
	}
}

// Adversarial wake-up: a nucleation burst fired into the sleeping melt
// bulk repaints slices that have been asleep for many steps. The tracker
// must re-derive and wake them — a stale skip would freeze the new nuclei.
func TestBurstWakesSleepingSlab(t *testing.T) {
	tracked := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
	full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
	burst := schedule.NucleationBurst{Step: 4, Count: 3, Phase: -1,
		Radius: 2.5, ZMin: 26, ZMax: 34, Seed: 11}
	for _, s := range []*Sim{tracked, full} {
		s.Run(4)
		if s.ActiveFraction() < 1 && s == full {
			t.Fatal("full sim tracking engaged")
		}
		if _, err := s.ApplyBurst(burst); err != nil {
			t.Fatal(err)
		}
		s.Run(4)
	}
	requireSameTrajectory(t, tracked, full)
}

// Adversarial wake-up: a Dirichlet wall ramp on the top boundary changes
// ghost bytes adjacent to slices that sleep against that wall. Every ramp
// step must reach the trajectory exactly as it does with tracking off.
func TestSetBCRampWakesSleepingBoundary(t *testing.T) {
	ev := schedule.SetBC{Step: 3, Over: 4, Face: grid.ZMax, Field: schedule.BCMu,
		Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.3, -0.15}}
	tracked := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
	full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
	for _, s := range []*Sim{tracked, full} {
		if err := s.RunSchedule(10, mkSched(t, ev), ScheduleHooks{}); err != nil {
			t.Fatal(err)
		}
	}
	requireSameTrajectory(t, tracked, full)
}

// Adversarial wake-up: a window shift scrolls every slice — including
// sleeping ones — to a new z (and a new analytic temperature). The
// activity map must not survive the scroll.
func TestWindowShiftScrollsSleepingSlab(t *testing.T) {
	tracked := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
	full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
	for _, s := range []*Sim{tracked, full} {
		s.Run(4)
		s.ShiftWindow(5)
		s.Run(4)
	}
	requireSameTrajectory(t, tracked, full)
	if tracked.WindowShift() != 5 || full.WindowShift() != 5 {
		t.Fatalf("window shifts %d/%d, want 5", tracked.WindowShift(), full.WindowShift())
	}
}

// FrontHeight agrees between a tracked simulation (which trusts slept
// slices' classification) and an always-full one (which scans every cell),
// and the tracked scan allocates nothing.
func TestFrontHeightUsesActivityAndIsAllocFree(t *testing.T) {
	tracked := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
	full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
	tracked.Run(5)
	full.Run(5)
	if th, fh := tracked.FrontHeight(), full.FrontHeight(); th != fh {
		t.Fatalf("FrontHeight %d (tracked) != %d (full)", th, fh)
	}
	for name, s := range map[string]*Sim{"tracked": tracked, "full": full} {
		if allocs := testing.AllocsPerRun(20, func() { s.FrontHeight() }); allocs != 0 {
			t.Errorf("%s FrontHeight allocates %g per call", name, allocs)
		}
	}
}

// The wake margin is the constant wakeMargin in production; any legal
// margin (≥ the stencil radius of 1) must leave the trajectory untouched (a
// wider margin only sleeps less). The test varies the tracker's unexported
// field before the first step.
func TestWakeMarginWidthsEquivalent(t *testing.T) {
	ref := actSim(t, 1, 1, 1, 8, 8, 32, OverlapNone, true, 1)
	ref.Run(5)
	for _, m := range []int{1, 2, 4} {
		bg, err := grid.NewBlockGrid(1, 1, 1, 8, 8, 32, [3]bool{true, true, false})
		if err != nil {
			t.Fatal(err)
		}
		p := core.DefaultParams()
		p.Temp.Z0 = 16 * p.Dx
		s, err := New(Config{Params: p, BG: bg})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s.ranks {
			r.act.margin = m
		}
		if err := s.InitScenario(ScenarioProduction); err != nil {
			t.Fatal(err)
		}
		s.Run(5)
		requireSameTrajectory(t, s, ref)
	}
}

// tiltMu overwrites µ with a z-gradient tilted along x, so no slice's µ
// is uniform, and drops the activity map as every writer outside the step
// protocol does.
func tiltMu(s *Sim) {
	for _, r := range s.ranks {
		mu := r.fields.MuSrc
		for k := 0; k < mu.NComp; k++ {
			for z := 0; z < mu.NZ; z++ {
				for y := 0; y < mu.NY; y++ {
					row := mu.Row(k, y, z)[mu.G:]
					for x := 0; x < mu.NX; x++ {
						row[x] = float64(k+1) * (1e-3*float64(r.zOff+z)/float64(mu.NZ) + 1e-4*float64(x))
					}
				}
			}
		}
	}
	s.invalidateActivity()
	s.refreshGhosts()
}

// muUniform reports whether slice z of f is bitwise-uniform per component.
func muUniform(f *grid.Field, z int) bool {
	_, ok := classifyMu(f, z, false)
	return ok
}

// A melt slice whose µ is not uniform still sleeps its φ-sweep (the
// production kernel's bulk-cell test never reads µ) and keeps its µ-sweep
// awake. The tracked run stays bit-identical to its untracked twin, and
// every slice a step slept carries identical φ interiors in both buffers
// into the next step.
func TestPhiSleepsOverNonUniformMu(t *testing.T) {
	t.Run(kernels.VarShortcut.String(), func(t *testing.T) {
		tracked := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, false, 1)
		full := actSim(t, 1, 1, 1, 8, 8, 40, OverlapNone, true, 1)
		tiltMu(tracked)
		tiltMu(full)
		a := &tracked.ranks[0].act
		nonUniform := 0 // φ-slept slices whose step-start µ was not uniform
		for step := 0; step < 8; step++ {
			tracked.Run(1)
			full.Run(1)
			// After the swap, the dst buffers hold the step-start state.
			f := tracked.ranks[0].fields
			for z, slept := range a.phiSleep {
				if !slept {
					continue
				}
				if !muUniform(f.MuDst, z) {
					nonUniform++
					if a.muSleep[z] {
						t.Fatalf("step %d: µ slept on slice %d of non-uniform µ", step, z)
					}
				}
				for c := 0; c < f.PhiSrc.NComp; c++ {
					for y := 0; y < f.PhiSrc.NY; y++ {
						src := f.PhiSrc.Row(c, y, z)[f.PhiSrc.G:][:f.PhiSrc.NX]
						dst := f.PhiDst.Row(c, y, z)[f.PhiDst.G:][:f.PhiDst.NX]
						for x := range src {
							if math.Float64bits(src[x]) != math.Float64bits(dst[x]) {
								t.Fatalf("step %d: slept slice %d comp %d (%d,%d): src %x dst %x",
									step, z, c, x, y, math.Float64bits(src[x]), math.Float64bits(dst[x]))
							}
						}
					}
				}
			}
		}
		requireSameTrajectory(t, tracked, full)
		// The top slice is melt: a fixed point of the kernel even at µ = NaN.
		r := tracked.ranks[0]
		nanSleeps := a.phiProxySleeps(r, r.fields.PhiSrc.NZ-1, core.Liquid, &nanMu)
		t.Logf("%d φ-slept slice-steps over non-uniform µ", nonUniform)
		if nonUniform == 0 || !nanSleeps {
			t.Errorf("φ slept on %d slice-steps of non-uniform µ (NaN proxy sleeps: %v), want the NaN-µ proxy engaged", nonUniform, nanSleeps)
		}
	})
}

// A melt column whose µ varies only in z holds each slice at its own
// uniform value. Such a slice sleeps its µ-sweep when it and both z
// neighbours are uniform over their rings, each at its own value (the µ
// proxy's z-ghost slices take the neighbours' values), and the run stays
// bit-identical to the untracked one in both overlap modes.
func TestPlanarMuSleeps(t *testing.T) {
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		t.Run(ov.String(), func(t *testing.T) {
			tracked := actSim(t, 1, 1, 1, 8, 8, 40, ov, false, 1)
			full := actSim(t, 1, 1, 1, 8, 8, 40, ov, true, 1)
			for _, s := range []*Sim{tracked, full} {
				mu := s.ranks[0].fields.MuSrc
				for k := 0; k < mu.NComp; k++ {
					for z := 0; z < mu.NZ; z++ {
						for y := 0; y < mu.NY; y++ {
							row := mu.Row(k, y, z)[mu.G:][:mu.NX]
							for x := range row {
								row[x] = float64(k+1) * 1e-3 * float64(z) / float64(mu.NZ)
							}
						}
					}
				}
				s.invalidateActivity()
				s.refreshGhosts()
			}
			a := &tracked.ranks[0].act
			planar := 0 // µ-slept slices whose value differs from a z neighbour's
			for range 10 {
				tracked.Run(1)
				full.Run(1)
				for z, slept := range a.muSleep {
					if slept && (a.muRVal[z] != a.muRVal[z+1] || a.muRVal[z+2] != a.muRVal[z+1]) {
						planar++
					}
				}
			}
			requireSameTrajectory(t, tracked, full)
			if planar == 0 {
				t.Error("no µ-slice of the planar melt slept beside a neighbour of another value")
			}
		})
	}
}

// A slice that slept carries its interior into the next step, never its
// ghost ring: a µ bump placed in the melt of one x-block diffuses across
// that block into the ring of the other block's sleeping slices, which
// must wake for it.
func TestCarriedSliceRereadsMuRing(t *testing.T) {
	tracked := actSim(t, 2, 1, 1, 8, 8, 40, OverlapNone, false, 1)
	full := actSim(t, 2, 1, 1, 8, 8, 40, OverlapNone, true, 1)
	for _, s := range []*Sim{tracked, full} {
		mu := s.ranks[1].fields.MuSrc
		for k := 0; k < mu.NComp; k++ {
			for z := 28; z < 32; z++ {
				for y := 0; y < mu.NY; y++ {
					row := mu.Row(k, y, z)[mu.G:]
					row[3] += 1e-3
					row[4] += 1e-3
				}
			}
		}
		s.invalidateActivity()
		s.refreshGhosts()
	}
	tracked.Run(2)
	if a := &tracked.ranks[0].act; !a.muSleep[30] {
		t.Fatal("rank 0's melt slice 30 is awake before the bump reaches its ring")
	}
	tracked.Run(8)
	full.Run(10)
	requireSameTrajectory(t, tracked, full)
}
