package solver

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
)

// parallel_test.go checks the sweep engine end-to-end: a simulation stepped
// with intra-block parallelism must match the serial simulation bit-for-bit
// in every overlap mode, however the awake slices are cut into slabs; no
// more workers than a rank's share may sweep at once; and the steady-state
// timestep must not allocate, neither in the halo-exchange pack/unpack path
// nor in the pooled sweep's slab claiming.

func parSim(t *testing.T, blocks, par int, ov OverlapMode) *Sim {
	t.Helper()
	const edge = 16
	bg, err := grid.NewBlockGrid(blocks, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(edge) / 2 * p.Dx
	s, err := New(Config{Params: p, BG: bg, Overlap: ov, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParallelSimMatchesSerial(t *testing.T) {
	for _, par := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("%v/par%d", kernels.VarShortcut, par), func(t *testing.T) {
			ref := parSim(t, 1, 1, OverlapMu)
			defer ref.Close()
			ref.Run(3)

			s := parSim(t, 1, par, OverlapMu)
			defer s.Close()
			if s.workersPerRank < 2 {
				t.Fatal("claim tasks not engaged at parallelism > 1")
			}
			s.Run(3)

			for r := 0; r < s.NumRanks(); r++ {
				if ok, maxd := s.RankFields(r).PhiSrc.InteriorEqual(ref.RankFields(r).PhiSrc, 0); !ok {
					t.Errorf("rank %d: φ differs from serial by %g", r, maxd)
				}
				if ok, maxd := s.RankFields(r).MuSrc.InteriorEqual(ref.RankFields(r).MuSrc, 0); !ok {
					t.Errorf("rank %d: µ differs from serial by %g", r, maxd)
				}
			}
		})
	}
}

func TestParallelSimAllOverlapModes(t *testing.T) {
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		t.Run(ov.String(), func(t *testing.T) {
			ref := parSim(t, 1, 1, ov)
			defer ref.Close()
			ref.Run(3)

			s := parSim(t, 1, 4, ov)
			defer s.Close()
			s.Run(3)

			if ok, maxd := s.RankFields(0).PhiSrc.InteriorEqual(ref.RankFields(0).PhiSrc, 0); !ok {
				t.Errorf("φ differs from serial by %g", maxd)
			}
			if ok, maxd := s.RankFields(0).MuSrc.InteriorEqual(ref.RankFields(0).MuSrc, 0); !ok {
				t.Errorf("µ differs from serial by %g", maxd)
			}
		})
	}
}

func TestParallelMultiBlockMatchesSerial(t *testing.T) {
	// Blocks and slabs compose: 2 blocks × 2 workers each.
	ref := parSim(t, 2, 1, OverlapMu)
	defer ref.Close()
	ref.Run(3)

	s := parSim(t, 2, 4, OverlapMu)
	defer s.Close()
	if s.workersPerRank != 2 {
		t.Fatalf("workersPerRank = %d, want 2", s.workersPerRank)
	}
	s.Run(3)

	for r := 0; r < s.NumRanks(); r++ {
		if ok, maxd := s.RankFields(r).PhiSrc.InteriorEqual(ref.RankFields(r).PhiSrc, 0); !ok {
			t.Errorf("rank %d: φ differs from serial by %g", r, maxd)
		}
		if ok, maxd := s.RankFields(r).MuSrc.InteriorEqual(ref.RankFields(r).MuSrc, 0); !ok {
			t.Errorf("rank %d: µ differs from serial by %g", r, maxd)
		}
	}
}

// bandSim builds one tracked 8×8×64 liquid block holding three 4-slice
// interface bands, so the awake set splits into three runs with pure melt
// asleep between them.
func bandSim(t *testing.T, par int) *Sim {
	t.Helper()
	bg, err := grid.NewBlockGrid(1, 1, 1, 8, 8, 64, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = 32 * p.Dx
	s, err := New(Config{Params: p, BG: bg, Overlap: OverlapMu, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	f := s.ranks[0].fields
	for _, z0 := range []int{8, 28, 48} {
		for z := z0; z < z0+4; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					f.PhiSrc.Set(core.Liquid, x, y, z, 0.5)
					f.PhiSrc.Set(x*3/8, x, y, z, 0.5)
				}
			}
		}
	}
	s.invalidateActivity()
	s.refreshGhosts()
	f.PhiDst.CopyFrom(f.PhiSrc)
	s.Run(1)
	if runs := len(s.ranks[0].act.runs); runs < 3 {
		t.Fatalf("awake set has %d runs, want the three bands apart", runs)
	}
	return s
}

// A tracked block whose awake set splits into several runs is cut into
// slabs run by run; every cut matches the serial sweep bit for bit.
func TestParallelSplitRunsMatchSerial(t *testing.T) {
	ref := bandSim(t, 1)
	ref.Run(20)
	for _, par := range []int{2, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			s := bandSim(t, par)
			if s.workersPerRank < 2 {
				t.Fatal("claim tasks not engaged at parallelism > 1")
			}
			s.Run(20)
			requireSameTrajectory(t, s, ref)
		})
	}
}

// A shrunk worker share bounds how many slabs sweep at once, even though
// the pool grew for the larger share and the awake set has more runs than
// the new share has workers.
func TestShrunkWorkerShareNotExceeded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, budget := range []int{2, 1} {
		t.Run(fmt.Sprintf("4to%d", budget), func(t *testing.T) {
			s := bandSim(t, 4)
			if err := s.SetWorkerBudget(budget); err != nil {
				t.Fatal(err)
			}
			s.gauge.Reset()
			s.Run(200)
			if got := s.gauge.Max(); got > budget {
				t.Errorf("%d workers swept at once under a share of %d", got, budget)
			}
		})
	}
}

func TestSlabCountScheduler(t *testing.T) {
	s := parSim(t, 1, 8, OverlapMu)
	defer s.Close()
	if got := s.claimTasks(16); got != 4 { // 16 slices / minSlabSlices
		t.Errorf("claimTasks(16) = %d, want 4 (min-slab bound)", got)
	}
	if got := s.claimTasks(64); got != 8 { // worker bound
		t.Errorf("claimTasks(64) = %d, want 8 (worker bound)", got)
	}
	if got := s.claimTasks(3); got != 1 {
		t.Errorf("claimTasks(3) = %d, want 1", got)
	}

	for _, tc := range []struct {
		runs [][2]int
		n    int
		want [][2]int
	}{
		// The 40³ front at two workers: eight 5-slice slabs.
		{[][2]int{{0, 40}}, 2, [][2]int{{0, 5}, {5, 10}, {10, 15}, {15, 20},
			{20, 25}, {25, 30}, {30, 35}, {35, 40}}},
		// Many workers on a short sweep: minSlabSlices bounds the cut.
		{[][2]int{{0, 16}}, 8, [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}}},
		// h = ⌈53/8⌉ = 7: a short run stays whole, longer runs are cut
		// into near-equal pieces of at least 7 slices.
		{[][2]int{{0, 3}, {10, 30}, {34, 64}}, 2, [][2]int{{0, 3}, {10, 20},
			{20, 30}, {34, 41}, {41, 49}, {49, 56}, {56, 64}}},
	} {
		total := 0
		for _, r := range tc.runs {
			total += r[1] - r[0]
		}
		got := cutSlabs(nil, tc.runs, total, tc.n)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("cutSlabs(%v, n=%d) = %v, want %v", tc.runs, tc.n, got, tc.want)
		}
	}

	// Over every run length and worker count: the slabs tile the runs in
	// order, none is thinner than minSlabSlices unless its run is, and a
	// sweep of runs at least h high gets at most slabsPerWorker·n slabs.
	for ln := 1; ln <= 70; ln++ {
		for n := 2; n <= 8; n++ {
			runs := [][2]int{{3, 3 + ln}}
			got := cutSlabs(nil, runs, ln, n)
			z := 3
			for _, sl := range got {
				if sl[0] != z || sl[1] <= sl[0] || sl[1]-sl[0] < min(minSlabSlices, ln) {
					t.Fatalf("ln=%d n=%d: bad slab %v in %v", ln, n, sl, got)
				}
				z = sl[1]
			}
			if z != 3+ln {
				t.Fatalf("ln=%d n=%d: slabs %v do not cover the run", ln, n, got)
			}
			if len(got) > slabsPerWorker*n {
				t.Fatalf("ln=%d n=%d: %d slabs, want ≤ %d", ln, n, len(got), slabsPerWorker*n)
			}
		}
	}
}

// stepAllocs is the exact allocation count of one steady-state Run(1) on
// a Sim with the given rank count: the step's forAllRanks fan-out, 2 +
// 2·ranks objects, the same under -race. The step guards allow exactly
// this, so one extra allocation per rank per step fails them.
func stepAllocs(ranks int) float64 { return float64(2 + 2*ranks) }

func TestSteadyStateStepCommAllocFree(t *testing.T) {
	// The halo-exchange pack/unpack path of a steady-state timestep must
	// not allocate, in either overlap mode: after warm-up, Sim.Run(1)
	// leaves the persistent pack buffer count unchanged, and the whole comm
	// path stays off the allocator — under OverlapMu that includes queueing
	// and joining each rank's exchange task on the pool (AllocsPerRun
	// counts every allocation in the process; the budget is the fan-out
	// of stepAllocs, not the comm path).
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		t.Run(ov.String(), func(t *testing.T) {
			s := parSim(t, 2, 1, ov)
			defer s.Close()
			s.Run(3) // warm-up: populate the buffer set

			before := s.World.PackAllocs()
			avg := testing.AllocsPerRun(10, func() { s.Run(1) })
			if got := s.World.PackAllocs(); got != before {
				t.Errorf("steady-state Run(1) allocated %d pack buffers, want 0", got-before)
			}
			if want := stepAllocs(2); avg > want {
				t.Errorf("steady-state Run(1) allocates %.1f objects, want the comm path contribution to be zero (budget %g)", avg, want)
			}
		})
	}
}

func TestPooledStepClaimAllocFree(t *testing.T) {
	// Claiming slabs off the rank's list allocates nothing per step: the
	// pooled single-block step stays within stepAllocs.
	s := parSim(t, 1, 2, OverlapMu)
	defer s.Close()
	if s.workersPerRank < 2 {
		t.Fatal("claim tasks not engaged at parallelism 2")
	}
	s.Run(3) // warm-up: slab list, tracker scratch and pack buffers
	if avg, want := testing.AllocsPerRun(10, func() { s.Run(1) }), stepAllocs(1); avg > want {
		t.Errorf("pooled Run(1) allocates %.1f objects, want the claim path's contribution to be zero (budget %g)", avg, want)
	}
}
