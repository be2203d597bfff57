package solver

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
)

// parallel_test.go checks the sweep engine end-to-end: a simulation stepped
// with intra-block parallelism must match the serial simulation bit-for-bit
// for every kernel variant and overlap mode, and the steady-state timestep
// must not allocate in the halo-exchange pack/unpack path.

func parSim(t *testing.T, blocks, par int, v kernels.Variant, ov OverlapMode) *Sim {
	t.Helper()
	const edge = 16
	bg, err := grid.NewBlockGrid(blocks, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(edge) / 2 * p.Dx
	s, err := New(Config{Params: p, BG: bg, Variant: v, Overlap: ov, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParallelSimMatchesSerial(t *testing.T) {
	for _, v := range kernels.Variants {
		for _, par := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/par%d", v, par), func(t *testing.T) {
				ref := parSim(t, 1, 1, v, OverlapMu)
				defer ref.Close()
				ref.Run(3)

				s := parSim(t, 1, par, v, OverlapMu)
				defer s.Close()
				if s.engine == nil {
					t.Fatal("engine not engaged at parallelism > 1")
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
}

func TestParallelSimAllOverlapModes(t *testing.T) {
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		t.Run(ov.String(), func(t *testing.T) {
			ref := parSim(t, 1, 1, kernels.VarShortcut, ov)
			defer ref.Close()
			ref.Run(3)

			s := parSim(t, 1, 4, kernels.VarShortcut, ov)
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
	ref := parSim(t, 2, 1, kernels.VarShortcut, OverlapMu)
	defer ref.Close()
	ref.Run(3)

	s := parSim(t, 2, 4, kernels.VarShortcut, OverlapMu)
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

func TestSlabCountScheduler(t *testing.T) {
	s := parSim(t, 1, 8, kernels.VarShortcut, OverlapMu)
	defer s.Close()
	if got := s.slabCount(16); got != 4 { // 16 slices / minSlabSlices
		t.Errorf("slabCount(16) = %d, want 4 (min-slab bound)", got)
	}
	if got := s.slabCount(64); got != 8 { // worker bound
		t.Errorf("slabCount(64) = %d, want 8 (worker bound)", got)
	}
	if got := s.slabCount(3); got != 1 {
		t.Errorf("slabCount(3) = %d, want 1", got)
	}
}

func TestSteadyStateStepCommAllocFree(t *testing.T) {
	// The halo-exchange pack/unpack path of a steady-state timestep must
	// not allocate: after warm-up, Sim.Run(1) leaves the persistent pack
	// buffer count unchanged, and with the blocking overlap mode the
	// whole comm path stays off the allocator (AllocsPerRun counts every
	// allocation in the process; the residual budget below is the
	// per-step goroutine fan-out of forAllRanks, not the comm path).
	s := parSim(t, 2, 1, kernels.VarShortcut, OverlapNone)
	defer s.Close()
	s.Run(3) // warm-up: populate the buffer set

	before := s.World.PackAllocs()
	avg := testing.AllocsPerRun(10, func() { s.Run(1) })
	if got := s.World.PackAllocs(); got != before {
		t.Errorf("steady-state Run(1) allocated %d pack buffers, want 0", got-before)
	}
	// The two rank goroutines per step cost a handful of scheduler
	// objects; the pre-fix comm path allocated 12 buffers/step on top.
	if avg > 8 {
		t.Errorf("steady-state Run(1) allocates %.1f objects, want the comm path contribution to be zero (budget 8)", avg)
	}
}
