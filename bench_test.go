// Benchmarks regenerating the paper's evaluation (§5), one benchmark family
// per figure. Each kernel benchmark reports MLUP/s ("million lattice cell
// updates per second"), the paper's unit. cmd/benchfig prints the same data
// as figure-shaped tables at paper-sized blocks; these testing.B targets
// use moderate blocks so `go test -bench=.` completes quickly. Whole-step,
// scaling, halo, mesh and checkpoint timings are measured with run-to-run
// spread by the repo benchmark (bench/README.md), not here.
package phasefield

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/solver"
)

const benchEdge = 20 // block edge for kernel benchmarks

// benchSetup builds a single-block field bundle in the given composition.
func benchSetup(b *testing.B, sc solver.Scenario) (*kernels.Fields, *kernels.Ctx, *kernels.Scratch) {
	b.Helper()
	bg, err := grid.NewBlockGrid(1, 1, 1, benchEdge, benchEdge, benchEdge, [3]bool{true, true, false})
	if err != nil {
		b.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(benchEdge) / 2 * p.Dx
	sim, err := solver.New(solver.Config{Params: p, BG: bg})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.InitScenario(sc); err != nil {
		b.Fatal(err)
	}
	f := sim.RankFields(0)
	sc2 := kernels.NewScratch(benchEdge, benchEdge)
	ctx := &kernels.Ctx{P: p}
	// Produce a valid φdst so the µ-kernel's ∂φ/∂t is meaningful.
	kernels.PhiSweep(ctx, f, sc2, kernels.VarShortcut)
	bcs := bg.BlockBCs(0, grid.DirectionalSolidification([]float64{1, 0, 0, 0}))
	bcs.Apply(f.PhiDst)
	return f, ctx, sc2
}

func reportMLUPs(b *testing.B) {
	cells := float64(benchEdge * benchEdge * benchEdge)
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUP/s")
}

// --- Figure 6: oracle vs production for both kernels -------------------

func BenchmarkFig6Phi(b *testing.B) {
	for _, v := range kernels.Variants {
		for _, sc := range []solver.Scenario{solver.ScenarioInterface, solver.ScenarioLiquid, solver.ScenarioSolid} {
			b.Run(fmt.Sprintf("%s/%s", v, sc), func(b *testing.B) {
				f, ctx, scratch := benchSetup(b, sc)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernels.PhiSweep(ctx, f, scratch, v)
				}
				reportMLUPs(b)
			})
		}
	}
}

func BenchmarkFig6Mu(b *testing.B) {
	for _, v := range kernels.Variants {
		for _, sc := range []solver.Scenario{solver.ScenarioInterface, solver.ScenarioLiquid, solver.ScenarioSolid} {
			b.Run(fmt.Sprintf("%s/%s", v, sc), func(b *testing.B) {
				f, ctx, scratch := benchSetup(b, sc)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernels.MuSweep(ctx, f, scratch, v)
				}
				reportMLUPs(b)
			})
		}
	}
}

// --- Figure 8: communication hiding --------------------------------------

func BenchmarkFig8Comm(b *testing.B) {
	for _, mode := range []solver.OverlapMode{solver.OverlapNone, solver.OverlapMu} {
		b.Run(mode.String(), func(b *testing.B) {
			bg, err := grid.NewBlockGrid(2, 2, 1, benchEdge, benchEdge, benchEdge, [3]bool{true, true, false})
			if err != nil {
				b.Fatal(err)
			}
			p := core.DefaultParams()
			p.Temp.Z0 = float64(benchEdge) / 2 * p.Dx
			sim, err := solver.New(solver.Config{Params: p, BG: bg, Overlap: mode})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.InitScenario(solver.ScenarioInterface); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			m := sim.RunMeasured(b.N)
			b.StopTimer()
			perStep := 1e3 / float64(b.N*4)
			b.ReportMetric(m.CommPhi.Total().Seconds()*perStep, "phi-comm-ms/step")
			b.ReportMetric(m.CommMu.Total().Seconds()*perStep, "mu-comm-ms/step")
		})
	}
}

// --- Figure 9: weak-scaling model ----------------------------------------

func BenchmarkFig9Model(b *testing.B) {
	cores := perfmodel.PowersOfTwo(0, 18)
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, m := range perfmodel.Machines() {
			pts := perfmodel.WeakScaling(m, perfmodel.ScnInterface, 60, cores)
			sink += pts[len(pts)-1].MLUPsPerCore
		}
	}
	_ = sink
}

func BenchmarkSimplexProjection(b *testing.B) {
	phi := [core.NPhases]float64{0.4, 0.35, 0.3, 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := phi
		core.ProjectSimplex(&p)
	}
}
