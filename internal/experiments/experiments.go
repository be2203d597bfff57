// Package experiments regenerates the tables and figures of the paper's
// evaluation (§5): the oracle-vs-production ends of the optimization ladder
// (Fig. 6), intranode scaling (Fig. 7), communication hiding (Fig. 8), weak
// scaling on the three machines (Fig. 9), and the roofline/in-core analysis
// of §5.1.1. The vectorization-strategy comparison (Fig. 5) and the ladder's
// middle rungs were removed with the kernels they measured; their last
// measurements are recorded at Fig6. Single-core and intranode numbers
// are measured live from the Go kernels; extreme-scale curves come from the
// calibrated analytic models in internal/perfmodel (see DESIGN.md for the
// substitution rationale).
//
// The §3.2 hierarchical mesh reduction (mesh.Reduce/Stitch: per-block
// extraction, local coarsening, pairwise log₂(P) stitch-and-coarsen
// rounds) was removed after one in-process measurement against the
// gather path (Simulation.ExtractInterfaces, then mesh.Simplify per
// phase). Setup: 32³ DefaultConfig front, seed 1, 14 steps, a target of
// 500 triangles per phase, 2 vCPU. The per-rank leg copied every rank's
// ghost-extended φ block, Neumann-filled its domain faces, extracted the
// three phases of all ranks at once (one goroutine per rank) and reduced
// each phase to the same target; the legs alternated, 30 rounds each, two
// sessions. Medians and IQRs, gather → per-rank:
//
//	1×1: 89.5 ms (IQR 13.3) → 117.3 ms (IQR 19.9); 96.8 (10.1) → 133.8 (13.5)
//	2×2: 89.7 ms (IQR 10.0) →  91.9 ms (IQR 13.9); 90.1 (12.1) →  90.6 (11.4)
//
// Both legs ended at 1500 triangles (1499 per-rank on 1×1). Per-rank was
// no cheaper on 2×2 and a third slower on 1×1, so one extraction of the
// gathered field is the only output path.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/perfmodel"
	"repro/internal/solver"
)

// Scenarios benchmarked throughout §5.1.
var Scenarios = []solver.Scenario{solver.ScenarioInterface, solver.ScenarioLiquid, solver.ScenarioSolid}

// benchFields prepares a single-block field set filled with the scenario.
func benchFields(edge int, sc solver.Scenario) (*kernels.Fields, *kernels.Ctx, grid.BoundarySet, error) {
	bg, err := grid.NewBlockGrid(1, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		return nil, nil, grid.BoundarySet{}, err
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(edge) / 2 * p.Dx
	sim, err := solver.New(solver.Config{Params: p, BG: bg})
	if err != nil {
		return nil, nil, grid.BoundarySet{}, err
	}
	if err := sim.InitScenario(sc); err != nil {
		return nil, nil, grid.BoundarySet{}, err
	}
	f := sim.RankFields(0)
	ctx := &kernels.Ctx{P: p}
	bcs := bg.BlockBCs(0, grid.DirectionalSolidification([]float64{1, 0, 0, 0}))
	return f, ctx, bcs, nil
}

// MeasurePhiVariant times the φ-kernel of one variant and returns MLUP/s.
func MeasurePhiVariant(v kernels.Variant, sc solver.Scenario, edge, steps int) (float64, error) {
	f, ctx, bcs, err := benchFields(edge, sc)
	if err != nil {
		return 0, err
	}
	scch := kernels.NewScratch(edge, edge)
	kernels.PhiSweep(ctx, f, scch, v)
	bcs.Apply(f.PhiDst)
	best := 0.0
	for trial := 0; trial < benchTrials; trial++ {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			kernels.PhiSweep(ctx, f, scch, v)
		}
		if r := mlups(edge, steps, time.Since(t0)); r > best {
			best = r
		}
	}
	return best, nil
}

// MeasureMuVariant times the µ-kernel of one variant and returns MLUP/s.
func MeasureMuVariant(v kernels.Variant, sc solver.Scenario, edge, steps int) (float64, error) {
	f, ctx, bcs, err := benchFields(edge, sc)
	if err != nil {
		return 0, err
	}
	scch := kernels.NewScratch(edge, edge)
	// One φ sweep so that φdst ≠ φsrc at the front (∂φ/∂t ≠ 0).
	kernels.PhiSweep(ctx, f, scch, kernels.VarShortcut)
	bcs.Apply(f.PhiDst)
	kernels.MuSweep(ctx, f, scch, v) // warm-up
	best := 0.0
	for trial := 0; trial < benchTrials; trial++ {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			kernels.MuSweep(ctx, f, scch, v)
		}
		if r := mlups(edge, steps, time.Since(t0)); r > best {
			best = r
		}
	}
	return best, nil
}

// benchTrials is the best-of-N trial count shielding the single-core
// measurements from scheduler noise.
const benchTrials = 3

func mlups(edge, steps int, el time.Duration) float64 {
	cells := float64(edge * edge * edge)
	return cells * float64(steps) / el.Seconds() / 1e6
}

// Fig6 regenerates the two ends of the optimization ladder — the emulated
// general-purpose code and the production kernels — for both kernels across
// the three compositions, and reports the production speedup.
//
// The middle rungs and the Fig. 5 vectorization strategies were removed
// after one last measurement on the tree that still had them (benchfig
// -fig 5 / -fig 6 -edge 60 -steps 3, best of 3 trials, 2 vCPU, go1.24),
// MLUP/s interface / liquid / solid:
//
//	φ-kernel                        µ-kernel
//	general   0.72  0.95  0.97      0.98   0.81  1.86
//	basic     1.14  1.20  1.15      0.69   0.67  1.71
//	simd      0.93  0.96  0.94      0.85   1.01  1.44
//	tz        1.00  1.01  1.00      1.04   1.09  1.45
//	stag      1.21  1.10  1.01      1.30   1.64  1.59
//	shortcut  1.57 12.65  4.42      1.58  28.01  2.02
//
//	Fig. 5 (φ): cellwise 1.14 1.08 1.01; cellwise with shortcuts
//	1.40 9.53 3.01; four cells 0.76 8.10 0.92
//
// No rung beat production in any composition. Before removal, tz and stag
// were checked to compute the production trajectory bit for bit (φ and µ,
// kernel inputs and whole golden-schedule runs), so checkpoints naming them
// restore as production; basic and simd were only roundoff-equal.
func Fig6(w io.Writer, edge, steps int) error {
	for _, kernel := range []string{"phi", "mu"} {
		fmt.Fprintf(w, "Figure 6 (%s-kernel): general-purpose code vs production, block %d^3 (MLUP/s)\n", kernel, edge)
		fmt.Fprintf(w, "%-32s %12s %12s %12s\n", "variant", "interface", "liquid", "solid")
		var base, best float64
		for _, v := range kernels.Variants {
			fmt.Fprintf(w, "%-32s", v)
			for i, sc := range Scenarios {
				var rate float64
				var err error
				if kernel == "phi" {
					rate, err = MeasurePhiVariant(v, sc, edge, steps)
				} else {
					rate, err = MeasureMuVariant(v, sc, edge, steps)
				}
				if err != nil {
					return err
				}
				if i == 0 {
					if v == kernels.VarGeneral {
						base = rate
					}
					if v == kernels.VarShortcut {
						best = rate
					}
				}
				fmt.Fprintf(w, " %12.2f", rate)
			}
			fmt.Fprintln(w)
		}
		if base > 0 {
			fmt.Fprintf(w, "speedup over general-purpose code (interface): %.1fx\n\n", best/base)
		}
	}
	fmt.Fprintln(w, "(measured at 60^3 before the middle rungs were removed, interface MLUP/s phi / mu:")
	fmt.Fprintln(w, " general 0.72/0.98, basic 1.14/0.69, simd 0.93/0.85, tz 1.00/1.04, stag 1.21/1.30, shortcut 1.57/1.58;")
	fmt.Fprintln(w, " Fig. 5 phi strategies interface/liquid/solid: cellwise 1.14/1.08/1.01,")
	fmt.Fprintln(w, " cellwise with shortcuts 1.40/9.53/3.01, four cells 0.76/8.10/0.92)")
	return nil
}

// Fig7 regenerates the intranode µ-kernel scaling: per-core MLUP/s for 1..
// maxCores worker ranks with one block per rank, for block sizes 40³ and
// 20³, measured live, next to the SuperMUC analytic model. par is the
// intra-block sweep parallelism per solver (1 reproduces the paper's
// one-rank-per-core setup; 0 selects GOMAXPROCS).
func Fig7(w io.Writer, maxCores, steps, par int) error {
	fmt.Fprintln(w, "Figure 7: intranode scaling of the mu-kernel (MLUP/s per core)")
	for _, edge := range []int{40, 20} {
		fmt.Fprintf(w, "block %d^3:\n%8s %16s %16s\n", edge, "cores", "measured", "model(SuperMUC)")
		model := perfmodel.IntranodeScaling(perfmodel.SuperMUC(), edge, maxCores)
		for c := 1; c <= maxCores; c++ {
			rate, err := measureIntranode(c, edge, steps, par)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8d %16.2f %16.2f\n", c, rate, model[c-1].MLUPsPerCore)
		}
	}
	return nil
}

func measureIntranode(ranks, edge, steps, par int) (float64, error) {
	bg, err := grid.NewBlockGrid(ranks, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		return 0, err
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(edge) / 2 * p.Dx
	sim, err := solver.New(solver.Config{Params: p, BG: bg, Parallelism: par})
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	if err := sim.InitScenario(solver.ScenarioInterface); err != nil {
		return 0, err
	}
	m := sim.RunMeasured(steps)
	return m.MuKernelMLUPs(), nil
}

// ParallelScaling measures whole-timestep MLUP/s of a single edge³ block at
// increasing intra-block sweep parallelism for the benchfig CLI (the repo
// benchmark's dense_interface workload measures the same with spread).
func ParallelScaling(w io.Writer, edge, steps int, workers []int) error {
	fmt.Fprintf(w, "Intra-block parallel sweep scaling, one %d^3 block, interface scenario (MLUP/s)\n", edge)
	fmt.Fprintf(w, "%8s %12s %10s\n", "workers", "MLUP/s", "speedup")
	base := 0.0
	for _, nw := range workers {
		bg, err := grid.NewBlockGrid(1, 1, 1, edge, edge, edge, [3]bool{true, true, false})
		if err != nil {
			return err
		}
		p := core.DefaultParams()
		p.Temp.Z0 = float64(edge) / 2 * p.Dx
		sim, err := solver.New(solver.Config{Params: p, BG: bg, Parallelism: nw})
		if err != nil {
			return err
		}
		if err := sim.InitScenario(solver.ScenarioInterface); err != nil {
			sim.Close()
			return err
		}
		sim.Run(1) // warm-up
		m := sim.RunMeasured(steps)
		sim.Close()
		rate := m.MLUPs()
		if base == 0 {
			base = rate
		}
		fmt.Fprintf(w, "%8d %12.2f %9.2fx\n", nw, rate, rate/base)
	}
	return nil
}

// Fig8 regenerates the communication-hiding study: per-timestep time in the
// φ and µ communication routines with and without overlap. The first block
// reports live measurements of the in-process communicator under the two
// modes the solver keeps — µ-overlap (the paper's production choice; the φ
// exchange blocks in both) and fully blocking; the second the analytic
// SuperMUC model for 2⁵..2¹² cores (block 60³, Fig. 8's setup), which still
// carries the φ-overlap curve.
//
// The φ-overlap and µ+φ-overlap modes (Algorithm 2's split µ-kernel) were
// removed after a four-mode measurement with the repo benchmark (bench
// driver unmodified, DefaultConfig's overlap swapped on a scratch copy,
// 3 × 6 s per cell, 2 vCPU). halo_tcp step_mlups: µ 1.44–1.52, µ+φ
// 1.46–1.48, φ 1.27–1.29, none 1.14–1.25; dense_interface: all four inside
// 1.27–1.47 with overlapping ranges. µ+φ is within ~2% of µ on the one
// workload where communication matters, φ-only is ~12% slower, and both
// failed the benchmark's byte-identity gate: the split µ-kernel was only
// tolerance-equal (1e-9) to the fused one.
func Fig8(w io.Writer, edge, steps, maxRanks, par int) error {
	fmt.Fprintln(w, "Figure 8: time spent in communication per timestep")
	fmt.Fprintf(w, "measured in-process (block %d^3 per rank), ms per step, mu-overlap run vs blocking run:\n", edge)
	fmt.Fprintf(w, "%8s %14s %14s %14s %14s\n", "ranks", "phi (mu-ov)", "phi blocking", "mu overlap", "mu blocking")
	for ranks := 2; ranks <= maxRanks; ranks *= 2 {
		var row [4]float64
		for i, mode := range []solver.OverlapMode{solver.OverlapMu, solver.OverlapNone} {
			phiMS, muMS, err := measureComm(ranks, edge, steps, mode, par)
			if err != nil {
				return err
			}
			row[i] = phiMS
			row[2+i] = muMS
		}
		fmt.Fprintf(w, "%8d %14.3f %14.3f %14.3f %14.3f\n", ranks, row[0], row[1], row[2], row[3])
	}

	m := perfmodel.SuperMUC()
	fmt.Fprintf(w, "\nSuperMUC model (block 60^3), ms per step:\n")
	fmt.Fprintf(w, "%8s %14s %14s %14s %14s\n", "cores", "phi overlap", "phi blocking", "mu overlap", "mu blocking")
	for _, p := range perfmodel.PowersOfTwo(5, 12) {
		base := perfmodel.CommScenario{Machine: m, BlockEdge: 60, Cores: p}
		ov := base
		ov.Overlap = true
		fmt.Fprintf(w, "%8d %14.3f %14.3f %14.3f %14.3f\n", p,
			1e3*perfmodel.CommTime(ov, true), 1e3*perfmodel.CommTime(base, true),
			1e3*perfmodel.CommTime(ov, false), 1e3*perfmodel.CommTime(base, false))
	}
	fmt.Fprintln(w, "(paper: overlap reduces both; phi costs more than mu; mu-only overlap is the production choice.")
	fmt.Fprintln(w, " measured here with all four modes before the phi-overlap paths were removed: halo_tcp step_mlups")
	fmt.Fprintln(w, " mu 1.44-1.52, mu+phi 1.46-1.48, phi 1.27-1.29, none 1.14-1.25; only mu and none are bit-identical)")
	return nil
}

func measureComm(ranks, edge, steps int, mode solver.OverlapMode, par int) (phiMS, muMS float64, err error) {
	bg, err := grid.NewBlockGrid(ranks, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		return 0, 0, err
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(edge) / 2 * p.Dx
	sim, err := solver.New(solver.Config{Params: p, BG: bg, Overlap: mode, Parallelism: par})
	if err != nil {
		return 0, 0, err
	}
	defer sim.Close()
	if err := sim.InitScenario(solver.ScenarioInterface); err != nil {
		return 0, 0, err
	}
	m := sim.RunMeasured(steps)
	perStep := 1e3 / float64(steps*ranks)
	phiMS = m.CommPhi.Total().Seconds() * perStep
	muMS = m.CommMu.Total().Seconds() * perStep
	return phiMS, muMS, nil
}

// Fig9 regenerates the weak-scaling curves of the three machines from the
// calibrated analytic models (per-core MLUP/s of the full timestep).
func Fig9(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: weak scaling, MLUP/s per core (analytic machine models)")
	cases := []struct {
		m        *perfmodel.Machine
		lo, hi   int
		scenName []string
		scens    []int
	}{
		{perfmodel.SuperMUC(), 0, 15, []string{"interface", "liquid", "solid"},
			[]int{perfmodel.ScnInterface, perfmodel.ScnLiquid, perfmodel.ScnSolid}},
		{perfmodel.Hornet(), 5, 13, []string{"interface"}, []int{perfmodel.ScnInterface}},
		{perfmodel.JUQUEEN(), 9, 18, []string{"interface"}, []int{perfmodel.ScnInterface}},
	}
	for _, c := range cases {
		fmt.Fprintf(w, "%s (cores %d..%d):\n", c.m.Name, 1<<uint(c.lo), 1<<uint(c.hi))
		fmt.Fprintf(w, "%10s", "cores")
		for _, n := range c.scenName {
			fmt.Fprintf(w, " %12s", n)
		}
		fmt.Fprintln(w)
		cores := perfmodel.PowersOfTwo(c.lo, c.hi)
		curves := make([][]perfmodel.WeakScalingPoint, len(c.scens))
		for i, s := range c.scens {
			curves[i] = perfmodel.WeakScaling(c.m, s, 60, cores)
		}
		for pi, p := range cores {
			fmt.Fprintf(w, "%10d", p)
			for i := range c.scens {
				fmt.Fprintf(w, " %12.3f", curves[i][pi].MLUPsPerCore)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "parallel efficiency (interface): %.1f%%\n\n", 100*perfmodel.Efficiency(curves[0]))
	}
	fmt.Fprintln(w, "(paper: near-flat curves; SuperMUC/Hornet ~2-3.5, JUQUEEN ~0.2 per core)")
}

// Roofline reports the §5.1.1 analysis: the paper's published constants
// next to the model's derived quantities and the live single-core rates.
func Roofline(w io.Writer, edge, steps int) error {
	m := perfmodel.SuperMUC()
	r := perfmodel.NewRoofline(m.StreamBWNode, m.PeakFLOPsNode())
	muFlops := float64(perfmodel.MuKernelOps.Total())

	fmt.Fprintln(w, "Section 5.1.1 roofline / in-core analysis (SuperMUC node)")
	fmt.Fprintf(w, "  STREAM bandwidth:            %.1f GiB/s\n", m.StreamBWNode/(1<<30))
	fmt.Fprintf(w, "  bytes per mu-update:         %d B (half-reuse cache assumption)\n", perfmodel.MuBytesPerLUP)
	fmt.Fprintf(w, "  FLOPs per mu-update:         %.0f (paper: 1384)\n", muFlops)
	fmt.Fprintf(w, "  arithmetic intensity:        %.2f FLOP/B (paper: ~2)\n",
		perfmodel.ArithmeticIntensity(muFlops, perfmodel.MuBytesPerLUP))
	fmt.Fprintf(w, "  memory-bound ceiling:        %.1f MLUP/s (paper: 126.3)\n",
		r.MemoryBoundMLUPs(perfmodel.MuBytesPerLUP))
	fmt.Fprintf(w, "  measured (paper, per core):  4.2 MLUP/s = %.1f GFLOP/s = %.0f%% core peak (paper: 27%%)\n",
		perfmodel.AchievedGFLOPs(4.2, muFlops),
		100*perfmodel.FractionOfPeak(4.2, muFlops, m.PeakFLOPsCore()))
	fmt.Fprintf(w, "  IACA-style in-core bound:    %.0f%% peak (paper: <=43%%, add/mul imbalance + div latency)\n",
		100*perfmodel.SandyBridge.PeakFraction(perfmodel.MuKernelOps))

	phiRate, err := MeasurePhiVariant(kernels.VarShortcut, solver.ScenarioInterface, edge, steps)
	if err != nil {
		return err
	}
	muRate, err := MeasureMuVariant(kernels.VarShortcut, solver.ScenarioInterface, edge, steps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  this machine (Go, %d^3):      phi %.2f MLUP/s, mu %.2f MLUP/s (production kernels, interface)\n",
		edge, phiRate, muRate)
	return nil
}
