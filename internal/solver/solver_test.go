package solver

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
)

func mkSim(t *testing.T, px, py, pz, bx, by, bz int, overlap OverlapMode) *Sim {
	t.Helper()
	bg, err := grid.NewBlockGrid(px, py, pz, bx, by, bz, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	_, _, nz := bg.GlobalCells()
	p.Temp.Z0 = float64(nz) / 2 * p.Dx
	s, err := New(Config{Params: p, BG: bg, Overlap: overlap})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil config not rejected")
	}
	bg, _ := grid.NewBlockGrid(1, 1, 2, 4, 4, 4, [3]bool{true, true, false})
	p := core.DefaultParams()
	if _, err := New(Config{Params: p, BG: bg, MovingWindow: true}); err == nil {
		t.Error("moving window with PZ>1 not rejected")
	}
}

func TestScenarioInitialFractions(t *testing.T) {
	s := mkSim(t, 1, 1, 1, 12, 12, 12, OverlapNone)

	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	if sf := s.SolidFraction(); sf != 0 {
		t.Errorf("liquid scenario solid fraction = %g", sf)
	}
	if err := s.InitScenario(ScenarioSolid); err != nil {
		t.Fatal(err)
	}
	if sf := s.SolidFraction(); sf != 1 {
		t.Errorf("solid scenario solid fraction = %g", sf)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	sf := s.SolidFraction()
	if sf < 0.3 || sf > 0.7 {
		t.Errorf("interface scenario solid fraction = %g, want ~0.5", sf)
	}
}

func TestScenarioProductionUsesVoronoi(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 8, 16, 16, OverlapNone)
	if err := s.InitScenario(ScenarioProduction); err != nil {
		t.Fatal(err)
	}
	fr := s.PhaseFractions()
	// All three solids must be nucleated.
	for a := 0; a < 3; a++ {
		if fr[a] <= 0 {
			t.Errorf("solid %d not nucleated: fractions %v", a, fr)
		}
	}
	if fr[core.Liquid] < 0.5 {
		t.Errorf("production scenario should be mostly liquid, got %v", fr)
	}
}

// The decisive distributed-memory test: a run split into blocks must
// reproduce the single-block run bit for bit (identical kernels, ghost layers
// via exchange instead of local BCs). The x-only widths cover every residue
// mod 4, so no kernel result may depend on where a block starts or how wide
// it is; the 2×2×2 split puts block starts in y and z too, where the low
// faces come from the exchange. The interface front is uniform in y, so the
// production scenario's Voronoi grains supply the fluxes across y faces.
func TestMultiBlockMatchesSingleBlock(t *testing.T) {
	const nx, ny, nz = 12, 8, 8
	for _, sc := range []Scenario{ScenarioInterface, ScenarioProduction} {
		run := func(px, py, pz int) *Sim {
			s := mkSim(t, px, py, pz, nx/px, ny/py, nz/pz, OverlapNone)
			if err := s.InitScenario(sc); err != nil {
				t.Fatal(err)
			}
			s.Run(5)
			s.Sync()
			return s
		}
		single := run(1, 1, 1)
		gs, ms := single.GatherGlobalPhi(), single.GatherGlobalMu()
		for _, d := range [][3]int{{2, 1, 1}, {3, 1, 1}, {4, 1, 1}, {12, 1, 1}, {2, 2, 2}} {
			t.Run(fmt.Sprintf("%v/%dx%dx%d", sc, d[0], d[1], d[2]), func(t *testing.T) {
				multi := run(d[0], d[1], d[2])
				if ok, maxd := gs.InteriorEqual(multi.GatherGlobalPhi(), 0); !ok {
					t.Errorf("φ differs from the single block by %g", maxd)
				}
				if ok, maxd := ms.InteriorEqual(multi.GatherGlobalMu(), 0); !ok {
					t.Errorf("µ differs from the single block by %g", maxd)
				}
			})
		}
	}
}

// Both overlap modes must produce bit-identical physics: they run the same
// fused kernels and differ only in when the µ ghosts are exchanged. At
// parallelism 8 each of the four ranks gets two pool workers, so its
// exchange task queues beside its φ claim tasks.
func TestOverlapModesEquivalent(t *testing.T) {
	ref := mkSim(t, 2, 2, 1, 6, 6, 12, OverlapNone)
	if err := ref.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	ref.Run(4)
	ref.Sync()
	refPhi := ref.GatherGlobalPhi()
	refMu := ref.GatherGlobalMu()

	for _, par := range []int{0, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			cfg := ref.Cfg
			cfg.Overlap, cfg.Parallelism = OverlapMu, par
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if par == 8 && s.workersPerRank != 2 {
				t.Fatalf("%d workers per rank at parallelism 8, want 2", s.workersPerRank)
			}
			if err := s.InitScenario(ScenarioInterface); err != nil {
				t.Fatal(err)
			}
			s.Run(4)
			s.Sync()
			if ok, maxd := s.GatherGlobalPhi().InteriorEqual(refPhi, 0); !ok {
				t.Errorf("%v: φ differs by %g", OverlapMu, maxd)
			}
			if ok, maxd := s.GatherGlobalMu().InteriorEqual(refMu, 0); !ok {
				t.Errorf("%v: µ differs by %g", OverlapMu, maxd)
			}
		})
	}
}

func TestRunMeasuredMetrics(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 6, 6, 6, OverlapNone)
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	m := s.RunMeasured(3)
	if m.Steps != 3 || m.Cells != 12*6*6 {
		t.Errorf("metrics bookkeeping wrong: %+v", m)
	}
	if m.MLUPs() <= 0 || m.PhiKernelMLUPs() <= 0 || m.MuKernelMLUPs() <= 0 {
		t.Error("nonpositive MLUP/s")
	}
	if m.CommPhi.Messages == 0 {
		t.Error("no φ messages counted on a 2-block run")
	}
	if s.StepCount() != 3 {
		t.Errorf("step count %d", s.StepCount())
	}
	if s.Time() <= 0 {
		t.Error("time not advancing")
	}
	// Stats.Wait is the time a rank blocks joining its hidden µ exchange:
	// zero when both exchanges block, charged to the µ tag under OverlapMu.
	if m.CommMu.Wait != 0 || m.CommPhi.Wait != 0 {
		t.Errorf("%v charged wait µ %v φ %v, want 0", OverlapNone, m.CommMu.Wait, m.CommPhi.Wait)
	}
	ov := mkSim(t, 2, 1, 1, 6, 6, 6, OverlapMu)
	defer ov.Close()
	if err := ov.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	if m := ov.RunMeasured(3); m.CommMu.Wait <= 0 || m.CommPhi.Wait != 0 {
		t.Errorf("%v charged wait µ %v φ %v, want µ > 0 and φ 0", OverlapMu, m.CommMu.Wait, m.CommPhi.Wait)
	}
}

func TestFrontHeightAndWindowShift(t *testing.T) {
	s := mkSim(t, 1, 1, 1, 8, 8, 16, OverlapNone)
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	front := s.FrontHeight()
	if front < 6 || front > 10 {
		t.Errorf("front height = %d, want ~8", front)
	}
	solid0 := s.SolidFraction()
	s.ShiftWindow(4)
	if s.WindowShift() != 4 {
		t.Errorf("window shift = %d", s.WindowShift())
	}
	// Scrolling out solid and scrolling in liquid reduces solid fraction.
	if sf := s.SolidFraction(); sf >= solid0 {
		t.Errorf("solid fraction after shift = %g, want < %g", sf, solid0)
	}
	if f := s.FrontHeight(); f != front-4 {
		t.Errorf("front after shift = %d, want %d", f, front-4)
	}
}

func TestMovingWindowKeepsFrontInDomain(t *testing.T) {
	bg, _ := grid.NewBlockGrid(1, 1, 1, 8, 8, 16, [3]bool{true, true, false})
	p := core.DefaultParams()
	p.Temp.Z0 = 24 // strong undercooling drives fast growth
	p.Temp.G = 0.005
	s, err := New(Config{
		Params: p, BG: bg, MovingWindow: true, WindowFrontFraction: 0.55,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	s.Run(120)
	if s.HasNaN() {
		t.Fatal("NaN during moving-window run")
	}
	_, _, nz := bg.GlobalCells()
	if f := s.FrontHeight(); f > int(0.8*float64(nz)) {
		t.Errorf("front escaped the window: %d of %d", f, nz)
	}
}

func TestLiquidScenarioStaysLiquidAboveTE(t *testing.T) {
	bg, _ := grid.NewBlockGrid(1, 1, 1, 8, 8, 8, [3]bool{true, true, false})
	p := core.DefaultParams()
	p.Temp.Z0 = -16 // whole domain above T_E: no solidification may occur
	bcs := grid.AllNeumann()
	bcs[grid.XMin] = grid.BC{Kind: grid.BCPeriodic}
	bcs[grid.XMax] = grid.BC{Kind: grid.BCPeriodic}
	bcs[grid.YMin] = grid.BC{Kind: grid.BCPeriodic}
	bcs[grid.YMax] = grid.BC{Kind: grid.BCPeriodic}
	s, err := New(Config{Params: p, BG: bg, DomainBCs: &bcs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	if sf := s.SolidFraction(); sf != 0 {
		t.Errorf("spontaneous solidification above T_E: %g", sf)
	}
	if s.HasNaN() {
		t.Fatal("NaN in liquid run")
	}
}

// The solver runs the production kernels whatever Config.Variant holds: a
// literal that omits the field, whose zero value names the oracle, steps
// bit for bit like one that names kernels.VarShortcut. Its first step
// agrees with an oracle kernel step of the same rank fields (the φ sweep,
// the rank's boundary fill of φdst, the µ sweep) within the kernel suite's
// per-sweep tolerances; later steps compound the µ difference through the
// driving force.
func TestVariantsAgreeThroughSolver(t *testing.T) {
	unset := mkSim(t, 1, 1, 1, 8, 8, 8, OverlapNone)
	p := *unset.Cfg.Params
	named, err := New(Config{Params: &p, BG: unset.Cfg.BG, Variant: kernels.VarShortcut})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Sim{unset, named} {
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
	}

	r := unset.ranks[0]
	oracle := r.fields.Clone()
	ctx := kernels.Ctx{P: unset.Cfg.Params, ZOff: r.zOff, Time: unset.Time()}
	kernels.PhiSweep(&ctx, oracle, nil, kernels.VarGeneral)
	r.phiBCs.Apply(oracle.PhiDst)
	kernels.MuSweep(&ctx, oracle, nil, kernels.VarGeneral)
	unset.Run(1)
	if ok, maxd := r.fields.PhiSrc.InteriorEqual(oracle.PhiDst, 1e-8); !ok {
		t.Errorf("φ differs from the oracle by %g", maxd)
	}
	if ok, maxd := r.fields.MuSrc.InteriorEqual(oracle.MuDst, 5e-6); !ok {
		t.Errorf("µ differs from the oracle by %g", maxd)
	}

	unset.Run(2)
	named.Run(3)
	requireSameTrajectory(t, unset, named)
}

func TestStringers(t *testing.T) {
	if OverlapNone.String() == "" || OverlapMu.String() == "" ||
		ScenarioInterface.String() != "interface" || ScenarioProduction.String() != "production" {
		t.Error("stringers broken")
	}
}

func TestSolidFractionConsistentWithPhaseFractions(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 6, 6, 6, OverlapNone)
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	fr := s.PhaseFractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("phase fractions sum to %g", sum)
	}
	if math.Abs(s.SolidFraction()-(1-fr[core.Liquid])) > 1e-9 {
		t.Error("SolidFraction inconsistent with PhaseFractions")
	}
}

// Ablation: the anti-trapping current (Eq. 4) is the model's quantitative
// correction for solute trapping at thin interfaces. Disabling it must (a)
// change the chemical-potential field at a moving front and (b) leave the
// bulk-diffusion behaviour untouched.
func TestAntiTrappingAblation(t *testing.T) {
	run := func(at float64) *grid.Field {
		bg, _ := grid.NewBlockGrid(1, 1, 1, 8, 8, 16, [3]bool{true, true, false})
		p := core.DefaultParams()
		p.Temp.Z0 = 32 // strong undercooling: the front moves
		p.AT = at
		s, err := New(Config{Params: p, BG: bg})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
		s.Run(20)
		if s.HasNaN() {
			t.Fatal("NaN in ablation run")
		}
		return s.GatherGlobalMu()
	}
	withAT := run(1)
	withoutAT := run(0)
	if ok, maxd := withAT.InteriorEqual(withoutAT, 1e-12); ok {
		t.Error("anti-trapping current has no effect at a moving front")
	} else if maxd <= 0 {
		t.Error("no measurable difference")
	}
}

// Ablation: with zero pulling velocity the temperature field is static and
// the front relaxes toward the (stationary) eutectic isotherm instead of
// following a moving one.
func TestZeroVelocityStaticIsotherm(t *testing.T) {
	bg, _ := grid.NewBlockGrid(1, 1, 1, 8, 8, 16, [3]bool{true, true, false})
	p := core.DefaultParams()
	p.Temp.V = 0
	p.Temp.Z0 = 8
	if p.Temp.DTdt() != 0 {
		t.Fatal("static gradient should have zero DTdt")
	}
	s, err := New(Config{Params: p, BG: bg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	if s.HasNaN() {
		t.Fatal("NaN with V=0")
	}
	front := s.FrontHeight()
	if front < 4 || front > 12 {
		t.Errorf("front %d strayed far from the static isotherm at z=8", front)
	}
}
