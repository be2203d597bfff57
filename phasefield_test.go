package phasefield

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mesh"
	"repro/internal/schedule"
)

func TestDefaultConfigAndNew(t *testing.T) {
	cfg := DefaultConfig(16, 16, 16)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Params() == nil {
		t.Fatal("nil params")
	}
}

// A zero Config builds a production simulation: its checkpoints record the
// production kernels, not the oracle that is kernels.Variant's zero value.
func TestZeroConfigRunsProduction(t *testing.T) {
	sim, err := New(Config{NX: 8, NY: 8, NZ: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, ckpt.Float32); err != nil {
		t.Fatal(err)
	}
	h, _, err := ckpt.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := h.Variant(); err != nil || v != kernels.VarShortcut {
		t.Errorf("zero Config checkpoints kernel %v (%v), want %v", v, err, kernels.VarShortcut)
	}
}

// New keeps its own copy of a caller-supplied Params: a schedule ramp on
// one simulation must change neither the caller's struct nor a second
// simulation built from it.
func TestNewCopiesParams(t *testing.T) {
	p := core.DefaultParams()
	p.Temp.Z0 = 6 * p.Dx
	p.Dt = 0.8 * p.StableDt()
	want := *p
	sims := [2]*Simulation{}
	for i := range sims {
		cfg := DefaultConfig(8, 8, 12)
		cfg.Params = p
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InitFront(); err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
	}
	sched, err := schedule.New(schedule.Ramp{Param: schedule.ParamPullVelocity, Step: 0, Over: 10,
		From: p.Temp.V, To: 4 * p.Temp.V})
	if err != nil {
		t.Fatal(err)
	}
	if err := sims[0].RunSchedule(sched, 5, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	if sims[0].Params().Temp.V == want.Temp.V {
		t.Fatal("the ramp did not change the ramped simulation's pull velocity")
	}
	if *p != want {
		t.Errorf("caller's Params changed: %+v, want %+v", p.Temp, want.Temp)
	}
	if got := sims[1].Params(); *got != want {
		t.Errorf("second simulation's Params changed: %+v, want %+v", got.Temp, want.Temp)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{NX: 0, NY: 4, NZ: 4}); err == nil {
		t.Error("zero domain accepted")
	}
	cfg := DefaultConfig(10, 10, 10)
	cfg.PX = 3 // 10 not divisible by 3
	if _, err := New(cfg); err == nil {
		t.Error("indivisible decomposition accepted")
	}
}

func TestEndToEndProductionRun(t *testing.T) {
	cfg := DefaultConfig(16, 16, 24)
	cfg.PX, cfg.PY = 2, 2
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitProduction(); err != nil {
		t.Fatal(err)
	}
	sf0 := sim.SolidFraction()
	sim.Run(30)
	if sim.Step() != 30 {
		t.Errorf("step = %d", sim.Step())
	}
	if sim.Time() <= 0 {
		t.Error("time not advancing")
	}
	fr := sim.PhaseFractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("phase fractions sum %g", sum)
	}
	if sf := sim.SolidFraction(); sf <= 0 || sf >= 1 {
		t.Errorf("solid fraction %g (was %g)", sf, sf0)
	}
	if h := sim.FrontHeight(); h <= 0 {
		t.Errorf("front height %d", h)
	}
}

func TestExtractInterfacesAndSTL(t *testing.T) {
	sim, err := New(DefaultConfig(12, 12, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	sim.Run(2)
	meshes := sim.ExtractInterfaces()
	if len(meshes) != NumPhases-1 {
		t.Fatalf("%d meshes", len(meshes))
	}
	any := false
	for _, m := range meshes {
		if m.NumTris() > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no interface triangles in a front scenario")
	}
	m := meshes[0]
	if m.NumTris() > 500 {
		mesh.Simplify(m, mesh.SimplifyOptions{TargetTris: 500})
	}
	var buf bytes.Buffer
	if err := m.WriteSTL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 84 {
		t.Error("empty STL")
	}
}

func TestCheckpointFile(t *testing.T) {
	sim, err := New(DefaultConfig(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	sim.Run(2)
	path := filepath.Join(t.TempDir(), "state.pfcp")
	if err := sim.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Error("empty checkpoint")
	}
}

func TestAnalysisHelpers(t *testing.T) {
	sim, err := New(DefaultConfig(12, 12, 12))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	s2 := sim.TwoPointCorrelation(0, 1, 6)
	if len(s2) != 7 {
		t.Fatalf("S2 length %d", len(s2))
	}
	if s2[0] < 0 || s2[0] > 1 {
		t.Errorf("S2(0) = %g", s2[0])
	}
	_ = sim.LamellaEvents(0)
}

func TestPhaseNames(t *testing.T) {
	names := PhaseNames()
	if names[LiquidPhase] != "Liquid" {
		t.Errorf("liquid phase name %q", names[LiquidPhase])
	}
	if names[0] != "Al" || names[1] != "Ag2Al" || names[2] != "Al2Cu" {
		t.Errorf("solid names %v", names)
	}
}
