package phasefield

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mesh"
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
