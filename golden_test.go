package phasefield

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
	"repro/internal/schedule"
)

// The golden-trajectory regression harness: a small deterministic
// production schedule — nucleation burst, pull-velocity ramp, moving-window
// shift, mid-ramp checkpoint — is run for a fixed
// number of steps and its solid-fraction/µ-norm series compared against a
// committed fixture. The kernel equivalence tests prove the oracle and the
// production kernels agree; only this harness catches a regression that
// moves both together (a changed coefficient, a broken ramp, a mis-seeded
// burst, an off-by-one window shift).
//
// Regenerate the fixture after an intentional physics change with
//
//	go test -run TestGoldenTrajectory -update .

var update = flag.Bool("update", false, "rewrite golden fixtures")

const goldenPath = "testdata/golden_trajectory.json"

type goldenSample struct {
	Step        int     `json:"step"`
	Solid       float64 `json:"solid"`
	MuNorm      float64 `json:"mu_norm"`
	WindowShift int     `json:"window_shift"`
}

type goldenFixture struct {
	Description    string         `json:"description"`
	Steps          int            `json:"steps"`
	SampleEvery    int            `json:"sample_every"`
	CheckpointStep int            `json:"checkpoint_step"`
	TolSolid       float64        `json:"tol_solid"`
	TolMu          float64        `json:"tol_mu"`
	TolRestart     float64        `json:"tol_restart"`
	Samples        []goldenSample `json:"samples"`
}

const (
	goldenSteps    = 40
	goldenEvery    = 2
	goldenCkptStep = 20
)

// goldenConfig is the scenario under test: a production domain small
// enough for CI, decomposed over two ranks, with the moving window active.
func goldenConfig() Config {
	cfg := DefaultConfig(16, 16, 24)
	cfg.PX = 2
	cfg.MovingWindow = true
	cfg.WindowFraction = 0.5
	cfg.Seed = 42
	return cfg
}

// mkGoldenSim builds the golden scenario on a px×py decomposition.
func mkGoldenSim(t *testing.T, px, py int) *Simulation {
	t.Helper()
	cfg := goldenConfig()
	cfg.PX, cfg.PY = px, py
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitProduction(); err != nil {
		t.Fatal(err)
	}
	return sim
}

// goldenBCRamp is the boundary-environment leg of the golden schedule: the
// bottom µ wall ramps from the eutectic value to a solute-enriched one over
// steps 12–28, spanning the checkpoint step so the restart resumes
// mid-BC-ramp with V3 header state.
var goldenBCRamp = schedule.SetBC{Step: 12, Over: 16, Face: grid.ZMin, Field: schedule.BCMu,
	Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.06, -0.03}}

// goldenSchedule drives every event class the engine supports: a velocity
// ramp spanning the checkpoint step (so the restart resumes mid-ramp), a
// burst that pushes the front past the window trigger, the mid-run
// checkpoint itself, and — composed in as a separate
// boundary-environment schedule, exercising Compose on the production
// path — a µ-wall Dirichlet ramp plus a φ top-wall switch.
func goldenSchedule(t *testing.T, ckptPath string) *schedule.Schedule {
	t.Helper()
	base, err := schedule.New(
		schedule.Ramp{Param: schedule.ParamPullVelocity, Step: 0, Over: 30, From: 0.02, To: 0.05},
		schedule.NucleationBurst{Step: 10, Count: 3, Phase: -1, Radius: 2.5, ZMin: 10, ZMax: 16, Seed: 7},
		schedule.Checkpoint{Every: goldenCkptStep, Path: ckptPath},
	)
	if err != nil {
		t.Fatal(err)
	}
	bcLeg, err := schedule.New(
		goldenBCRamp,
		schedule.SetBC{Step: 32, Face: grid.ZMax, Field: schedule.BCPhi,
			Kind: grid.BCDirichlet, To: []float64{0, 0, 0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Compose(base, bcLeg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleSim(s *Simulation) goldenSample {
	return goldenSample{
		Step:        s.Step(),
		Solid:       s.SolidFraction(),
		MuNorm:      s.MuNorm(),
		WindowShift: s.WindowShift(),
	}
}

// runGolden advances sim under the schedule to `until` steps, sampling
// every goldenEvery steps (including the entry state). The second return
// is the smallest active fraction observed at any sample point — the
// evidence that the trajectory being compared exercised the skip path.
func runGolden(t *testing.T, sim *Simulation, sched *schedule.Schedule, until int) ([]goldenSample, float64) {
	t.Helper()
	samples := []goldenSample{sampleSim(sim)}
	minActive := 1.0
	for sim.Step() < until {
		n := goldenEvery
		if sim.Step()+n > until {
			n = until - sim.Step()
		}
		if err := sim.RunSchedule(sched, n, ScheduleOptions{}); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, sampleSim(sim))
		if af := sim.ActiveFraction(); af < minActive {
			minActive = af
		}
	}
	return samples, minActive
}

func compareSamples(t *testing.T, label string, got, want []goldenSample, tolSolid, tolMu float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Step != w.Step {
			t.Fatalf("%s sample %d: step %d, want %d", label, i, g.Step, w.Step)
		}
		if d := math.Abs(g.Solid - w.Solid); d > tolSolid {
			t.Errorf("%s step %d: solid fraction %.12g drifted %.3g from golden %.12g (tol %g)",
				label, g.Step, g.Solid, d, w.Solid, tolSolid)
		}
		if d := math.Abs(g.MuNorm - w.MuNorm); d > tolMu {
			t.Errorf("%s step %d: µ-norm %.12g drifted %.3g from golden %.12g (tol %g)",
				label, g.Step, g.MuNorm, d, w.MuNorm, tolMu)
		}
		if g.WindowShift != w.WindowShift {
			t.Errorf("%s step %d: window shift %d, want %d", label, g.Step, g.WindowShift, w.WindowShift)
		}
	}
}

func TestGoldenTrajectory(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "golden_%06d.pfcp")
	sched := goldenSchedule(t, ckptPath)

	sim, err := New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitProduction(); err != nil {
		t.Fatal(err)
	}
	samples, minActive := runGolden(t, sim, sched, goldenSteps)

	// The schedule must actually have exercised its machinery; a golden
	// fixture of a trivial run would guard nothing.
	last := samples[len(samples)-1]
	if last.WindowShift == 0 {
		t.Fatal("golden run never shifted the window")
	}
	if sim.SchedulePos() != 1 {
		t.Fatalf("golden run fired %d one-shot events, want 1", sim.SchedulePos())
	}
	midCkpt := fmt.Sprintf(ckptPath, goldenCkptStep)
	if _, err := os.Stat(midCkpt); err != nil {
		t.Fatalf("mid-ramp checkpoint not written: %v", err)
	}
	// The composed BC leg must have reached its settled wall state.
	phiBCs, muBCs := sim.DomainBCs()
	if muBCs[grid.ZMin].Kind != grid.BCDirichlet ||
		muBCs[grid.ZMin].Values[0] != 0.06 || muBCs[grid.ZMin].Values[1] != -0.03 {
		t.Fatalf("golden run's µ wall did not settle: %+v", muBCs[grid.ZMin])
	}
	if phiBCs[grid.ZMax].Kind != grid.BCDirichlet {
		t.Fatalf("golden run's φ top wall did not switch: %+v", phiBCs[grid.ZMax])
	}
	// The fixture run must engage activity tracking (melt above the front
	// sleeps for the first third of the run, before µ diffusion wakes the
	// whole small domain) — otherwise the golden comparison would not
	// cover the skip-vs-full path at all.
	if !(minActive < 1) || minActive <= 0 {
		t.Fatalf("golden run's minimum active fraction = %g, want engaged (0 < af < 1)", minActive)
	}

	if *update {
		fx := goldenFixture{
			Description: "16x16x24 production run (PX=2, moving window): " +
				"v ramp 0.02→0.05 over steps 0–30, 3-nucleus burst at step 10, " +
				"production kernels throughout, checkpoint at step 20, " +
				"composed BC leg (µ bottom wall ramp over steps 12–28, " +
				"φ top wall → dirichlet at step 32)",
			Steps: goldenSteps, SampleEvery: goldenEvery, CheckpointStep: goldenCkptStep,
			TolSolid: 2e-6, TolMu: 2e-6, TolRestart: 2e-4,
			Samples: samples,
		}
		buf, err := json.MarshalIndent(&fx, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d samples", goldenPath, len(samples))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to generate): %v", err)
	}
	var fx goldenFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	compareSamples(t, "uninterrupted", samples, fx.Samples, fx.TolSolid, fx.TolMu)

	// Restart leg: resume from the mid-ramp checkpoint and require the
	// continued trajectory to reproduce the same golden tail within the
	// restart tolerance (the float32 checkpoint seeding is the only
	// difference).
	restored, err := Restore(midCkpt, Config{MovingWindow: true, WindowFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != fx.CheckpointStep {
		t.Fatalf("restored at step %d, want %d", restored.Step(), fx.CheckpointStep)
	}
	// The V3 header must have carried the mid-ramp wall state bit-exactly:
	// the last BC application before the checkpointed step ran at step
	// index CheckpointStep-1.
	var bcBuf [4]float64
	wantWall := goldenBCRamp.ValuesAt(fx.CheckpointStep-1, bcBuf[:])
	_, restoredMu := restored.DomainBCs()
	if restoredMu[grid.ZMin].Kind != grid.BCDirichlet {
		t.Fatalf("restored µ wall kind %v", restoredMu[grid.ZMin].Kind)
	}
	for i := range wantWall {
		if restoredMu[grid.ZMin].Values[i] != wantWall[i] {
			t.Fatalf("restored µ wall value %d: %g, want %g (bit-exact)",
				i, restoredMu[grid.ZMin].Values[i], wantWall[i])
		}
	}
	restartSamples, _ := runGolden(t, restored, sched, goldenSteps)
	tail := fx.Samples[fx.CheckpointStep/fx.SampleEvery:]
	compareSamples(t, "restart", restartSamples, tail, fx.TolRestart, fx.TolRestart)
}
