package phasefield

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/kernels"
	"repro/internal/schedule"
)

// Checkpoint → Restore must reproduce the simulation state up to the
// single-precision round trip, and the restored simulation must continue
// identically (within float32 perturbation) to the original.
func TestCheckpointRestoreContinues(t *testing.T) {
	cfg := DefaultConfig(12, 12, 16)
	cfg.PX = 2
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	sim.Run(5)

	path := filepath.Join(t.TempDir(), "mid.pfcp")
	if err := sim.Checkpoint(path); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(path, Config{Overlap: cfg.Overlap})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Step() != 5 {
		t.Errorf("restored step = %d", restored.Step())
	}
	if restored.Time() != sim.Time() {
		t.Errorf("restored time = %g, want %g", restored.Time(), sim.Time())
	}

	// State agreement at restore time (float32 round trip).
	a := sim.GlobalPhi()
	b := restored.GlobalPhi()
	if ok, maxd := a.InteriorEqual(b, 1e-6); !ok {
		t.Fatalf("restored φ differs by %g", maxd)
	}

	// Both continue; trajectories stay close over a few steps.
	sim.Run(5)
	restored.Run(5)
	a = sim.GlobalPhi()
	b = restored.GlobalPhi()
	if ok, maxd := a.InteriorEqual(b, 1e-4); !ok {
		t.Errorf("trajectories diverged beyond float32 seeding: %g", maxd)
	}
}

// Property test over randomized configurations: checkpointing and
// restoring mid-run, then taking one more step, must match the
// uninterrupted run within the single-precision perturbation the float32
// round trip injects (one explicit-Euler step amplifies it only by an
// O(dt) factor).
func TestCheckpointRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 6; trial++ {
		px := 1 + rng.Intn(2)
		py := 1 + rng.Intn(2)
		nx, ny, nz := px*(4+rng.Intn(3)), py*(4+rng.Intn(3)), 8+rng.Intn(6)
		cfg := DefaultConfig(nx, ny, nz)
		cfg.PX, cfg.PY = px, py
		cfg.Seed = rng.Int63()
		pre := 1 + rng.Intn(4)

		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InitFront(); err != nil {
			t.Fatal(err)
		}
		sim.Run(pre)

		path := filepath.Join(t.TempDir(), "prop.pfcp")
		if err := sim.Checkpoint(path); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(path, Config{Overlap: cfg.Overlap})
		if err != nil {
			t.Fatal(err)
		}

		sim.Run(1)
		restored.Run(1)
		// One step amplifies the float32 seeding by the stencil's
		// Lipschitz factor (≈dt/dx² · coefficients); 1e-5 keeps the
		// bound at single-precision scale, far below any physics
		// regression.
		tol := math.Max(1e-5, 4*ckpt.MaxRoundTripError(4))
		if ok, maxd := sim.GlobalPhi().InteriorEqual(restored.GlobalPhi(), tol); !ok {
			t.Errorf("trial %d (%dx%dx%d px%d py%d): φ diverged %g after one step",
				trial, nx, ny, nz, px, py, maxd)
		}
		if ok, maxd := sim.sim.GatherGlobalMu().InteriorEqual(restored.sim.GatherGlobalMu(), tol); !ok {
			t.Errorf("trial %d: µ diverged %g after one step", trial, maxd)
		}
	}
}

// A checkpoint carries the mutable process parameters, so a
// restart mid-ramp resumes from the ramped values, not the config
// defaults.
func TestRestoreCarriesRampedParameters(t *testing.T) {
	cfg := DefaultConfig(8, 8, 12)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.New(
		schedule.Ramp{Param: schedule.ParamPullVelocity, Step: 0, Over: 10,
			From: sim.Params().Temp.V, To: 4 * sim.Params().Temp.V},
		schedule.NucleationBurst{Step: 1, Count: 1, Phase: 0, Radius: 1.5, ZMin: 8, ZMax: 11, Seed: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSchedule(sched, 5, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "midramp.pfcp")
	if err := sim.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rp, sp := restored.Params(), sim.Params()
	if rp.Temp.V != sp.Temp.V || rp.Temp.Z0 != sp.Temp.Z0 || rp.Temp.G != sp.Temp.G || rp.Dt != sp.Dt {
		t.Errorf("restored params %+v, want %+v", rp.Temp, sp.Temp)
	}
	if restored.SchedulePos() != sim.SchedulePos() || restored.SchedulePos() != 1 {
		t.Errorf("schedule position %d, want %d", restored.SchedulePos(), sim.SchedulePos())
	}

	// Continuing both under the schedule must agree bit-for-bit in the
	// ramp coefficients: the trajectories may differ only by the
	// float32 seeding.
	if err := sim.RunSchedule(sched, 5, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := restored.RunSchedule(sched, 5, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	if rp.Temp.V != sp.Temp.V || rp.Temp.Z0 != sp.Temp.Z0 {
		t.Errorf("post-restart ramp drifted: %+v vs %+v", rp.Temp, sp.Temp)
	}
	if ok, maxd := sim.GlobalPhi().InteriorEqual(restored.GlobalPhi(), 1e-4); !ok {
		t.Errorf("mid-ramp restart diverged %g", maxd)
	}
}

// Checkpoints written while kernels were switchable at run time, or by a
// retired ladder rung, may carry kernel state a simulation can no longer be
// built with; Restore must refuse them naming the removed feature, never
// guess a variant. The two retired rungs that computed the production
// trajectory bit for bit restore as production; the oracle is refused,
// because the facade runs only the production kernels.
func TestRestoreRejectsRemovedKernelState(t *testing.T) {
	sim, err := New(DefaultConfig(8, 8, 8))
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
	// The three kernel slots follow magic+version (8), Step/Time/WindowShift
	// (24), the six decomposition int32s (24) and SchedulePos (8).
	const slotsOff = 64
	short := int32(kernels.VarShortcut)
	cases := []struct {
		name           string
		phi, mu, strat int32
		wantSub        string // "" = must restore as production
	}{
		{"as written", short, short, -1, ""},
		{"oracle", int32(kernels.VarGeneral), int32(kernels.VarGeneral), -1, "runs only the production kernels"},
		{"retired T(z) rung", 3, 3, -1, ""},
		{"retired staggered-buffer rung", 4, 4, -1, ""},
		{"retired basic rung", 1, 1, -1, `("basic waLBerla implementation"), a retired optimization-ladder rung`},
		{"retired SIMD rung", 2, 2, -1, `("with SIMD intrinsics"), a retired optimization-ladder rung`},
		{"φ≠µ variant", short, int32(kernels.VarGeneral), -1, "different φ and µ kernel variants"},
		{"pinned strategy", short, short, 2 /* the former four-cell pin */, "strategy pinning was removed"},
		{"unknown variant", 77, 77, -1, "unknown kernel variant"},
	}
	for _, c := range cases {
		raw := append([]byte(nil), buf.Bytes()...)
		for i, v := range [3]int32{c.phi, c.mu, c.strat} {
			binary.LittleEndian.PutUint32(raw[slotsOff+4*i:], uint32(v))
		}
		_, err := RestoreReader(bytes.NewReader(raw), Config{})
		if c.wantSub == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.wantSub)
		}
	}
}

func TestRestoreRejectsMissingFile(t *testing.T) {
	if _, err := Restore("/nonexistent/x.pfcp", Config{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteVTK(t *testing.T) {
	sim, err := New(DefaultConfig(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteVTK(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DIMENSIONS 8 8 8", "SCALARS Al float 1", "SCALARS Liquid float 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("VTK output missing %q", want)
		}
	}
}
