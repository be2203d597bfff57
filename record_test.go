package phasefield

import (
	"testing"

	"repro/internal/schedule"
)

// The schedule recorder's dump must be replayable: running a fresh
// simulation under the recorded schedule reproduces the original
// trajectory bit-for-bit.
func TestRecordedScheduleReplays(t *testing.T) {
	cfg := DefaultConfig(12, 12, 16)
	cfg.Seed = 5
	const steps = 20

	sched, err := schedule.New(
		schedule.Ramp{Param: schedule.ParamPullVelocity, Step: 0, Over: 15, From: 0.02, To: 0.05},
		schedule.NucleationBurst{Step: 4, Count: 2, Phase: -1, Radius: 1.5, ZMin: 10, ZMax: 14, Seed: 9},
	)
	if err != nil {
		t.Fatal(err)
	}

	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.InitFront(); err != nil {
		t.Fatal(err)
	}
	if err := orig.RunSchedule(sched, steps, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}

	blob, err := orig.AppliedScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := schedule.FromJSONBytes(blob)
	if err != nil {
		t.Fatalf("recorded schedule not replayable: %v\n%s", err, blob)
	}
	if len(recorded.Events) != 2 {
		t.Fatalf("recorder captured %d events, want 2:\n%s", len(recorded.Events), blob)
	}

	replay, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.InitFront(); err != nil {
		t.Fatal(err)
	}
	if err := replay.RunSchedule(recorded, steps, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}

	if ok, maxd := orig.GlobalPhi().InteriorEqual(replay.GlobalPhi(), 0); !ok {
		t.Errorf("replayed φ trajectory differs by %g", maxd)
	}
	if ok, maxd := orig.sim.GatherGlobalMu().InteriorEqual(replay.sim.GatherGlobalMu(), 0); !ok {
		t.Errorf("replayed µ trajectory differs by %g", maxd)
	}
}

// Events that never fired (outside the run window) must not appear in the
// audit log; a ramp applied across many steps must appear exactly once.
func TestRecorderScope(t *testing.T) {
	cfg := DefaultConfig(10, 10, 12)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InitFront(); err != nil {
		t.Fatal(err)
	}
	sched, err := schedule.New(
		schedule.Ramp{Param: schedule.ParamGradient, Step: 0, Over: 5, From: 1, To: 2},
		schedule.NucleationBurst{Step: 500, Count: 1, Phase: 0, Radius: 1.5, ZMin: 2, ZMax: 8, Seed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSchedule(sched, 10, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	events := sim.AppliedEvents()
	if len(events) != 1 {
		t.Fatalf("audit log has %d events, want 1 (the ramp): %v", len(events), events)
	}
	if _, ok := events[0].(schedule.Ramp); !ok {
		t.Fatalf("audit log holds %T, want Ramp", events[0])
	}
}
