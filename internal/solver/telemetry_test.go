package solver

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// telemetry_test.go checks the step-phase capture layer: records must
// reflect the phases that actually ran, capture must be allocation-free in
// steady state, and a telemetered trajectory must be bit-identical to an
// untelemetered one.

func telemSim(t *testing.T, disable bool, ov OverlapMode) *Sim {
	t.Helper()
	const edge = 16
	bg, err := grid.NewBlockGrid(2, 1, 1, edge, edge, edge, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Temp.Z0 = float64(edge) / 2 * p.Dx
	s, err := New(Config{Params: p, BG: bg, Overlap: ov, Parallelism: 1, DisableStepTelemetry: disable})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStepTelemetryCapture(t *testing.T) {
	s := telemSim(t, false, OverlapNone)
	defer s.Close()
	s.Run(5)

	recs := s.StepRecords(nil)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Step != i+1 {
			t.Errorf("record %d has step %d", i, r.Step)
		}
		if r.Wall <= 0 || r.PhiKernel <= 0 || r.MuKernel <= 0 {
			t.Errorf("step %d phases not captured: %+v", r.Step, r)
		}
		if r.ActiveFraction <= 0 || r.ActiveFraction > 1 {
			t.Errorf("step %d active fraction %g out of range", r.Step, r.ActiveFraction)
		}
		if r.HaloBytes <= 0 {
			t.Errorf("step %d moved no halo bytes", r.Step)
		}
		if r.Start <= 0 {
			t.Errorf("step %d has no start timestamp", r.Step)
		}
	}

	tot := s.TelemetryTotals()
	if tot.Steps != 5 {
		t.Fatalf("totals cover %d steps, want 5", tot.Steps)
	}
	// With the ring far from wrapping, totals must equal the record sum.
	var sum obs.StepTotals
	for _, r := range recs {
		sum.Add(r)
	}
	if sum != tot {
		t.Errorf("totals %+v != record sum %+v", tot, sum)
	}
	if tot.MLUPs(s.GlobalCells()) <= 0 {
		t.Error("MLUP/s not positive")
	}

	// ResetMetrics re-anchors the delta baselines; the next step's record
	// must not go negative or double-count.
	s.ResetMetrics()
	s.Run(1)
	last := s.StepRecords(nil)
	r := last[len(last)-1]
	if r.PhiKernel <= 0 || r.PhiKernel > r.Wall*10 {
		t.Errorf("post-reset record implausible: %+v", r)
	}
}

func TestStepTelemetrySchedCkpt(t *testing.T) {
	s := telemSim(t, false, OverlapMu)
	defer s.Close()
	sched := mkSched(t, schedule.Checkpoint{Step: 0, Every: 2, Path: "unused-%d"})
	wrote := 0
	err := s.RunSchedule(4, sched, ScheduleHooks{
		WriteCheckpoint: func(path string, step int) error {
			wrote++
			time.Sleep(2 * time.Millisecond) // make the cost visible
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrote != 2 {
		t.Fatalf("checkpoint hook ran %d times, want 2", wrote)
	}
	recs := s.StepRecords(nil)
	tot := s.TelemetryTotals()
	if tot.Ckpt < 4*time.Millisecond {
		t.Errorf("totals charge %v to checkpoints, want >= 4ms", tot.Ckpt)
	}
	// The writes after steps 2 and 4 fold into those steps' records.
	if recs[1].Ckpt <= 0 || recs[3].Ckpt <= 0 {
		t.Errorf("ckpt cost not folded into step records: %+v / %+v", recs[1], recs[3])
	}
	if recs[0].Ckpt != 0 || recs[2].Ckpt != 0 {
		t.Errorf("ckpt cost charged to wrong steps: %+v / %+v", recs[0], recs[2])
	}
	if tot.Sched <= 0 {
		t.Error("schedule-scan time not captured")
	}
}

// TestTelemetryBitIdentical is the acceptance gate: the same simulation
// stepped with telemetry on and off must produce bit-identical fields.
func TestTelemetryBitIdentical(t *testing.T) {
	for _, ov := range []OverlapMode{OverlapNone, OverlapMu} {
		on := telemSim(t, false, ov)
		off := telemSim(t, true, ov)
		on.Run(6)
		off.Run(6)
		if len(off.StepRecords(nil)) != 0 {
			t.Error("disabled telemetry still records")
		}
		for r := 0; r < on.NumRanks(); r++ {
			if ok, maxd := on.RankFields(r).PhiSrc.InteriorEqual(off.RankFields(r).PhiSrc, 0); !ok {
				t.Errorf("%v rank %d: φ differs by %g with telemetry on", ov, r, maxd)
			}
			if ok, maxd := on.RankFields(r).MuSrc.InteriorEqual(off.RankFields(r).MuSrc, 0); !ok {
				t.Errorf("%v rank %d: µ differs by %g with telemetry on", ov, r, maxd)
			}
		}
		on.Close()
		off.Close()
	}
}

// TestStepTelemetryAllocFree pins the capture layer to the same per-step
// allocation budget the comm path meets: the fan-out of stepAllocs, with
// nothing on top of it.
func TestStepTelemetryAllocFree(t *testing.T) {
	s := telemSim(t, false, OverlapNone)
	defer s.Close()
	s.Run(3) // warm-up: fill buffer pools and the record ring's capacity

	before := s.World.PackAllocs()
	avg := testing.AllocsPerRun(10, func() { s.Run(1) })
	if got := s.World.PackAllocs(); got != before {
		t.Errorf("telemetered steady-state Run(1) allocated %d pack buffers", got-before)
	}
	if want := stepAllocs(2); avg > want {
		t.Errorf("telemetered steady-state Run(1) allocates %.1f objects (budget %g, same as telemetry off)", avg, want)
	}
}
