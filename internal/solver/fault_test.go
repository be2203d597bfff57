package solver

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/grid"
)

// faultTestSim builds a small interface-scenario sim with an armed fault
// registry, on either the serial path (parallelism = block count) or the
// pool path (parallelism > block count).
func faultTestSim(t *testing.T, px, parallelism int, pts *faultfs.Points) *Sim {
	t.Helper()
	bg, err := grid.NewBlockGrid(px, 1, 1, 16/px, 8, 16, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Dt = 0.8 * p.StableDt()
	s, err := New(Config{Params: p, BG: bg, Overlap: OverlapMu,
		Parallelism: parallelism, Faults: pts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepPanicRecoveredSerial(t *testing.T) {
	pts := faultfs.NewPoints()
	s := faultTestSim(t, 2, 2, pts) // one slab per rank: serial path

	if err := s.RunSchedule(3, nil, ScheduleHooks{}); err != nil {
		t.Fatalf("clean steps failed: %v", err)
	}
	pts.Arm(SweepPoint, 1, 1) // second sweep task of the next step panics

	err := s.RunSchedule(5, nil, ScheduleHooks{})
	if err == nil {
		t.Fatal("want a kernel fault, got nil")
	}
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("error %T is not a *KernelFault: %v", err, err)
	}
	inj, ok := kf.Value.(faultfs.Injected)
	if !ok || inj.Point != SweepPoint {
		t.Fatalf("fault value = %#v, want Injected at %q", kf.Value, SweepPoint)
	}
	if kf.Stack == "" {
		t.Fatal("fault carries no stack trace")
	}
	if s.StepCount() != 3 {
		t.Fatalf("faulted step counted: step = %d, want 3", s.StepCount())
	}

	// The fault is sticky: the sim refuses to step again.
	if err := s.RunSchedule(1, nil, ScheduleHooks{}); !errors.As(err, &kf) {
		t.Fatalf("faulted sim stepped again: %v", err)
	}
	if s.Fault() == nil {
		t.Fatal("Fault() = nil after a recorded fault")
	}
}

func TestSweepPanicRecoveredPool(t *testing.T) {
	pts := faultfs.NewPoints()
	s := faultTestSim(t, 1, 4, pts) // 4 workers on 1 block: pool path
	if s.workersPerRank < 2 {
		t.Fatal("test did not engage the worker pool")
	}

	pts.Arm(SweepPoint, 2, 1) // a mid-sweep slab panics

	err := s.RunSchedule(4, nil, ScheduleHooks{})
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("want *KernelFault from pool path, got %v", err)
	}

	// The pool survives: workers recovered, gauge balanced, and a fresh
	// sim sharing nothing still runs (the poisoned one stays refused).
	if got := s.gauge.Active(); got != 0 {
		t.Fatalf("gauge reports %d busy workers after recovery", got)
	}
	s2 := faultTestSim(t, 1, 4, nil)
	if err := s2.RunSchedule(2, nil, ScheduleHooks{}); err != nil {
		t.Fatalf("fresh sim after fault: %v", err)
	}
}

func TestRunRepanicsKernelFault(t *testing.T) {
	pts := faultfs.NewPoints()
	s := faultTestSim(t, 1, 1, pts)
	pts.Arm(SweepPoint, 0, 1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-panic the kernel fault")
		}
		if _, ok := r.(*KernelFault); !ok {
			t.Fatalf("Run panicked with %T, want *KernelFault", r)
		}
	}()
	s.Run(1)
}

func TestPerOpSweepPoint(t *testing.T) {
	pts := faultfs.NewPoints()
	s := faultTestSim(t, 1, 1, pts)
	pts.Arm(SweepPoint+".mu", 0, 1) // only the µ-sweep panics

	err := s.RunSchedule(1, nil, ScheduleHooks{})
	var kf *KernelFault
	if !errors.As(err, &kf) {
		t.Fatalf("want *KernelFault, got %v", err)
	}
	if kf.Op != "mu" {
		t.Fatalf("fault op = %q, want %q", kf.Op, "mu")
	}
}
