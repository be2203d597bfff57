package jobd

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro"
	"repro/internal/ckpt"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// uninterruptedFinal runs the spec's simulation start-to-finish in-process
// and returns its final lossless checkpoint — the reference a
// preempted-and-resumed job must match bit-for-bit.
func uninterruptedFinal(t *testing.T, spec Spec, parallelism int) []byte {
	t.Helper()
	sched, err := spec.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := phasefield.DefaultConfig(spec.NX, spec.NY, spec.NZ)
	cfg.PX, cfg.PY = spec.PX, spec.PY
	cfg.Seed = spec.Seed
	cfg.MovingWindow = spec.Window
	cfg.Parallelism = parallelism
	sim, err := phasefield.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if spec.Scenario == "interface" {
		err = sim.InitFront()
	} else {
		err = sim.InitProduction()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunSchedule(sched, spec.Steps, phasefield.ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, ckpt.Float64); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resultOf returns j's final checkpoint as GET /jobs/{id}/result serves
// it: from memory until the result is spilled, then from the store.
func resultOf(t *testing.T, s *Server, j *Job) []byte {
	t.Helper()
	b, err := s.resultBytes(j)
	if err != nil {
		t.Fatalf("result of %s: %v", j.ID, err)
	}
	return b
}

// diffCheckpoints fails the test unless two lossless checkpoints are
// byte-identical, reporting the φ/µ field divergence when they are not.
func diffCheckpoints(t *testing.T, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	hg, fg, err1 := ckpt.Read(bytes.NewReader(got))
	hw, fw, err2 := ckpt.Read(bytes.NewReader(want))
	if err1 != nil || err2 != nil {
		t.Fatalf("checkpoints differ and did not parse: %v / %v", err1, err2)
	}
	if hg != hw {
		t.Errorf("headers differ:\n got %+v\nwant %+v", hg, hw)
	}
	for i := range fw {
		if ok, maxd := fg[i].PhiSrc.InteriorEqual(fw[i].PhiSrc, 0); !ok {
			t.Errorf("rank %d: φ differs by %g", i, maxd)
		}
		if ok, maxd := fg[i].MuSrc.InteriorEqual(fw[i].MuSrc, 0); !ok {
			t.Errorf("rank %d: µ differs by %g", i, maxd)
		}
	}
	t.Fatal("preempted-and-resumed job is not bit-identical to the uninterrupted run")
}

// preemptResumeSpec is the 40-step single-block job used by the
// bit-identity tests; the schedule's ramp windows span the whole run, so
// any preemption point is mid-ramp.
func preemptResumeSpec(scheduleJSON string) Spec {
	return Spec{
		Name: "A", NX: 12, NY: 12, NZ: 16, Steps: 40, Seed: 3,
		Scenario: "interface", Schedule: json.RawMessage(scheduleJSON),
	}
}

// runPreemptResume drives a server through submit → preempt (via a
// higher-priority job) → resume → done, and returns the preempted job.
func runPreemptResume(t *testing.T, spec Spec) (*Server, *Job) {
	t.Helper()
	s := New(Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1})
	s.Start()
	defer s.Close()

	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job A to take a few steps", 30*time.Second, func() bool {
		return a.Status().Step >= 3
	})
	b, err := s.Submit(Spec{Name: "B", NX: 8, NY: 8, NZ: 8, Steps: 3,
		Priority: 10, Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job B (high priority) to finish", 30*time.Second, func() bool {
		return b.State() == StateDone
	})
	waitFor(t, "job A to resume and finish", 60*time.Second, func() bool {
		return a.State() == StateDone
	})

	st := a.Status()
	if st.Preemptions < 1 {
		t.Fatalf("job A was never preempted (preemptions=%d)", st.Preemptions)
	}
	if st.Step != spec.Steps {
		t.Fatalf("job A finished at step %d, want %d", st.Step, spec.Steps)
	}
	return s, a
}

// The core acceptance property: a job preempted mid-run (here mid-Ramp —
// the pull-velocity ramp spans all 40 steps) and resumed from its lossless
// snapshot produces bit-identical final φ/µ fields to the same job run
// uninterrupted.
func TestPreemptResumeBitIdenticalMidRamp(t *testing.T) {
	spec := preemptResumeSpec(`{"events":[
		{"type":"ramp","param":"v","step":0,"over":40,"from":0.02,"to":0.06},
		{"type":"burst","step":2,"count":2,"phase":-1,"radius":1.5,"zmin":10,"zmax":14,"seed":5}
	]}`)
	s, a := runPreemptResume(t, spec)
	diffCheckpoints(t, resultOf(t, s, a), uninterruptedFinal(t, spec, 2))
}

// Same property with the preemption landing mid-SetBC-ramp: the bottom µ
// wall ramps over the whole run, so the wall state at the preemption point
// is mid-interpolation and must be reconstructed exactly from the V4
// snapshot header.
func TestPreemptResumeBitIdenticalMidSetBCRamp(t *testing.T) {
	spec := preemptResumeSpec(`{"events":[
		{"type":"setbc","step":0,"over":40,"face":"z-","field":"mu","kind":"dirichlet",
		 "from":[0,0],"to":[0.08,-0.04]},
		{"type":"ramp","param":"G","step":0,"over":40,"from":1,"to":1.5}
	]}`)
	s, a := runPreemptResume(t, spec)
	diffCheckpoints(t, resultOf(t, s, a), uninterruptedFinal(t, spec, 2))
}

// Two jobs running concurrently — plus a third rebalanced in as slots
// free — must never drive more sweep workers than the configured global
// budget; the shared WorkerGauge instrumenting every sweep path is the
// witness.
func TestBudgetNeverExceeded(t *testing.T) {
	const budget = 4
	s := New(Config{MaxConcurrent: 2, Budget: budget, ReportEvery: 1})
	s.Start()
	defer s.Close()

	specs := []Spec{
		{Name: "j1", NX: 10, NY: 10, NZ: 24, Steps: 12, Scenario: "interface"},
		{Name: "j2", NX: 10, NY: 10, NZ: 24, Steps: 18, Scenario: "interface"},
		{Name: "j3", NX: 10, NY: 10, NZ: 24, Steps: 12, Scenario: "interface"},
	}
	var jobs []*Job
	for _, sp := range specs {
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	waitFor(t, "all jobs to finish", 120*time.Second, func() bool {
		for _, j := range jobs {
			if j.State() != StateDone {
				return false
			}
		}
		return true
	})

	if max := s.Gauge().Max(); max > budget {
		t.Errorf("gauge recorded %d concurrently busy sweep workers, budget is %d", max, budget)
	} else if max == 0 {
		t.Error("gauge recorded no sweep workers at all — instrumentation broken")
	}
}

// Canceling a queued job is immediate; canceling a running job stops it at
// the next step boundary.
func TestCancel(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Budget: 1, ReportEvery: 1})
	s.Start()
	defer s.Close()

	a, err := s.Submit(Spec{NX: 10, NY: 10, NZ: 12, Steps: 400, Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Spec{NX: 8, NY: 8, NZ: 8, Steps: 5, Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}

	if st, ok := s.Cancel(queued.ID); !ok || st != StateCanceled {
		t.Fatalf("queued cancel: state %v ok %v", st, ok)
	}
	waitFor(t, "running job to start", 30*time.Second, func() bool {
		return a.State() == StateRunning
	})
	if _, ok := s.Cancel(a.ID); !ok {
		t.Fatal("running cancel rejected")
	}
	waitFor(t, "running job to stop", 30*time.Second, func() bool {
		return a.State() == StateCanceled
	})
	if _, ok := s.Cancel("job-9999"); ok {
		t.Error("cancel of unknown job succeeded")
	}
}

// Drain preempts in-flight jobs into the store; a fresh server over the
// same directory resumes them and the completed trajectory is still
// bit-identical to an uninterrupted run (daemon restarts are invisible to
// the physics).
func TestDrainResume(t *testing.T) {
	cfg := Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1, StoreDir: t.TempDir()}
	spec := preemptResumeSpec(`{"events":[
		{"type":"ramp","param":"v","step":0,"over":40,"from":0.02,"to":0.05}
	]}`)

	s1 := New(cfg)
	if _, err := s1.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s1.Start()
	a, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to take a few steps", 30*time.Second, func() bool {
		return a.Status().Step >= 3
	})
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := a.State(); st != StateQueued {
		t.Fatalf("drained job state %v, want queued", st)
	}
	if _, err := s1.Submit(spec); !IsDraining(err) {
		t.Errorf("submit while draining: err %v", err)
	}

	s2 := New(cfg)
	n, err := s2.LoadStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("store restored %d jobs, want 1", n)
	}
	s2.Start()
	defer s2.Close()
	a2, ok := s2.Get(a.ID)
	if !ok {
		t.Fatalf("job %s not found after store load", a.ID)
	}
	waitFor(t, "resumed job to finish", 60*time.Second, func() bool {
		return a2.State() == StateDone
	})
	if a2.Status().Preemptions < 1 {
		t.Error("resumed job lost its preemption count")
	}
	diffCheckpoints(t, resultOf(t, s2, a2), uninterruptedFinal(t, spec, 2))
}

// Submissions that cannot run are rejected at the API boundary.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Budget: 2})
	cases := []Spec{
		{NX: 0, NY: 8, NZ: 8, Steps: 5},
		{NX: 9, NY: 8, NZ: 8, PX: 2, Steps: 5},
		{NX: 8, NY: 8, NZ: 8, Steps: 0},
		{NX: 8, NY: 8, NZ: 8, Steps: 5, Scenario: "nope"},
		{NX: 8, NY: 8, NZ: 8, Steps: 5, Schedule: json.RawMessage(`{"events":[{"type":"wat"}]}`)},
		{NX: 8, NY: 8, NZ: 8, PX: 2, PY: 2, Steps: 5}, // 4 blocks > budget 2
		// Path-bearing checkpoint events would be an arbitrary file write
		// on the daemon host.
		{NX: 8, NY: 8, NZ: 8, Steps: 5, Schedule: json.RawMessage(
			`{"events":[{"type":"checkpoint","every":1,"path":"/tmp/evil"}]}`)},
	}
	for i, sp := range cases {
		if _, err := s.Submit(sp); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, sp)
		}
	}
}
