package jobd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/jobd/store"
)

// fault_test.go — the deterministic fault-injection harness's daemon-level
// suites: panic isolation, checkpoint-based retries, the watchdog, and the
// runner's failure paths. The degraded-store and crash-point suites live
// in faultstore_test.go.

// chaosConfig is the daemon configuration the fault suites share: fast
// retries, frequent safety snapshots, fault specs allowed.
func chaosConfig() Config {
	return Config{
		MaxConcurrent: 1, Budget: 2, ReportEvery: 1,
		SnapshotEvery: 10, RetryBackoff: time.Millisecond,
		AllowFaults: true,
	}
}

// smallSpec is a fast 3-step job for tests that only care about daemon
// behavior, not the trajectory.
func smallSpec(name string) Spec {
	return Spec{Name: name, NX: 8, NY: 8, NZ: 8, Steps: 3, Scenario: "interface"}
}

func TestFaultSpecRejectedWithoutChaos(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Budget: 2})
	s.Start()
	defer s.Close()
	spec := smallSpec("no-chaos")
	spec.Fault = &FaultSpec{Mode: FaultFailStep, Step: 1}
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("fault-bearing spec accepted without AllowFaults")
	}
}

// Acceptance (a): an injected kernel panic fails only its job. A clean job
// running concurrently finishes byte-identical to an uninterrupted run,
// the worker pool survives, and the daemon keeps accepting work.
func TestPanicIsolationConcurrentJobs(t *testing.T) {
	cfg := chaosConfig()
	cfg.MaxConcurrent = 2
	cfg.SnapshotEvery = 0 // no retries here: the panic must quarantine
	s := New(cfg)
	s.Start()
	defer s.Close()

	clean := preemptResumeSpec(`{"events":[
		{"type":"ramp","param":"v","step":0,"over":40,"from":0.02,"to":0.05}]}`)
	want := uninterruptedFinal(t, clean, 1)

	poison := smallSpec("poison")
	poison.Steps = 10
	poison.Fault = &FaultSpec{Mode: FaultPanicSweep, Step: 2}
	a, err := s.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(clean)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, "poisoned job to fail", 30*time.Second, func() bool {
		return a.State() == StateFailed
	})
	st := a.Status()
	if !strings.Contains(st.Error, "kernel panic") {
		t.Fatalf("poisoned job error = %q, want a kernel panic", st.Error)
	}
	waitFor(t, "clean job to finish", 60*time.Second, func() bool {
		return b.State() == StateDone
	})
	diffCheckpoints(t, resultOf(t, s, b), want)

	// The daemon still serves: a fresh job completes and the shared gauge
	// is balanced (no worker leaked into the dead job).
	c, err := s.Submit(smallSpec("after"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-panic job to finish", 30*time.Second, func() bool {
		return c.State() == StateDone
	})
	if got := s.Gauge().Active(); got != 0 {
		t.Fatalf("gauge reports %d busy workers after the panic", got)
	}
}

// Acceptance (b): a transient fault consumes a retry, the retry resumes
// from the last safety snapshot, and the final result is byte-identical
// to an uninterrupted run. Exercised for both fault flavors.
func TestRetryResumesBitIdentical(t *testing.T) {
	for _, mode := range []string{FaultFailStep, FaultPanicSweep} {
		t.Run(mode, func(t *testing.T) {
			spec := preemptResumeSpec(`{"events":[
				{"type":"ramp","param":"v","step":0,"over":40,"from":0.02,"to":0.05}]}`)
			want := uninterruptedFinal(t, spec, 1)

			s := New(chaosConfig())
			s.Start()
			defer s.Close()

			spec.MaxRetries = 2
			spec.Fault = &FaultSpec{Mode: mode, Step: 25, Times: 1}
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "faulted job to retry and finish", 120*time.Second, func() bool {
				return j.State() == StateDone
			})
			st := j.Status()
			if st.Retries != 1 {
				t.Fatalf("retries = %d, want 1", st.Retries)
			}
			if st.LastError == "" {
				t.Fatal("a retried job must keep its last error for diagnosis")
			}
			if st.Error != "" {
				t.Fatalf("a recovered job must not report a terminal error, got %q", st.Error)
			}
			diffCheckpoints(t, resultOf(t, s, j), want)
		})
	}
}

// A persistent fault exhausts the retry budget and quarantines the job,
// with the retry count and errors visible in the status.
func TestRetriesExhaustedQuarantined(t *testing.T) {
	s := New(chaosConfig())
	s.Start()
	defer s.Close()

	spec := smallSpec("doomed")
	spec.Steps = 6
	spec.MaxRetries = 2
	spec.Fault = &FaultSpec{Mode: FaultFailStep, Step: 2, Times: 10}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to exhaust its retries", 60*time.Second, func() bool {
		return j.State() == StateFailed
	})
	st := j.Status()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want the full budget of 2", st.Retries)
	}
	if !strings.Contains(st.Error, "injected failure") || st.LastError == "" {
		t.Fatalf("quarantined status lacks its errors: error=%q last_error=%q",
			st.Error, st.LastError)
	}
}

// The watchdog reclaims a wedged job: the injected stall never reaches
// another timestep boundary on its own, the stall is detected, the slot
// reclaimed, and the retry completes the job.
func TestWatchdogStallRetry(t *testing.T) {
	cfg := chaosConfig()
	cfg.StallTimeout = 300 * time.Millisecond
	cfg.SnapshotEvery = 2
	s := New(cfg)
	s.Start()
	defer s.Close()

	spec := smallSpec("wedged")
	spec.Steps = 6
	spec.MaxRetries = 1
	spec.Fault = &FaultSpec{Mode: FaultStallStep, Step: 3, Times: 1}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stalled job to be reclaimed and finish", 60*time.Second, func() bool {
		return j.State() == StateDone
	})
	st := j.Status()
	if st.Stalls < 1 {
		t.Fatalf("stalls = %d, want >= 1", st.Stalls)
	}
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if !strings.Contains(st.LastError, "watchdog") {
		t.Fatalf("last_error = %q, want the watchdog verdict", st.LastError)
	}
}

// Satellite: runner failure paths, asserted through the HTTP API.

// A DELETE arriving while the job sits out its retry backoff cancels it
// immediately — the backoff gate must not delay cancellation.
func TestAPICancelDuringRetryBackoff(t *testing.T) {
	cfg := chaosConfig()
	cfg.RetryBackoff = time.Hour // park the retry far in the future
	s, ts := apiServer(t, cfg)

	spec := smallSpec("backoff")
	spec.Steps = 6
	spec.MaxRetries = 3
	spec.Fault = &FaultSpec{Mode: FaultFailStep, Step: 2, Times: 10}
	st := submit(t, ts.URL, spec)

	waitFor(t, "job to enter retry backoff", 30*time.Second, func() bool {
		var now Status
		getJSON(t, ts.URL+"/jobs/"+st.ID, &now)
		return now.Retries == 1 && now.State == StateQueued
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "backoff job to cancel", 10*time.Second, func() bool {
		var now Status
		getJSON(t, ts.URL+"/jobs/"+st.ID, &now)
		return now.State == StateCanceled
	})
	_ = s
}

// A corrupt resume snapshot (here: a well-hashed blob a previous daemon
// drained that is not a checkpoint) makes buildSim fail; the job is
// quarantined as failed, not retried forever, and the API reports the
// checkpoint error.
func TestAPIBuildSimErrorFromCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.PutBlob([]byte("not a checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	m := jobManifest{ID: "job-0001", Spec: smallSpec("corrupt"), State: StateQueued,
		Step: 2, Snapshot: hash}
	if err := st.PutManifest(store.JobsBucket, m.ID, &m); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(Config{MaxConcurrent: 1, Budget: 2, StoreDir: dir})
	if n, err := s.LoadStore(); err != nil || n != 1 {
		t.Fatalf("LoadStore = %d, %v", n, err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	waitFor(t, "corrupt-snapshot job to fail", 30*time.Second, func() bool {
		var now Status
		getJSON(t, ts.URL+"/jobs/job-0001", &now)
		return now.State == StateFailed && now.Error != ""
	})
	// No result must be claimed for it.
	code, body := getBytes(t, ts.URL+"/jobs/job-0001/result")
	wantAPIError(t, "GET /result of failed job", code, body, http.StatusConflict, CodeConflict)
}

// A schedule that ramps dt past the stability limit fails mid-run inside
// RunSchedule; the error reaches the API status.
func TestAPIMidRunScheduleError(t *testing.T) {
	s, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1})
	spec := smallSpec("unstable")
	spec.Steps = 20
	spec.Schedule = json.RawMessage(`{"events":[
		{"type":"ramp","param":"dt","step":2,"over":10,"from":1e-6,"to":1.0}]}`)
	st := submit(t, ts.URL, spec)
	waitFor(t, "unstable ramp to fail the job", 30*time.Second, func() bool {
		var now Status
		getJSON(t, ts.URL+"/jobs/"+st.ID, &now)
		return now.State == StateFailed
	})
	var now Status
	getJSON(t, ts.URL+"/jobs/"+st.ID, &now)
	if !strings.Contains(now.Error, "stability") {
		t.Fatalf("error = %q, want the dt stability violation", now.Error)
	}
	_ = s
}

// Oversized request bodies are cut off with 413, not read to completion.
func TestAPIRequestBodyCap(t *testing.T) {
	_, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 2})
	big := fmt.Sprintf(`{"nx":8,"ny":8,"nz":8,"steps":3,"name":%q}`,
		strings.Repeat("x", MaxRequestBody+1))
	code, body := postBytes(t, ts.URL+"/jobs", big)
	wantAPIError(t, "oversized POST /jobs", code, body, http.StatusRequestEntityTooLarge, CodeTooLarge)
}

// The daemon-wide metrics endpoint exports the fleet counters.
func TestAPIDaemonMetrics(t *testing.T) {
	cfg := chaosConfig()
	s, ts := apiServer(t, cfg)
	spec := smallSpec("metrics")
	spec.Steps = 6
	spec.MaxRetries = 1
	spec.Fault = &FaultSpec{Mode: FaultFailStep, Step: 2, Times: 1}
	st := submit(t, ts.URL, spec)
	waitFor(t, "metrics job to finish", 60*time.Second, func() bool {
		var now Status
		getJSON(t, ts.URL+"/jobs/"+st.ID, &now)
		return now.State == StateDone
	})
	code, body := getBytes(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`jobd_jobs{state="done"} 1`,
		"jobd_retries_total 1",
		"jobd_store_degraded 0",
		"jobd_workers_budget 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, text)
		}
	}
	_ = s
}

// The fault budget (Times) spans attempts, not jobs: two jobs with the
// same fault spec each get their own budget.
func TestFaultBudgetPerJob(t *testing.T) {
	s := New(chaosConfig())
	s.Start()
	defer s.Close()
	for i := 0; i < 2; i++ {
		spec := smallSpec(fmt.Sprintf("budget-%d", i))
		spec.Steps = 6
		spec.MaxRetries = 1
		spec.Fault = &FaultSpec{Mode: FaultFailStep, Step: 2, Times: 1}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "budgeted job to finish", 60*time.Second, func() bool {
			return j.State() == StateDone
		})
		if st := j.Status(); st.Retries != 1 {
			t.Fatalf("job %d: retries = %d, want 1", i, st.Retries)
		}
	}
}

// Retry state survives a drain/restart cycle: a job drained mid-backoff
// comes back with its retry count, stall count and last error.
func TestDrainPreservesRetryState(t *testing.T) {
	cfg := chaosConfig()
	cfg.StoreDir = t.TempDir()
	cfg.RetryBackoff = time.Hour
	s := New(cfg)
	if _, err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s.Start()

	spec := smallSpec("drained")
	spec.Steps = 6
	spec.MaxRetries = 3
	spec.Fault = &FaultSpec{Mode: FaultFailStep, Step: 2, Times: 10}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to enter retry backoff", 30*time.Second, func() bool {
		st := j.Status()
		return st.Retries == 1 && st.State == StateQueued
	})
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	n, err := s2.LoadStore()
	if err != nil || n != 1 {
		t.Fatalf("LoadStore = %d, %v", n, err)
	}
	defer s2.Close()
	j2, ok := s2.Get(j.ID)
	if !ok {
		t.Fatalf("restarted daemon lost %s", j.ID)
	}
	st := j2.Status()
	if st.Retries != 1 || st.LastError == "" {
		t.Fatalf("restored status lost retry state: %+v", st)
	}
}

// Sanity for the store package wiring: a daemon configured with an
// injectable store FS uses it (proven by a rule that fails everything —
// LoadStore must surface the injected error).
func TestStoreFSPlumbing(t *testing.T) {
	inj := faultfs.NewInject(nil, &faultfs.Rule{Op: faultfs.OpMkdirAll, Err: faultfs.ErrInjected})
	s := New(Config{StoreDir: t.TempDir(), StoreFS: inj})
	if _, err := s.LoadStore(); err == nil {
		t.Fatal("LoadStore ignored the injected filesystem")
	}
	_ = store.JobsBucket
}
