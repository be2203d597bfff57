package jobd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/promtest"
)

// metrics_test.go — the daemon observability surface: GET /metrics must be
// strictly valid Prometheus text exposition (format 0.0.4) including the
// telemetry series, survive concurrent scrapes under -race, and
// GET /jobs/{id}/trace must serve loadable Chrome trace_event JSON.
// Strict format validation lives in internal/obs/promtest, shared with the
// federation gateway's scrape tests.

// scrape fetches GET /metrics and returns the body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDaemonMetricsFormat: the full /metrics payload — with a multi-block
// job running so every telemetry family has series — must pass the strict
// exposition parser, and the new families must carry sane values.
func TestDaemonMetricsFormat(t *testing.T) {
	srv, ts := apiServer(t, Config{MaxConcurrent: 2, Budget: 2, ReportEvery: 1,
		Classes: map[string]int{"small": 1}})

	// Two x-blocks so halo flows and exchange latencies exist.
	st := submit(t, ts.URL, Spec{NX: 8, NY: 8, NZ: 10, PX: 2, Steps: 100000, Scenario: "interface"})
	j, _ := srv.Get(st.ID)
	waitFor(t, "job to report telemetry", 60*time.Second, func() bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.telemTot.Steps > 0 && len(j.flows) > 0
	})

	series := promtest.Parse(t, scrape(t, ts.URL))

	for _, want := range []struct {
		name   string
		labels []string
	}{
		{"jobd_jobs", []string{`state="running"`}},
		{"jobd_workers_active", nil},
		{"jobd_workers_active", []string{`class="default"`}},
		{"jobd_workers_active", []string{`class="small"`}},
		{"jobd_workers_budget", []string{`class="small"`}},
		{"jobd_active_fraction", []string{`job="` + st.ID + `"`}},
		{"jobd_job_phase_seconds_total", []string{`job="` + st.ID + `"`, `phase="phi_kernel"`}},
		{"jobd_halo_bytes_total", []string{`job="` + st.ID + `"`, `tag="phi"`}},
		{"jobd_halo_frames_total", []string{`job="` + st.ID + `"`}},
		{"jobd_halo_sleeps_total", []string{`job="` + st.ID + `"`}},
		{"jobd_exchange_latency_seconds_bucket", []string{`le="+Inf"`, `tag="phi"`}},
		{"jobd_exchange_latency_seconds_sum", []string{`tag="phi"`}},
		{"jobd_exchange_latency_seconds_count", []string{`tag="phi"`}},
	} {
		if _, ok := promtest.FindSeries(t, series, want.name, want.labels...); !ok {
			t.Errorf("missing series %s with labels %v", want.name, want.labels)
		}
	}

	if v, _ := promtest.FindSeries(t, series, "jobd_workers_budget", `class="small"`); v != 1 {
		t.Errorf("small class budget %g, want 1", v)
	}
	if v, _ := promtest.FindSeries(t, series, "jobd_job_phase_seconds_total", `phase="phi_kernel"`); v <= 0 {
		t.Errorf("phi kernel seconds %g, want > 0", v)
	}
	if v, _ := promtest.FindSeries(t, series, "jobd_halo_bytes_total", `tag="phi"`); v <= 0 {
		t.Errorf("halo bytes %g, want > 0", v)
	}
	// The +Inf bucket of a histogram must equal its _count.
	inf, _ := promtest.FindSeries(t, series, "jobd_exchange_latency_seconds_bucket", `le="+Inf"`, `tag="phi"`)
	count, _ := promtest.FindSeries(t, series, "jobd_exchange_latency_seconds_count", `tag="phi"`)
	if inf != count || count <= 0 {
		t.Errorf("+Inf bucket %g != count %g (or empty)", inf, count)
	}
}

// TestDaemonMetricsScrapeConcurrent hammers /metrics from several
// goroutines while a job steps and finishes — the handler must stay
// race-free against the runner's telemetry updates (CI runs this under
// -race).
func TestDaemonMetricsScrapeConcurrent(t *testing.T) {
	srv, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1})
	st := submit(t, ts.URL, Spec{NX: 8, NY: 8, NZ: 10, PX: 2, Steps: 40, Scenario: "interface"})
	j, _ := srv.Get(st.ID)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, "job to finish under scrape load", 120*time.Second, func() bool {
		return j.State() == StateDone
	})
	close(done)
	wg.Wait()

	// One last full strict parse after the job went terminal.
	promtest.Parse(t, scrape(t, ts.URL))
}

// traceDoc mirrors the Chrome trace_event envelope for decoding.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int64          `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestJobTraceAndSamplePhases runs a small job to completion while
// following its metrics stream, then checks that (a) samples carried phase
// breakdowns, and (b) the trace endpoint serves valid trace_event JSON
// with lifecycle marks and per-step spans.
func TestJobTraceAndSamplePhases(t *testing.T) {
	srv, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 2})

	// Phases ride the metrics stream: subscribe to a long-running job,
	// wait for a breakdown-bearing sample, then cancel it.
	long := submit(t, ts.URL, Spec{NX: 8, NY: 8, NZ: 10, Steps: 100000, Scenario: "interface"})
	lj, _ := srv.Get(long.ID)
	ch, cancel := lj.subscribe()
	gotPhases := false
	deadline := time.After(60 * time.Second)
	for !gotPhases {
		select {
		case s, open := <-ch:
			if !open {
				t.Fatalf("stream closed before any phase breakdown (job %s)", lj.State())
			}
			if s.Phases != nil {
				gotPhases = true
				if s.Phases.Steps <= 0 || s.Phases.PhiKernelMs <= 0 {
					t.Errorf("degenerate phase breakdown: %+v", s.Phases)
				}
			}
		case <-deadline:
			t.Fatal("no sample carried a phase breakdown")
		}
	}
	cancel()
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+long.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	// The trace endpoint serves the whole lifecycle of a completed job.
	st := submit(t, ts.URL, Spec{NX: 8, NY: 8, NZ: 10, Steps: 10, Scenario: "interface"})
	j, _ := srv.Get(st.ID)
	waitFor(t, "job to finish", 120*time.Second, func() bool {
		return j.State() == StateDone
	})

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d %s", resp.StatusCode, body)
	}
	var doc traceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, body)
	}
	kinds := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		kinds[ev.Ph]++
		names[ev.Name] = true
		if ev.Ph == "X" && ev.Dur < 1 {
			t.Errorf("complete event %q has dur %d", ev.Name, ev.Dur)
		}
	}
	if kinds["M"] == 0 || kinds["i"] == 0 || kinds["X"] == 0 {
		t.Fatalf("trace lacks metadata/instant/span events: %v", kinds)
	}
	for _, want := range []string{"submit", "start", "done", "phi", "mu"} {
		if !names[want] {
			t.Errorf("trace has no %q event; names: %v", want, names)
		}
	}
	// Step spans cover the recorded tail of the run.
	if !names[fmt.Sprintf("step %d", st.Steps)] {
		t.Errorf("trace lacks the final step span; names: %v", names)
	}

	// Unknown job → 404.
	resp, err = http.Get(ts.URL + "/jobs/job-9999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job: %d, want 404", resp.StatusCode)
	}
}
