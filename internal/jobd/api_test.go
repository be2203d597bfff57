package jobd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/schedule"
)

// apiServer spins up the daemon behind an httptest server.
func apiServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// getJSON decodes GET url into out, failing on non-2xx.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// postBytes POSTs a JSON body and returns status + response body.
func postBytes(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// wantAPIError asserts a structured {error, code} rejection with the given
// status and machine-readable code.
func wantAPIError(t *testing.T, what string, status int, body []byte, wantStatus int, wantCode string) {
	t.Helper()
	if status != wantStatus {
		t.Errorf("%s: status %d (%s), want %d", what, status, body, wantStatus)
		return
	}
	var ae APIError
	if err := json.Unmarshal(body, &ae); err != nil {
		t.Errorf("%s: unstructured error body %q: %v", what, body, err)
		return
	}
	if ae.Code != wantCode || ae.Error == "" {
		t.Errorf("%s: error body %+v, want code %q and a message", what, ae, wantCode)
	}
}

// submit POSTs a spec and returns the created job's status.
func submit(t *testing.T, base string, spec any) Status {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The end-to-end service smoke CI runs under -race: submit the coldwall
// example schedule through the API, preempt it mid-run with a
// higher-priority job, let it resume, and diff the final state against an
// uninterrupted in-process run — byte-identical or bust. Also exercises
// the metrics stream, the applied-schedule endpoint, and queued-job
// cancellation.
func TestAPIPreemptResumeColdwall(t *testing.T) {
	schedJSON, err := os.ReadFile("../../examples/coldwall/schedule.json")
	if err != nil {
		t.Fatal(err)
	}
	// 400 steps gives the preemptor a wide landing window even on a
	// saturated single-core runner where one HTTP round trip can cost
	// hundreds of milliseconds; the pull-velocity ramp spans steps
	// [0,200), so an early preemption is also mid-ramp.
	spec := Spec{
		Name: "coldwall", NX: 12, NY: 12, NZ: 36, Steps: 400, Seed: 3,
		Schedule: json.RawMessage(schedJSON),
	}
	srv, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 2})

	a := submit(t, ts.URL, spec)
	// Progress is polled through the in-process handle: on a saturated
	// single-core runner the HTTP path can lag the simulation by hundreds
	// of steps, and the preemptor below must land while the job is still
	// mid-run. All mutations stay on the HTTP API.
	aj, ok := srv.Get(a.ID)
	if !ok {
		t.Fatal("submitted job not registered")
	}

	// Follow the metrics stream in the background; collect samples.
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	samples := make(chan Sample, 256)
	go func() {
		defer close(samples)
		req, _ := http.NewRequestWithContext(streamCtx, "GET",
			ts.URL+"/jobs/"+a.ID+"/metrics", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var s Sample
			if json.Unmarshal(sc.Bytes(), &s) == nil {
				select {
				case samples <- s:
				default:
				}
			}
		}
	}()

	waitFor(t, "coldwall job to take steps", 60*time.Second, func() bool {
		return aj.Status().Step >= 4
	})

	// The preemptor: strictly higher priority, small.
	b := submit(t, ts.URL, Spec{Name: "urgent", NX: 8, NY: 8, NZ: 8, Steps: 4,
		Priority: 5, Scenario: "interface"})

	bj, _ := srv.Get(b.ID)
	waitFor(t, "urgent job to finish", 120*time.Second, func() bool {
		return bj.State() == StateDone
	})

	// While the resumed coldwall job holds the slot, exercise DELETE of a
	// queued job.
	victim := submit(t, ts.URL, Spec{NX: 8, NY: 8, NZ: 8, Steps: 5, Scenario: "interface"})
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+victim.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job: %v %v", resp, err)
	}

	waitFor(t, "coldwall job to resume and finish", 300*time.Second, func() bool {
		return aj.State() == StateDone
	})
	var final Status
	getJSON(t, ts.URL+"/jobs/"+a.ID, &final)
	if final.State != StateDone {
		t.Fatalf("HTTP status disagrees: %+v", final)
	}
	if final.Preemptions < 1 {
		t.Fatalf("coldwall job was never preempted: %+v", final)
	}
	if final.Step != spec.Steps {
		t.Fatalf("finished at step %d, want %d", final.Step, spec.Steps)
	}

	// Final state must be byte-identical to the uninterrupted run.
	resp, err := http.Get(ts.URL + "/jobs/" + a.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %d %s", resp.StatusCode, got)
	}
	diffCheckpoints(t, got, uninterruptedFinal(t, spec, 2))

	// The applied-schedule endpoint returns a replayable audit log
	// containing the coldwall ramp and the fired burst.
	resp, err = http.Get(ts.URL + "/jobs/" + a.ID + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	applied, err := schedule.FromJSONBytes(blob)
	if err != nil {
		t.Fatalf("applied schedule not replayable: %v\n%s", err, blob)
	}
	var haveRamp, haveBurst bool
	for _, ev := range applied.Events {
		switch ev.(type) {
		case schedule.Ramp:
			haveRamp = true
		case schedule.NucleationBurst:
			haveBurst = true
		}
	}
	if !haveRamp || !haveBurst {
		t.Errorf("audit log missing events (ramp=%v burst=%v):\n%s", haveRamp, haveBurst, blob)
	}

	// The metrics stream must have reported progress and terminated.
	stopStream()
	n := 0
	for range samples {
		n++
	}
	if n == 0 {
		t.Error("metrics stream delivered no samples")
	}

	// List shows all three jobs.
	var list []Status
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list) != 3 {
		t.Errorf("list returned %d jobs, want 3", len(list))
	}
}

func TestAPIErrors(t *testing.T) {
	s, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 1})

	// Malformed and invalid submissions, jobs and arrays alike.
	for _, body := range []string{
		`{not json`,
		`{"nx":8,"ny":8,"nz":8}`,         // no steps
		`{"nx":8,"ny":8,"nz":8,"wat":1}`, // unknown field
		`{"nx":-1,"ny":8,"nz":8,"steps":5}`,
	} {
		code, resp := postBytes(t, ts.URL+"/jobs", body)
		wantAPIError(t, "POST /jobs "+body, code, resp, http.StatusBadRequest, CodeBadRequest)
	}
	for _, body := range []string{
		`{not json`,
		`{"template":{"nx":8,"ny":8,"nz":8,"steps":5}}`, // no axes
	} {
		code, resp := postBytes(t, ts.URL+"/arrays", body)
		wantAPIError(t, "POST /arrays "+body, code, resp, http.StatusBadRequest, CodeBadRequest)
	}

	// Unknown job and array ids.
	for _, path := range []string{"/jobs/job-9999", "/jobs/job-9999/metrics",
		"/jobs/job-9999/schedule", "/jobs/job-9999/result",
		"/arrays/arr-9999", "/arrays/arr-9999/results"} {
		code, resp := getBytes(t, ts.URL+path)
		wantAPIError(t, "GET "+path, code, resp, http.StatusNotFound, CodeNotFound)
	}

	// Result of an unfinished job conflicts.
	st := submit(t, ts.URL, Spec{NX: 10, NY: 10, NZ: 12, Steps: 2000, Scenario: "interface"})
	code, resp := getBytes(t, ts.URL+"/jobs/"+st.ID+"/result")
	wantAPIError(t, "GET result of running job", code, resp, http.StatusConflict, CodeConflict)
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	// A draining daemon refuses submissions with its own code.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	code, resp = postBytes(t, ts.URL+"/jobs", `{"nx":8,"ny":8,"nz":8,"steps":5}`)
	wantAPIError(t, "POST /jobs while draining", code, resp, http.StatusServiceUnavailable, CodeDraining)
}

// The spec example from the package documentation must parse.
func TestSpecDocExample(t *testing.T) {
	body := `{"nx":32,"ny":32,"nz":64,"steps":500,
	  "schedule":{"events":[{"type":"ramp","param":"v","step":0,
	  "over":200,"from":0.02,"to":0.05}]}}`
	var spec Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%d", spec.Steps) != "500" {
		t.Fatal("steps lost")
	}
}

// A schedule prescribing mixed periodicity on a decomposed axis is a
// permanent input error: the job must fail on its first attempt without
// burning any of its retry budget, and the status must carry the solver's
// structured rejection so the submitter can fix the offending event.
func TestAPIScheduleErrorStructuredNoRetry(t *testing.T) {
	_, ts := apiServer(t, Config{MaxConcurrent: 1, Budget: 2})
	// Flipping only µ's x- face to a wall leaves the decomposed x axis
	// mixed-periodic — unrealizable, and not fixable by retrying.
	spec := Spec{NX: 8, NY: 8, NZ: 10, PX: 2, Steps: 50, Scenario: "interface", MaxRetries: 3,
		Schedule: json.RawMessage(`{"events": [{"type": "setbc", "step": 4, "face": "x-", "field": "mu", "kind": "neumann"}]}`)}
	st := submit(t, ts.URL, spec)
	waitFor(t, "schedule rejection", 10*time.Second, func() bool {
		var cur Status
		getJSON(t, ts.URL+"/jobs/"+st.ID, &cur)
		return cur.State.terminal()
	})
	var cur Status
	getJSON(t, ts.URL+"/jobs/"+st.ID, &cur)
	if cur.State != StateFailed {
		t.Fatalf("state %s, want failed", cur.State)
	}
	if cur.Retries != 0 {
		t.Errorf("burned %d retries on a permanent schedule error", cur.Retries)
	}
	if cur.ScheduleError == nil {
		t.Fatalf("no structured schedule_error in status (error %q)", cur.Error)
	}
	if cur.ScheduleError.Face != "x-" || cur.ScheduleError.Step != 4 || cur.ScheduleError.Reason == "" {
		t.Errorf("schedule_error %+v, want face x- at step 4 with reason", cur.ScheduleError)
	}
}

// TestAPIClassesAndArrayListing drives GET /classes, GET /arrays and
// DELETE /arrays/{id} and checks their bodies. The scheduler is never
// started, so every child of the submitted arrays stays queued until the
// DELETE cancels those of the first.
func TestAPIClassesAndArrayListing(t *testing.T) {
	s := New(Config{Budget: 2, Classes: map[string]int{"scout": 1}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for _, class := range []string{"scout", ""} {
		blob, err := json.Marshal(sweepArraySpec(class, 4, []float64{0.03}, []float64{1, 2, 3}))
		if err != nil {
			t.Fatal(err)
		}
		status, body := postBytes(t, ts.URL+"/arrays", string(blob))
		if status != http.StatusCreated {
			t.Fatalf("POST /arrays: %d %s", status, body)
		}
		var st ArrayStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	var classes []ClassUsage
	getJSON(t, ts.URL+"/classes", &classes)
	want := []ClassUsage{
		{Class: DefaultClass, Budget: 2, Queued: 3},
		{Class: "scout", Budget: 1, Queued: 3},
	}
	if fmt.Sprint(classes) != fmt.Sprint(want) {
		t.Errorf("GET /classes = %+v, want %+v", classes, want)
	}

	var arrays []ArrayStatus
	getJSON(t, ts.URL+"/arrays", &arrays)
	if len(arrays) != 2 || arrays[0].ID != ids[0] || arrays[1].ID != ids[1] {
		t.Fatalf("GET /arrays listed %+v, want %v in submission order", arrays, ids)
	}
	for _, a := range arrays {
		if a.State != StateQueued || a.Counts[StateQueued] != 3 || len(a.Children) != 3 {
			t.Errorf("array %s: state %s counts %v with %d children, want 3 queued", a.ID, a.State, a.Counts, len(a.Children))
		}
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/arrays/"+ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled ArrayStatus
	err = json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || canceled.ID != ids[0] ||
		canceled.State != StateCanceled || canceled.Counts[StateCanceled] != 3 {
		t.Errorf("DELETE /arrays/%s: %d %+v, want 202 with 3 canceled children", ids[0], resp.StatusCode, canceled)
	}

	getJSON(t, ts.URL+"/arrays", &arrays)
	if len(arrays) != 2 || arrays[0].State != StateCanceled || arrays[1].State != StateQueued {
		t.Errorf("GET /arrays after the cancel = %+v, want the first canceled and the second queued", arrays)
	}
	getJSON(t, ts.URL+"/classes", &classes)
	want[1].Queued = 0
	if fmt.Sprint(classes) != fmt.Sprint(want) {
		t.Errorf("GET /classes after the cancel = %+v, want %+v", classes, want)
	}
}
