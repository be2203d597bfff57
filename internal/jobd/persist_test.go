package jobd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobd/store"
)

// getBytes fetches a URL and returns status + body.
func getBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The acceptance path of the campaign engine: a 12-child array (class
// "scout") sweeps vmax × seed while a production job (class "large") runs
// concurrently. The shared worker gauge must never exceed the global
// budget, the scout class never its cap; after a drain ("SIGTERM") and a
// restart over the same store, every child's /result and /schedule must be
// served from disk byte-identical to the pre-restart responses.
func TestArrayTwoClassesStoreRestart(t *testing.T) {
	storeDir := t.TempDir()
	cfg := Config{
		MaxConcurrent: 2, Budget: 4, ReportEvery: 2,
		Classes:  map[string]int{"scout": 2, "large": 3},
		StoreDir: storeDir,
	}
	s := New(cfg)
	if _, err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())

	// POST /arrays: 4 vmax values × 3 seeds = 12 children.
	as := sweepArraySpec("scout", 6, []float64{0.03, 0.04, 0.05, 0.06}, []float64{1, 2, 3})
	blob, _ := json.Marshal(as)
	resp, err := http.Post(ts.URL+"/arrays", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var ast ArrayStatus
	if err := json.NewDecoder(resp.Body).Decode(&ast); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || len(ast.Children) != 12 {
		t.Fatalf("POST /arrays: %d, %d children", resp.StatusCode, len(ast.Children))
	}

	// The concurrent production job in the second class.
	prod := submit(t, ts.URL, Spec{Name: "prod", NX: 10, NY: 10, NZ: 16, Steps: 10,
		Class: "large", Scenario: "interface"})

	arr, _ := s.GetArray(ast.ID)
	waitFor(t, "array and production job to finish", 300*time.Second, func() bool {
		pj, _ := s.Get(prod.ID)
		return s.ArrayStatus(arr).State == StateDone && pj.State() == StateDone
	})

	// Budget invariants, observed by the shared gauge.
	if max := s.Gauge().Max(); max > cfg.Budget {
		t.Errorf("global gauge max %d exceeds budget %d", max, cfg.Budget)
	}
	if max := s.Gauge().Class("scout").Max(); max > cfg.Classes["scout"] {
		t.Errorf("scout gauge max %d exceeds class cap %d", max, cfg.Classes["scout"])
	}
	if s.Gauge().Class("scout").Max() == 0 || s.Gauge().Class("large").Max() == 0 {
		t.Error("class gauges recorded no workers — instrumentation broken")
	}

	// Results aggregation: every child carries its grid point and a result.
	var results ArrayResults
	getJSON(t, ts.URL+"/arrays/"+ast.ID+"/results", &results)
	if results.State != StateDone || len(results.Children) != 12 {
		t.Fatalf("results %+v", results)
	}
	for _, c := range results.Children {
		if c.ResultPath == "" {
			t.Errorf("child %s has no result", c.ID)
		}
		if len(c.Params) != 2 {
			t.Errorf("child %s params %v", c.ID, c.Params)
		}
		if c.Class != "scout" {
			t.Errorf("child %s class %q, want scout", c.ID, c.Class)
		}
	}

	// Snapshot every child's /result and /schedule bytes pre-restart.
	pre := map[string][2][]byte{}
	for _, cid := range arr.Children {
		_, res := getBytes(t, ts.URL+"/jobs/"+cid+"/result")
		_, sch := getBytes(t, ts.URL+"/jobs/"+cid+"/schedule")
		pre[cid] = [2][]byte{res, sch}
	}
	// Different grid points must produce different physics.
	if bytes.Equal(pre[arr.Children[0]][0], pre[arr.Children[11]][0]) {
		t.Error("children at opposite grid corners have identical results — substitution broken")
	}

	// SIGTERM analogue: drain, shut the API down.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Restart over the same store directory.
	s2 := New(cfg)
	n, err := s2.LoadStore()
	if err != nil {
		t.Fatal(err)
	}
	if n < 13 { // 12 children + the production job
		t.Fatalf("store restored %d jobs, want ≥ 13", n)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()

	// The array record survives with full aggregation.
	var ast2 ArrayStatus
	getJSON(t, ts2.URL+"/arrays/"+ast.ID, &ast2)
	if ast2.State != StateDone || ast2.Counts[StateDone] != 12 || ast2.Missing != 0 {
		t.Fatalf("restored array status %+v", ast2)
	}

	// Every child's /result and /schedule byte-identical to pre-restart.
	for _, cid := range arr.Children {
		code, res := getBytes(t, ts2.URL+"/jobs/"+cid+"/result")
		if code != http.StatusOK {
			t.Fatalf("GET %s/result after restart: %d %s", cid, code, res)
		}
		if !bytes.Equal(res, pre[cid][0]) {
			t.Errorf("child %s /result differs across restart", cid)
		}
		code, sch := getBytes(t, ts2.URL+"/jobs/"+cid+"/schedule")
		if code != http.StatusOK {
			t.Fatalf("GET %s/schedule after restart: %d %s", cid, code, sch)
		}
		if !bytes.Equal(sch, pre[cid][1]) {
			t.Errorf("child %s /schedule differs across restart:\n%s\n%s", cid, pre[cid][1], sch)
		}
	}
}

// Cancellation reached off the runner path (queued children) spills too:
// a canceled campaign must not come back from a restart looking "done"
// with its children vanished.
func TestCanceledArraySurvivesRestart(t *testing.T) {
	storeDir := t.TempDir()
	cfg := Config{MaxConcurrent: 1, Budget: 1, ReportEvery: 1, StoreDir: storeDir}
	s := New(cfg)
	if _, err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	// Scheduler intentionally not started: every child stays queued, so
	// the cancel takes the queued (non-runner) path for all of them.
	arr, err := s.SubmitArray(sweepArraySpec("", 6, []float64{0.03, 0.04}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s.CancelArray(arr.ID); !ok || st.Counts[StateCanceled] != 2 {
		t.Fatalf("cancel: ok=%v %+v", ok, st)
	}
	s.Close()

	s2 := New(cfg)
	if _, err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	arr2, ok := s2.GetArray(arr.ID)
	if !ok {
		t.Fatal("array record lost")
	}
	st := s2.ArrayStatus(arr2)
	if st.State != StateCanceled || st.Counts[StateCanceled] != 2 || st.Missing != 0 {
		t.Fatalf("restored canceled array reports %+v", st)
	}
	res := s2.ArrayResults(arr2)
	if res.State != StateCanceled || res.Missing != 0 {
		t.Fatalf("restored canceled array results report %+v", res)
	}
}

// A corrupted stored result is refused, never served: the store verifies
// every blob against its content address.
func TestStoreTornResultNeverServed(t *testing.T) {
	storeDir := t.TempDir()
	cfg := Config{MaxConcurrent: 1, Budget: 1, ReportEvery: 1, StoreDir: storeDir}
	s := New(cfg)
	if _, err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, err := s.Submit(Spec{NX: 8, NY: 8, NZ: 8, Steps: 2, Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to finish", 60*time.Second, func() bool {
		return j.State() == StateDone
	})
	s.Close()

	// Corrupt the stored result object (simulates a torn disk write).
	var m jobManifest
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Manifests(store.JobsBucket, func(id string, blob []byte) error {
		return json.Unmarshal(blob, &m)
	}); err != nil {
		t.Fatal(err)
	}
	if m.Result == "" {
		t.Fatal("finished job has no stored result")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	objPath := filepath.Join(storeDir, "objects", m.Result[:2], m.Result)
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon must refuse to serve the torn blob.
	s2 := New(cfg)
	if _, err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	ts := httptest.NewServer(s2.Handler())
	defer func() {
		ts.Close()
		s2.Close()
	}()
	code, body := getBytes(t, ts.URL+"/jobs/"+j.ID+"/result")
	if code != http.StatusInternalServerError {
		t.Fatalf("torn result served: %d (%d bytes)", code, len(body))
	}
}

// The array id counter recovers from child-job manifests alone: the
// array's own manifest write is best-effort, and a reused id would
// overwrite the stored children of the old campaign.
func TestArrayIDRecoveredFromChildManifests(t *testing.T) {
	storeDir := t.TempDir()
	cfg := Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1, StoreDir: storeDir}
	s := New(cfg)
	if _, err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	arr, err := s.SubmitArray(sweepArraySpec("", 4, []float64{0.03}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "array to finish", 60*time.Second, func() bool {
		return s.ArrayStatus(arr).State == StateDone
	})
	s.Close()

	// Simulate the lost array manifest (persistArray is best-effort).
	if err := os.Remove(filepath.Join(storeDir, "arrays", arr.ID+".json")); err != nil {
		t.Fatal(err)
	}
	s2 := New(cfg)
	if _, err := s2.LoadStore(); err != nil {
		t.Fatal(err)
	}
	arr2, err := s2.SubmitArray(sweepArraySpec("", 4, []float64{0.04}, []float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if arr2.ID == arr.ID {
		t.Fatalf("array id %s reused — stored children would be overwritten", arr.ID)
	}
	// The old children's stored results are still intact.
	for _, cid := range arr.Children {
		j, ok := s2.Get(cid)
		if !ok || !s2.hasResult(j) {
			t.Fatalf("stored child %s lost after id-collision scenario", cid)
		}
	}
	s2.Close()
}

// A daemon killed between blob write and manifest write (the spill is
// blobs-first) leaves no manifest — the job is simply absent after
// restart, never half-present.
func TestStoreSpillOrderBlobsBeforeManifest(t *testing.T) {
	storeDir := t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: a blob landed, the manifest did not.
	// The killed process' directory flock dies with it.
	if _, err := st.PutBlob([]byte("orphaned result")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxConcurrent: 1, Budget: 1, StoreDir: storeDir}
	s := New(cfg)
	n, err := s.LoadStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("orphaned blob surfaced %d jobs", n)
	}
	if len(s.List()) != 0 {
		t.Fatal("job registry not empty")
	}
}

// A finished job's result lives in memory only until its spill lands:
// after that /result serves the stored blob, so the daemon's memory does
// not grow with the number of jobs it has settled. Without a store the
// result has nowhere else to live and stays in memory.
func TestSpilledResultsLeaveMemory(t *testing.T) {
	const n = 5
	spillLanded := func(s *Server, j *Job) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.storedResult != ""
	}
	run := func(cfg Config, settled func(*Server, *Job) bool) (*Server, []*Job) {
		s := New(cfg)
		if _, err := s.LoadStore(); err != nil {
			t.Fatal(err)
		}
		s.Start()
		t.Cleanup(s.Close)
		jobs := make([]*Job, n)
		for i := range jobs {
			j, err := s.Submit(smallSpec("settle"))
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		waitFor(t, "every job to settle", 60*time.Second, func() bool {
			for _, j := range jobs {
				if !settled(s, j) {
					return false
				}
			}
			return true
		})
		return s, jobs
	}
	stored, spilled := run(Config{MaxConcurrent: 2, Budget: 2, StoreDir: t.TempDir()}, spillLanded)
	want := resultOf(t, stored, spilled[0])
	if len(want) == 0 {
		t.Fatal("no result served")
	}
	for _, j := range spilled {
		j.mu.Lock()
		inMemory := j.final != nil
		j.mu.Unlock()
		if inMemory {
			t.Errorf("%s: result still held in memory after its spill", j.ID)
		}
		if got := resultOf(t, stored, j); !bytes.Equal(got, want) {
			t.Errorf("%s: served result differs from %s's", j.ID, spilled[0].ID)
		}
	}

	memOnly, kept := run(Config{MaxConcurrent: 2, Budget: 2}, (*Server).hasResult)
	for _, j := range kept {
		if got := resultOf(t, memOnly, j); !bytes.Equal(got, want) {
			t.Errorf("%s without a store: served result differs from the stored one", j.ID)
		}
	}
}
