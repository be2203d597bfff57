package jobd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// faultstore_test.go — degraded store mode and the crash-point table:
// every way the spill write path can die (ENOSPC-style errors, torn
// writes, SIGKILL-equivalent crashes at each named operation) must leave
// a restarted daemon serving each terminal job byte-identically or not at
// all — never torn, never a manifest pointing at a missing or partial
// blob.
//
// Ordering the suites rely on (see ARCHITECTURE.md "Failure model"): a
// runner publishes the terminal state, *then* attempts the spill, *then*
// closes the job's metrics subscribers. Polling /jobs/{id} for "done"
// therefore says nothing about the spill; each test waits on the event it
// asserts — the injector reporting the crash, or the daemon counting the
// failed spill — both of which imply "done" was already published.

// degradedServer runs a daemon over a store whose filesystem fails per
// the rules, plus an HTTP front so the suites assert through the API.
func degradedServer(t *testing.T, dir string, rules ...*faultfs.Rule) (*Server, *httptest.Server, *faultfs.Inject) {
	t.Helper()
	inj := faultfs.NewInject(nil, rules...)
	s := New(Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1,
		StoreDir: dir, StoreFS: inj})
	if _, err := s.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, inj
}

// A transient spill failure (here: the first rename dies, as on a full
// disk) flips the daemon into degraded mode — /healthz reports 503, the
// job keeps serving from memory — and the background flusher lands the
// spill once the store recovers, restoring /healthz to 200 with the
// result persisted for the next daemon.
func TestDegradedStoreModeRecovers(t *testing.T) {
	dir := t.TempDir()
	// The rule expires after two firings: the initial spill and the first
	// flusher retry fail, the second retry succeeds.
	s, ts, _ := degradedServer(t, dir,
		&faultfs.Rule{Op: faultfs.OpRename, Times: 2, Err: faultfs.ErrInjected})

	st := submit(t, ts.URL, smallSpec("degraded"))
	waitFor(t, "daemon to enter degraded mode", 30*time.Second, func() bool {
		code, _ := getBytes(t, ts.URL+"/healthz")
		return code == http.StatusServiceUnavailable
	})
	getJSON(t, ts.URL+"/jobs/"+st.ID, new(Status)) // daemon still serves
	// The terminal job is served from memory while degraded.
	rcode, mem := getBytes(t, ts.URL+"/jobs/"+st.ID+"/result")
	if rcode != http.StatusOK || len(mem) == 0 {
		t.Fatalf("degraded daemon lost the in-memory result: %d", rcode)
	}
	code, body := getBytes(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "jobd_store_degraded 1") {
		t.Fatalf("metrics do not report degraded mode:\n%s", body)
	}

	waitFor(t, "flusher to land the spill", 30*time.Second, func() bool {
		code, _ := getBytes(t, ts.URL+"/healthz")
		return code == http.StatusOK
	})

	// The spill is now authoritative: a restarted daemon over the same
	// directory serves the identical bytes. Drain hands over the store's
	// directory flock.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{StoreDir: dir})
	if n, err := s2.LoadStore(); err != nil || n != 1 {
		t.Fatalf("restart LoadStore = %d, %v", n, err)
	}
	defer s2.Close()
	j2, ok := s2.Get(st.ID)
	if !ok {
		t.Fatalf("restarted daemon lost %s", st.ID)
	}
	disk, err := s2.resultBytes(j2)
	if err != nil {
		t.Fatal(err)
	}
	diffCheckpoints(t, disk, mem)
}

// A torn blob write (partial bytes then an error, as a full disk tears a
// write) must never surface: the temp-file discipline keeps the partial
// write invisible, and a restarted daemon either serves the full result
// or has no record of the job.
func TestTornSpillNeverVisible(t *testing.T) {
	dir := t.TempDir()
	s1, ts, _ := degradedServer(t, dir,
		&faultfs.Rule{Op: faultfs.OpWrite, PathContains: "objects", Times: 1,
			TornBytes: 100, Err: faultfs.ErrInjected})

	st := submit(t, ts.URL, smallSpec("torn"))
	waitFor(t, "the torn write to fail the first spill", 30*time.Second, func() bool {
		return s1.spillFailsTotal.Load() >= 1
	})
	rcode, mem := getBytes(t, ts.URL+"/jobs/"+st.ID+"/result")
	if rcode != http.StatusOK || len(mem) == 0 {
		t.Fatalf("result not served from memory after the failed spill: %d", rcode)
	}

	waitFor(t, "flusher to land the spill after the torn write", 30*time.Second, func() bool {
		code, _ := getBytes(t, ts.URL+"/healthz")
		return code == http.StatusOK
	})
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{StoreDir: dir})
	if n, err := s2.LoadStore(); err != nil || n != 1 {
		t.Fatalf("restart LoadStore = %d, %v", n, err)
	}
	defer s2.Close()
	j2, _ := s2.Get(st.ID)
	disk, err := s2.resultBytes(j2)
	if err != nil {
		t.Fatal(err)
	}
	diffCheckpoints(t, disk, mem)
}

// Acceptance (c): the crash-point table. For every named operation of the
// spill write path (temp-file creation, write, fsync, close, rename,
// directory fsync) and every file of the spill sequence (result blob,
// schedule blob, manifest), kill the filesystem mid-operation — the
// SIGKILL-equivalent frozen disk state — restart a daemon over the
// directory, and require: the job's /result is byte-identical to the
// pre-crash in-memory result, or the job is cleanly absent (resubmittable).
// Torn or half-visible state fails the walk (the store's content
// verification turns it into an error, which the test treats as fatal).
//
// The restarted daemon additionally runs retention GC — once at
// LoadStore (its policy is configured) and once explicitly after the
// check — regression for GC racing a crashed spill's leftovers: a GC
// pass over any frozen crash state must reclaim only unreferenced
// garbage, never flip a servable result to absent or corrupt.
func TestSpillCrashPointTable(t *testing.T) {
	ops := []string{
		faultfs.OpCreateTemp, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir,
	}
	// After selects which file of the spill sequence dies: 0 = result
	// blob, 1 = schedule blob, 2 = manifest.
	for _, op := range ops {
		for after := 0; after <= 2; after++ {
			t.Run(fmt.Sprintf("%s-file%d", op, after), func(t *testing.T) {
				dir := t.TempDir()
				s, ts, inj := degradedServer(t, dir,
					&faultfs.Rule{Op: op, After: after, Times: 1, Crash: true})

				st := submit(t, ts.URL, smallSpec("crash"))
				waitFor(t, fmt.Sprintf("crash point %s/%d to fire", op, after), 30*time.Second, func() bool {
					crashed, _ := inj.Crashed()
					return crashed
				})
				if _, at := inj.Crashed(); !strings.Contains(at, op) {
					t.Fatalf("crashed at %q, want op %s", at, op)
				}
				code, mem := getBytes(t, ts.URL+"/jobs/"+st.ID+"/result")
				if code != http.StatusOK {
					t.Fatalf("pre-crash result: %d", code)
				}

				// "Restart": a fresh daemon over the frozen directory state,
				// on the real filesystem. The crashed process' directory
				// flock dies with it; in-process, release it by hand.
				_ = s.store.Close()
				// The roomy byte quota arms retention GC without eviction
				// pressure: LoadStore runs a pass over the frozen crash
				// state before restoring anything.
				s2 := New(Config{StoreDir: dir, StoreGCMaxBytes: 1 << 30})
				n, err := s2.LoadStore()
				if err != nil {
					t.Fatalf("restart over crashed store: %v", err)
				}
				defer s2.Close()
				j2, ok := s2.Get(st.ID)
				switch {
				case !ok:
					// Cleanly absent: the crash predates the manifest. The
					// submitter sees an unknown job and resubmits.
					if n != 0 {
						t.Fatalf("no job yet LoadStore restored %d", n)
					}
				default:
					// Present: the manifest landed, so the full spill must
					// have landed before it — the result is served and
					// byte-identical, verified against its content hash.
					disk, err := s2.resultBytes(j2)
					if err != nil {
						t.Fatalf("restarted daemon serves a corrupt result: %v", err)
					}
					diffCheckpoints(t, disk, mem)
					// A further explicit GC pass must not evict anything the
					// manifest references: the result still serves, still
					// byte-identical.
					if _, err := s2.RunStoreGC(); err != nil {
						t.Fatalf("GC over restarted store: %v", err)
					}
					disk, err = s2.resultBytes(j2)
					if err != nil {
						t.Fatalf("result lost after GC pass: %v", err)
					}
					diffCheckpoints(t, disk, mem)
				}
				_ = s
			})
		}
	}
}

// drainRamp is the schedule of the drain suites' job: the ramp spans the
// whole run, so any drain point is mid-ramp.
const drainRamp = `{"events":[
	{"type":"ramp","param":"v","step":0,"over":40,"from":0.02,"to":0.05}]}`

// The crash-point table of the drain sequence. Drain writes a preempted
// job as a live record — snapshot blob, applied-schedule blob, manifest —
// through the same store discipline as a terminal spill; kill the
// filesystem at every named operation of every one of the three files,
// restart a daemon over the frozen directory, and require: the job resumes
// and finishes byte-identical to an uninterrupted run, or the daemon does
// not know it (resubmittable). A job that comes back failed — a torn
// snapshot reached the restore — fails the walk.
func TestDrainCrashPointTable(t *testing.T) {
	spec := preemptResumeSpec(drainRamp)
	want := uninterruptedFinal(t, spec, 2)
	ops := []string{
		faultfs.OpCreateTemp, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir,
	}
	// After selects which file of the drain sequence dies: 0 = snapshot
	// blob, 1 = schedule blob, 2 = manifest.
	for _, op := range ops {
		for after := 0; after <= 2; after++ {
			t.Run(fmt.Sprintf("%s-file%d", op, after), func(t *testing.T) {
				dir := t.TempDir()
				inj := faultfs.NewInject(nil)
				cfg := Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1, StoreDir: dir}
				cfg.StoreFS = inj
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
				// Armed only now, so the rule counts the drain's writes alone.
				inj.AddRule(&faultfs.Rule{Op: op, After: after, Times: 1, Crash: true})
				err = s1.Drain()
				if crashed, at := inj.Crashed(); !crashed || !strings.Contains(at, op) {
					t.Fatalf("crash point %s/%d did not fire (crashed at %q)", op, after, at)
				}
				if err == nil {
					t.Fatal("Drain over a crashed store reported success")
				}

				// "Restart" on the real filesystem (Drain released the flock).
				cfg.StoreFS = nil
				cfg.StoreGCMaxBytes = 1 << 30 // arms a GC pass over the frozen state
				s2 := New(cfg)
				n, err := s2.LoadStore()
				if err != nil {
					t.Fatalf("restart over crashed drain: %v", err)
				}
				s2.Start()
				defer s2.Close()
				a2, ok := s2.Get(a.ID)
				if !ok {
					// Cleanly absent: the crash predates the manifest.
					if n != 0 {
						t.Fatalf("no job yet LoadStore restored %d", n)
					}
					return
				}
				waitFor(t, "resumed job to finish", 60*time.Second, func() bool {
					return a2.State().terminal()
				})
				if st := a2.Status(); st.State != StateDone || st.Preemptions < 1 {
					t.Fatalf("resumed job ended %+v", st)
				}
				diffCheckpoints(t, resultOf(t, s2, a2), want)
			})
		}
	}
}

// A drained job whose snapshot blob is torn on disk is never resumed from
// the torn bytes and never silently restarted from step 0: the restarted
// daemon registers that one job as failed, with the store's verdict, and
// the other drained jobs load and run. The verdict is durable.
func TestTornDrainSnapshotFailsOnlyThatJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1, StoreDir: dir}
	s1 := New(cfg)
	if _, err := s1.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s1.Start()
	a, err := s1.Submit(preemptResumeSpec(drainRamp))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.Submit(smallSpec("behind")) // waits behind a; drained unstarted
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job to take a few steps", 30*time.Second, func() bool {
		return a.Status().Step >= 3
	})
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	// Tear a's snapshot object (simulates a torn disk write).
	blob, err := os.ReadFile(filepath.Join(dir, "jobs", a.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m jobManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if m.State != StateQueued || m.Snapshot == "" {
		t.Fatalf("drained record %+v, want queued with a snapshot", m)
	}
	objPath := filepath.Join(dir, "objects", m.Snapshot[:2], m.Snapshot)
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	if n, err := s2.LoadStore(); err != nil || n != 2 {
		t.Fatalf("restart LoadStore = %d, %v; want both jobs and no error", n, err)
	}
	s2.Start()
	a2, _ := s2.Get(a.ID)
	if st := a2.Status(); st.State != StateFailed || !strings.Contains(st.Error, "corrupt") {
		t.Fatalf("job with the torn snapshot: %+v, want failed with the store's corruption error", st)
	}
	b2, _ := s2.Get(b.ID)
	waitFor(t, "the intact drained job to finish", 60*time.Second, func() bool {
		return b2.State() == StateDone
	})
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}

	s3 := New(cfg)
	if _, err := s3.LoadStore(); err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if a3, ok := s3.Get(a.ID); !ok || a3.State() != StateFailed {
		t.Fatalf("the failed verdict did not survive a further restart (present=%v)", ok)
	}
}

// countObjects walks dir/objects and counts content-addressed blob files.
func countObjects(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasSuffix(d.Name(), ".tmp") {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Satellite regression beside the crash-point table: a crash on the
// manifest rename — the last step of the spill — strands fully-written
// result and schedule blobs with no manifest pointing at them. Before the
// orphan sweep these blobs leaked forever; now a restarted daemon's store
// open reclaims them, the job is cleanly absent, and resubmitting it runs
// and spills as if the crash never happened.
func TestCrashBeforeManifestReclaimsOrphanedBlobs(t *testing.T) {
	dir := t.TempDir()
	// The spill renames the result blob, the schedule blob, then the
	// manifest; After: 2 skips the first two and kills the third.
	s1, ts, inj := degradedServer(t, dir,
		&faultfs.Rule{Op: faultfs.OpRename, After: 2, Times: 1, Crash: true})

	submit(t, ts.URL, smallSpec("orphan"))
	waitFor(t, "the manifest-rename crash point to fire", 30*time.Second, func() bool {
		crashed, _ := inj.Crashed()
		return crashed
	})
	if _, at := inj.Crashed(); !strings.Contains(at, faultfs.OpRename) {
		t.Fatalf("crashed at %q, want a rename", at)
	}
	if n := countObjects(t, dir); n < 2 {
		t.Fatalf("crash left %d blobs on disk, want the orphaned result and schedule", n)
	}

	// Restart over the frozen directory: the store open reclaims the
	// orphans and the job is cleanly absent (resubmittable). The crashed
	// process' directory flock dies with it; in-process, release it by hand.
	_ = s1.store.Close()
	s2 := New(Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1, StoreDir: dir})
	if n, err := s2.LoadStore(); err != nil || n != 0 {
		t.Fatalf("restart LoadStore = %d, %v; want no restored jobs", n, err)
	}
	if n := countObjects(t, dir); n != 0 {
		t.Fatalf("%d orphaned blobs survived the restart sweep", n)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()

	// The resubmitted job runs to done and this time the spill lands: a
	// third daemon over the directory serves it from disk.
	st2 := submit(t, ts2.URL, smallSpec("orphan"))
	waitFor(t, "resubmitted job to finish", 30*time.Second, func() bool {
		var now Status
		getJSON(t, ts2.URL+"/jobs/"+st2.ID, &now)
		return now.State == StateDone
	})
	code, mem := getBytes(t, ts2.URL+"/jobs/"+st2.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("resubmitted result: %d", code)
	}
	// Hand the directory over: Drain releases the store's flock while the
	// drained daemon keeps serving its in-memory state.
	if err := s2.Drain(); err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{StoreDir: dir})
	if n, err := s3.LoadStore(); err != nil || n != 1 {
		t.Fatalf("third daemon LoadStore = %d, %v", n, err)
	}
	defer s3.Close()
	j3, ok := s3.Get(st2.ID)
	if !ok {
		t.Fatalf("third daemon lost %s", st2.ID)
	}
	disk, err := s3.resultBytes(j3)
	if err != nil {
		t.Fatal(err)
	}
	diffCheckpoints(t, disk, mem)
}
