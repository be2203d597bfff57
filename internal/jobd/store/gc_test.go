package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// gc_test.go — retention GC invariants: a blob referenced by any live
// manifest is never evicted (including blobs shared across manifests by
// content-address dedup), quota eviction goes oldest-first, age eviction
// respects the cutoff, and GC racing concurrent Reserve-bracketed spills
// never reclaims a spill in flight (run under -race in CI).

// gcManifestDoc is a minimal manifest shape carrying content addresses,
// mirroring how jobManifest stores them (plain string fields — the GC
// refcount walks by shape, not schema).
type gcManifestDoc struct {
	ID     string   `json:"id"`
	State  string   `json:"state"`
	Result string   `json:"result,omitempty"`
	Blobs  []string `json:"blobs,omitempty"`
}

// putJob stores the given blobs, writes a terminal ("done") manifest
// referencing them all, and stamps the manifest's mtime, giving the
// eviction order a deterministic clock. Returns the content addresses in
// blob order.
func putJob(t *testing.T, s *Store, id string, mtime time.Time, blobs ...[]byte) []string {
	t.Helper()
	return putJobState(t, s, id, "done", mtime, blobs...)
}

// putJobState is putJob with the manifest's lifecycle state chosen.
func putJobState(t *testing.T, s *Store, id, state string, mtime time.Time, blobs ...[]byte) []string {
	t.Helper()
	doc := gcManifestDoc{ID: id, State: state}
	for _, b := range blobs {
		h, err := s.PutBlob(b)
		if err != nil {
			t.Fatal(err)
		}
		doc.Blobs = append(doc.Blobs, h)
	}
	if err := s.PutManifest(JobsBucket, id, &doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), JobsBucket, id+".json")
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	return doc.Blobs
}

func hasBlob(s *Store, h string) bool {
	_, err := s.Blob(h)
	return err == nil
}

func hasManifest(s *Store, id string) bool {
	path := filepath.Join(s.Dir(), JobsBucket, id+".json")
	_, err := os.Stat(path)
	return err == nil
}

// TestGCNeverEvictsReferencedBlob: with no policy pressure forcing
// manifest eviction, every referenced blob survives — and a blob shared
// by several manifests survives until the last referencing manifest is
// evicted, no matter which manifests the quota removes first.
func TestGCNeverEvictsReferencedBlob(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	shared := bytes.Repeat([]byte("dedup"), 40) // 200 B, stored once
	unique := bytes.Repeat([]byte("own"), 100)  // 300 B, job-0001 only
	youngB := bytes.Repeat([]byte("new"), 100)  // 300 B, job-0003 only
	oldHashes := putJob(t, s, "job-0001", now.Add(-3*time.Hour), shared, unique)
	midHashes := putJob(t, s, "job-0002", now.Add(-2*time.Hour), shared)
	youngHash := putJob(t, s, "job-0003", now.Add(-time.Hour), youngB)[0]
	if midHashes[0] != oldHashes[0] {
		t.Fatalf("identical content got two addresses: %s vs %s", midHashes[0], oldHashes[0])
	}
	sharedHash, uniqueHash := oldHashes[0], oldHashes[1]

	// 800 B are referenced in total (the shared blob counts once). A
	// 500 B quota forces out exactly the oldest manifest: that frees the
	// 300 B unique blob, while the shared blob — still referenced by
	// job-0002 — must survive.
	rep, err := s.GC(RetentionPolicy{MaxBytes: 500}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedManifests != 1 || hasManifest(s, "job-0001") {
		t.Fatalf("want exactly job-0001 evicted; report %+v", rep)
	}
	if hasBlob(s, uniqueHash) {
		t.Fatal("evicted manifest's unique blob survived")
	}
	if !hasBlob(s, sharedHash) {
		t.Fatal("GC evicted a blob still referenced by job-0002's manifest")
	}
	if !hasBlob(s, youngHash) || !hasManifest(s, "job-0002") || !hasManifest(s, "job-0003") {
		t.Fatal("GC touched survivors it should not have")
	}

	// Tighter quota: job-0002 goes too, and only then its shared blob.
	if _, err := s.GC(RetentionPolicy{MaxBytes: 300}, now); err != nil {
		t.Fatal(err)
	}
	if hasManifest(s, "job-0002") {
		t.Fatal("second pass kept job-0002 over the quota")
	}
	if hasBlob(s, sharedHash) {
		t.Fatal("unreferenced shared blob survived the second pass")
	}
	if !hasBlob(s, youngHash) {
		t.Fatal("the youngest job's blob was evicted within quota")
	}
}

// TestGCNeverEvictsQueuedRecord: the record of a job a drained daemon still
// owes a run is exempt from retention with its blobs — older than MaxAge
// and over MaxBytes it survives, where a terminal record of the same age
// and size does not.
func TestGCNeverEvictsQueuedRecord(t *testing.T) {
	now := time.Now()
	old := now.Add(-48 * time.Hour)
	for name, pol := range map[string]RetentionPolicy{
		"age":   {MaxAge: 24 * time.Hour},
		"quota": {MaxBytes: 100}, // below either blob alone
		"both":  {MaxAge: 24 * time.Hour, MaxBytes: 100},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			snapshot := putJobState(t, s, "job-0001", "queued", old, bytes.Repeat([]byte("snap"), 100))[0]
			result := putJobState(t, s, "job-0002", "done", old, bytes.Repeat([]byte("done"), 100))[0]
			rep, err := s.GC(pol, now)
			if err != nil {
				t.Fatal(err)
			}
			if !hasManifest(s, "job-0001") || !hasBlob(s, snapshot) {
				t.Fatalf("GC evicted the queued record or its snapshot; report %+v", rep)
			}
			if hasManifest(s, "job-0002") || hasBlob(s, result) {
				t.Fatalf("GC kept the terminal record of the same age and size; report %+v", rep)
			}
			if rep.LiveManifests != 1 || rep.LiveBlobs != 1 {
				t.Fatalf("report %+v, want one live manifest and one live blob", rep)
			}
		})
	}
}

// TestGCAgeRetention: manifests older than MaxAge are dropped regardless
// of size; younger ones stay.
func TestGCAgeRetention(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	expired := putJob(t, s, "job-0001", now.Add(-48*time.Hour), []byte("ancient result"))[0]
	fresh := putJob(t, s, "job-0002", now.Add(-time.Hour), []byte("recent result"))[0]

	rep, err := s.GC(RetentionPolicy{MaxAge: 24 * time.Hour}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedManifests != 1 || len(rep.Evicted) != 1 || rep.Evicted[0] != "job-0001" {
		t.Fatalf("age eviction report %+v, want exactly job-0001", rep)
	}
	if hasManifest(s, "job-0001") || hasBlob(s, expired) {
		t.Fatal("expired job survived age retention")
	}
	if !hasManifest(s, "job-0002") || !hasBlob(s, fresh) {
		t.Fatal("fresh job was age-evicted")
	}
	if rep.LiveManifests != 1 || rep.LiveBlobs != 1 {
		t.Fatalf("live accounting %+v, want 1 manifest / 1 blob", rep)
	}
}

// TestGCReclaimsOrphans: a blob no manifest references (crashed-writer
// leftover) is reclaimed by a GC pass even when no manifest is evicted.
func TestGCReclaimsOrphans(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	kept := putJob(t, s, "job-0001", now, []byte("kept"))[0]
	orphan, err := s.PutBlob([]byte("crashed before its manifest"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC(RetentionPolicy{MaxBytes: 1 << 20}, now)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedManifests != 0 || rep.EvictedBlobs != 1 {
		t.Fatalf("report %+v, want 0 manifests / 1 orphan blob evicted", rep)
	}
	if hasBlob(s, orphan) {
		t.Fatal("orphan blob survived GC")
	}
	if !hasBlob(s, kept) {
		t.Fatal("referenced blob reclaimed as orphan")
	}
}

// TestGCConcurrentSpills races GC passes against Reserve-bracketed
// blob+manifest spills. The reservation must make every spill atomic with
// respect to GC: after the dust settles, each spilled manifest's blob is
// present and verifiable — GC never reclaimed a just-written blob whose
// manifest was still in flight.
func TestGCConcurrentSpills(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const spillers, perSpiller = 4, 25
	var spillWG, gcWG sync.WaitGroup
	stop := make(chan struct{})
	gcWG.Add(1)
	go func() { // GC hammering with an orphan-hungry policy
		defer gcWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.GC(RetentionPolicy{MaxBytes: 1 << 30}, time.Now()); err != nil {
					t.Errorf("concurrent GC: %v", err)
					return
				}
			}
		}
	}()
	for g := 0; g < spillers; g++ {
		spillWG.Add(1)
		go func(g int) {
			defer spillWG.Done()
			for i := 0; i < perSpiller; i++ {
				id := fmt.Sprintf("job-%d-%03d", g, i)
				blob := []byte("result of " + id)
				release := s.Reserve()
				h, err := s.PutBlob(blob)
				if err == nil {
					err = s.PutManifest(JobsBucket, id, &gcManifestDoc{ID: id, Result: h})
				}
				release()
				if err != nil {
					t.Errorf("spill %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	spillWG.Wait()
	close(stop)
	gcWG.Wait()

	// Every spilled blob must be present and content-verified.
	for g := 0; g < spillers; g++ {
		for i := 0; i < perSpiller; i++ {
			id := fmt.Sprintf("job-%d-%03d", g, i)
			blob := []byte("result of " + id)
			got, err := s.Blob(HashBlob(blob))
			if err != nil {
				t.Fatalf("blob of %s lost to GC: %v", id, err)
			}
			if !bytes.Equal(got, blob) {
				t.Fatalf("blob of %s corrupted", id)
			}
		}
	}
}

// TestReserveReleaseIdempotent: releasing twice must not unlock someone
// else's reservation.
func TestReserveReleaseIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	release := s.Reserve()
	release()
	release() // second call is a no-op, not an RUnlock of nothing
	done := make(chan struct{})
	go func() {
		// GC needs the write lock; it only proceeds if the double release
		// left the lock balanced.
		_, _ = s.GC(RetentionPolicy{MaxBytes: 1}, time.Now())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("GC blocked after double release — lock imbalance")
	}
}
