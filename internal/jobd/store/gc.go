package store

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"time"
)

// gc.go — retention for the content-addressed store. The store grows
// monotonically as campaigns finish; on a long-lived daemon (or a
// federation gateway replicating a whole fleet's results) that is
// unbounded. GC enforces a RetentionPolicy by evicting whole job
// manifests — oldest first — and then deleting every blob no surviving
// manifest references. Eviction is refcounted across *all* manifests in
// both buckets: a blob shared by several array children (content
// addressing dedupes identical results) survives until its last
// referencing manifest is gone, so GC can never remove a blob a live
// manifest still points at.
//
// GC excludes concurrent spills by a reader/writer protocol rather than
// by pausing the daemon: a multi-step write (blobs first, manifest last)
// brackets itself with Reserve, GC takes the write side, and therefore
// only ever runs when no spill is between its first blob and its
// manifest. That makes "unreferenced" unambiguous at GC time: any
// unowned blob is a leftover from a crashed process or a superseded live
// record (Open runs a pass with no bounds just to reclaim those), not a
// spill about to publish.

// RetentionPolicy bounds the store. Zero values mean "no bound".
type RetentionPolicy struct {
	// MaxBytes caps the total size of referenced content objects. When
	// the store exceeds it, the oldest job manifests are evicted until
	// the surviving references fit.
	MaxBytes int64
	// MaxAge evicts job manifests whose last write is older than this,
	// regardless of size.
	MaxAge time.Duration
}

// Enabled reports whether the policy bounds anything.
func (p RetentionPolicy) Enabled() bool { return p.MaxBytes > 0 || p.MaxAge > 0 }

// GCReport summarizes one GC pass.
type GCReport struct {
	// EvictedManifests counts job manifests removed by age or quota;
	// Evicted lists their ids so the daemon can drop the matching
	// in-memory records.
	EvictedManifests int
	Evicted          []string
	// EvictedBlobs / EvictedBytes count content objects deleted, whether
	// orphaned or released by manifest eviction.
	EvictedBlobs int
	EvictedBytes int64
	// LiveManifests / LiveBlobs / LiveBytes describe what survived.
	LiveManifests int
	LiveBlobs     int
	LiveBytes     int64
}

// Reserve blocks GC for the duration of a multi-step store write and
// returns the release function. Every writer whose correctness depends
// on the blobs-before-manifest ordering (a spill: PutBlob… then
// PutManifest) must hold a reservation across the whole sequence;
// individual Put calls deliberately do not reserve, so the bracket is
// the only lock acquisition on the path (the underlying RWMutex is not
// reentrant). The release function is idempotent.
func (s *Store) Reserve() func() {
	s.gcMu.RLock()
	released := false
	return func() {
		if !released {
			released = true
			s.gcMu.RUnlock()
		}
	}
}

// gcManifest is one job manifest as GC sees it: its eviction age and the
// content addresses it pins.
type gcManifest struct {
	id     string
	mtime  time.Time
	hashes []string
	// queued marks the record of a job still owed a run (see GC); it is
	// never evicted.
	queued bool
}

// GC applies the retention policy at time now: age-evicts job manifests,
// then quota-evicts oldest-first until referenced bytes fit MaxBytes,
// then deletes every blob left with no referencing manifest. Array
// manifests are bookkeeping (spec + child ids, no content addresses) and
// are never evicted — a restarted daemon reports evicted children as
// missing rather than forgetting the campaign existed. A jobs/ manifest
// whose top-level "state" is "queued" is exempt too, with its blobs: it is
// the only record of a job a drained daemon still owes a run, and however
// long ago the drain was, evicting it would lose the job. This is the one
// manifest field the store interprets.
func (s *Store) GC(pol RetentionPolicy, now time.Time) (GCReport, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	var rep GCReport

	// Load the evictable population (jobs bucket) with ages and refs.
	var mans []gcManifest
	err := s.Manifests(JobsBucket, func(id string, blob []byte) error {
		var doc any
		if err := json.Unmarshal(blob, &doc); err != nil {
			return err
		}
		set := map[string]bool{}
		collectHashes(doc, set)
		m := gcManifest{id: id}
		if obj, ok := doc.(map[string]any); ok {
			m.queued = obj["state"] == "queued"
		}
		for h := range set {
			m.hashes = append(m.hashes, h)
		}
		path, err := s.manifestPath(JobsBucket, id)
		if err != nil {
			return err
		}
		info, err := s.fs.Stat(path)
		if err != nil {
			return err
		}
		m.mtime = info.ModTime()
		mans = append(mans, m)
		return nil
	})
	if err != nil {
		return rep, err
	}
	// Oldest first; id breaks mtime ties so eviction order is total.
	sort.Slice(mans, func(i, j int) bool {
		if !mans[i].mtime.Equal(mans[j].mtime) {
			return mans[i].mtime.Before(mans[j].mtime)
		}
		return mans[i].id < mans[j].id
	})

	// Non-evictable references: everything outside the jobs bucket.
	pinned := map[string]bool{}
	err = s.Manifests(ArraysBucket, func(id string, blob []byte) error {
		var doc any
		if err := json.Unmarshal(blob, &doc); err != nil {
			return err
		}
		collectHashes(doc, pinned)
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Blob inventory: hash → size.
	sizes := map[string]int64{}
	objects := filepath.Join(s.dir, "objects")
	fans, err := s.fs.ReadDir(objects)
	if err != nil {
		return rep, err
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(objects, fan.Name())
		ents, err := s.fs.ReadDir(dir)
		if err != nil {
			return rep, err
		}
		for _, e := range ents {
			if e.IsDir() || !isHash(e.Name()) {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return rep, err
			}
			sizes[e.Name()] = info.Size()
		}
	}

	// Refcount and the referenced-bytes total (each blob counted once).
	refs := map[string]int{}
	for h := range pinned {
		refs[h]++
	}
	for _, m := range mans {
		for _, h := range m.hashes {
			refs[h]++
		}
	}
	var refBytes int64
	for h := range refs {
		refBytes += sizes[h]
	}

	// Eviction: age first, then quota oldest-first. release drops one
	// manifest's references; blobs are deleted in the final sweep.
	evicted := map[string]bool{}
	release := func(m gcManifest) error {
		path, err := s.manifestPath(JobsBucket, m.id)
		if err != nil {
			return err
		}
		if err := s.fs.Remove(path); err != nil {
			return err
		}
		evicted[m.id] = true
		rep.EvictedManifests++
		rep.Evicted = append(rep.Evicted, m.id)
		for _, h := range m.hashes {
			refs[h]--
			if refs[h] == 0 {
				delete(refs, h)
				refBytes -= sizes[h]
			}
		}
		return nil
	}
	if pol.MaxAge > 0 {
		cutoff := now.Add(-pol.MaxAge)
		for _, m := range mans {
			if !m.queued && m.mtime.Before(cutoff) {
				if err := release(m); err != nil {
					return rep, err
				}
			}
		}
	}
	if pol.MaxBytes > 0 {
		for _, m := range mans {
			if refBytes <= pol.MaxBytes {
				break
			}
			if !m.queued && !evicted[m.id] {
				if err := release(m); err != nil {
					return rep, err
				}
			}
		}
	}

	// Sweep: delete every blob no surviving manifest references (this
	// also reclaims crashed-process orphans; it is Open's orphan sweep).
	for h, size := range sizes {
		if refs[h] > 0 {
			continue
		}
		path, err := s.objectPath(h)
		if err != nil {
			return rep, err
		}
		if err := s.fs.Remove(path); err != nil {
			return rep, err
		}
		rep.EvictedBlobs++
		rep.EvictedBytes += size
	}

	rep.LiveManifests = len(mans) - rep.EvictedManifests
	for h := range refs {
		rep.LiveBlobs++
		rep.LiveBytes += sizes[h]
	}
	return rep, nil
}
