// Package store is the job daemon's persistent result store: final
// checkpoints, recorded schedules and metrics summaries outlive the daemon
// process, so a restarted solidifyd serves the same /result and /schedule
// bytes its predecessor did.
//
// The layout separates immutable content from mutable bookkeeping:
//
//	<dir>/objects/ab/abcdef…   content-addressed blobs (SHA-256 hex)
//	<dir>/jobs/<id>.json       per-job manifests (state + blob hashes)
//	<dir>/arrays/<id>.json     per-array manifests (spec + child ids)
//
// Blobs — checkpoint files in the ckpt container format, replayable
// schedule JSON, metrics summaries — are written once under their content
// hash and verified against it on every read, so a torn or corrupted
// object is an error, never silently served. Manifests are small JSON
// documents updated with the temp-file + rename discipline: a crash at any
// point leaves either the old manifest or the new one, and stray *.tmp
// files are swept on Open. Readers therefore never observe a partial
// write.
//
// Every filesystem operation goes through a faultfs.FS (OpenFS), so the
// fault-injection harness can fail, tear or crash any individual step of
// the write discipline and prove the recovery claims above hold at each
// one.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/faultfs"
)

// Bucket names for the two manifest kinds.
const (
	// JobsBucket holds per-job manifests.
	JobsBucket = "jobs"
	// ArraysBucket holds per-array manifests.
	ArraysBucket = "arrays"
)

// Store is a content-addressed result store rooted at one directory. All
// methods are safe for concurrent use (atomicity comes from rename, not
// locking). The directory itself is exclusively owned: Open takes an
// advisory flock that a second daemon's Open refuses, because two live
// instances would race the orphan sweep against each other's in-flight
// spills (one daemon's just-written, not-yet-referenced blobs look like
// orphans to the other). Close releases the lock; reads keep working on a
// closed store.
type Store struct {
	dir string
	fs  faultfs.FS

	lock      *os.File // flocked <dir>/LOCK; nil after Close
	closeOnce sync.Once

	// gcMu arbitrates retention GC against multi-step writers: spillers
	// hold the read side across their whole blob+manifest sequence
	// (Reserve), GC the write side, so GC never observes a spill between
	// its first blob and its manifest (see gc.go).
	gcMu sync.RWMutex
}

// lockName is the advisory lock file guarding a store directory. The file
// itself is empty and persists between runs — ownership is the flock, not
// existence, so a crashed daemon's lock vanishes with its process and
// never needs manual cleanup.
const lockName = "LOCK"

// Open prepares the store layout under dir on the real filesystem,
// creating it if needed and sweeping temp files a crashed writer may have
// left behind.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open over an injectable filesystem (nil selects the real one).
// The fault-injection suite passes a faultfs.Inject to fail or crash
// individual store operations deterministically.
func OpenFS(dir string, fsys faultfs.FS) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	s := &Store{dir: dir, fs: fsys}
	for _, sub := range []string{"objects", JobsBucket, ArraysBucket} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	// The lock must be held before the sweeps run: they delete anything
	// an unfinished writer hasn't published yet, which is only safe when
	// no such writer can exist.
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	if err := s.sweepTemp(); err != nil {
		_ = s.Close()
		return nil, err
	}
	// Reclaim content objects no manifest references: a spill writes blobs
	// first and the manifest last, so a crash between the two leaves
	// fully-written blobs with no owner, and a live record's snapshot is
	// orphaned when the terminal record overwrites it. A GC pass with no
	// retention bound is exactly that sweep; it is safe here because Open
	// precedes the daemon's first write, and safe against a crash mid-sweep
	// because deleting an unreferenced object never invalidates a manifest.
	if _, err := s.GC(RetentionPolicy{}, time.Time{}); err != nil {
		_ = s.Close()
		return nil, err
	}
	return s, nil
}

// acquireLock takes the exclusive advisory lock on the store directory.
// It goes through the real filesystem, not the injectable one — mutual
// exclusion between daemons is an OS service, not part of the crash
// discipline the fault harness exercises.
func (s *Store) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(s.dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return fmt.Errorf("store: %s is locked by another daemon instance: %w", s.dir, err)
	}
	s.lock = f
	return nil
}

// Close releases the store directory's exclusive lock so another daemon
// may open it. Idempotent; reads (Blob, Manifests) keep working — only
// ownership is given up, so a drained daemon can still serve stored
// results while its successor takes over writing.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.lock == nil {
			return
		}
		_ = syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
		err = s.lock.Close()
		s.lock = nil
	})
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// sweepTemp removes leftover *.tmp files (a crash between create and
// rename). Visible names are never *.tmp, so this cannot race a completed
// write. Temp files only ever live next to their final location: the
// bucket directories and the objects/<xx> fan-out.
func (s *Store) sweepTemp() error {
	dirs := []string{s.dir, filepath.Join(s.dir, JobsBucket), filepath.Join(s.dir, ArraysBucket)}
	objects := filepath.Join(s.dir, "objects")
	ents, err := s.fs.ReadDir(objects)
	if err != nil {
		return err
	}
	dirs = append(dirs, objects)
	for _, e := range ents {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(objects, e.Name()))
		}
	}
	for _, d := range dirs {
		ents, err := s.fs.ReadDir(d)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
				if err := s.fs.Remove(filepath.Join(d, e.Name())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// collectHashes walks a decoded JSON document and records every string that
// is shaped like a content address. Manifests store hashes as plain string
// fields, so shape-matching over the whole document keeps the sweep
// oblivious to the manifest schema — a new hash-bearing field can never be
// forgotten here and cause data loss.
func collectHashes(doc any, out map[string]bool) {
	switch v := doc.(type) {
	case string:
		if isHash(v) {
			out[v] = true
		}
	case []any:
		for _, e := range v {
			collectHashes(e, out)
		}
	case map[string]any:
		for _, e := range v {
			collectHashes(e, out)
		}
	}
}

// isHash reports whether name has the shape of a content address.
func isHash(name string) bool {
	if len(name) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// writeAtomic lands blob at path via a same-directory temp file, fsync and
// rename, so path never holds a partial write. The parent directory is
// fsynced after the rename — without that, a power loss could persist a
// later write's directory entry while dropping this one, breaking the
// blobs-before-manifest ordering spillers rely on.
func (s *Store) writeAtomic(path string, blob []byte) error {
	f, err := s.fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	} else {
		_ = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return s.fs.SyncDir(filepath.Dir(path))
}

// HashBlob returns the content address (SHA-256 hex) PutBlob would assign.
func HashBlob(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// objectPath maps a content hash to its on-disk location.
func (s *Store) objectPath(hash string) (string, error) {
	if len(hash) != 2*sha256.Size {
		return "", fmt.Errorf("store: malformed object hash %q", hash)
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return "", fmt.Errorf("store: malformed object hash %q", hash)
	}
	return filepath.Join(s.dir, "objects", hash[:2], hash), nil
}

// PutBlob stores blob under its content address and returns the hash.
// Storing the same content twice is a no-op — identical results across
// array children (or retries) share one object.
func (s *Store) PutBlob(blob []byte) (string, error) {
	hash := HashBlob(blob)
	path, err := s.objectPath(hash)
	if err != nil {
		return "", err
	}
	if _, err := s.fs.Stat(path); err == nil {
		return hash, nil
	}
	if err := s.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	if err := s.writeAtomic(path, blob); err != nil {
		return "", err
	}
	return hash, nil
}

// Blob returns the object stored under hash, verifying the content against
// its address: a torn or bit-flipped object is reported as corruption, not
// returned.
func (s *Store) Blob(hash string) ([]byte, error) {
	path, err := s.objectPath(hash)
	if err != nil {
		return nil, err
	}
	blob, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got := HashBlob(blob); got != hash {
		return nil, fmt.Errorf("store: object %s is corrupt (content hashes to %s)", hash, got)
	}
	return blob, nil
}

// PutManifest writes the manifest for id into a bucket (JobsBucket or
// ArraysBucket) with the temp-file + rename discipline.
func (s *Store) PutManifest(bucket, id string, m any) error {
	path, err := s.manifestPath(bucket, id)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return s.writeAtomic(path, blob)
}

// manifestPath validates the id (it becomes a file name) and returns the
// manifest location.
func (s *Store) manifestPath(bucket, id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("store: invalid manifest id %q", id)
	}
	return filepath.Join(s.dir, bucket, id+".json"), nil
}

// Manifests streams every manifest in a bucket through decode as
// (id, raw JSON) pairs. A decode error aborts the walk — rename-atomicity
// means a malformed file is corruption, not an in-progress write.
func (s *Store) Manifests(bucket string, decode func(id string, blob []byte) error) error {
	entries, err := s.fs.ReadDir(filepath.Join(s.dir, bucket))
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		blob, err := s.fs.ReadFile(filepath.Join(s.dir, bucket, name))
		if err != nil {
			return err
		}
		if err := decode(strings.TrimSuffix(name, ".json"), blob); err != nil {
			return fmt.Errorf("store: manifest %s/%s: %w", bucket, name, err)
		}
	}
	return nil
}
