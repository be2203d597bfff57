package jobd

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/jobd/store"
	"repro/internal/schedule"
)

// persist.go — the daemon side of the persistent store, the only way a
// job record reaches disk. Terminal jobs spill their final checkpoint,
// replayable schedule and metrics summary into a content-addressed store
// (internal/jobd/store); a restarted daemon reloads the manifests and
// keeps serving /result and /schedule byte-identical to the pre-restart
// responses, because both endpoints serve the stored blobs verbatim (and
// the store verifies every blob against its content hash before it leaves
// disk). Drain writes queued and preempted jobs through the same sequence
// as live records, which the restarted daemon requeues.

// jobManifest is the on-store record of a job, one per id, last writer
// wins: the metrics summary plus the content addresses of its blobs. A
// terminal job references its result and schedule; a live one (State
// queued, written by Drain) its resume snapshot and the schedule applied
// so far, and is overwritten by the terminal record once the resumed job
// finishes. Name, class, params and total steps live in the embedded Spec
// — the one source of truth.
type jobManifest struct {
	ID          string  `json:"id"`
	Array       string  `json:"array,omitempty"`
	Spec        Spec    `json:"spec"`
	State       State   `json:"state"`
	Step        int     `json:"step"`
	Time        float64 `json:"time"`
	Solid       float64 `json:"solid"`
	Preemptions int     `json:"preemptions"`
	Retries     int     `json:"retries,omitempty"`
	Stalls      int     `json:"stalls,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
	Error       string  `json:"error,omitempty"`
	Result      string  `json:"result,omitempty"`   // blob hash, ckpt container bytes
	Schedule    string  `json:"schedule,omitempty"` // blob hash, replayable schedule JSON
	Snapshot    string  `json:"snapshot,omitempty"` // blob hash, lossless resume checkpoint (live jobs that ran)
}

// arrayManifest is the on-store record of an array.
type arrayManifest struct {
	ID       string    `json:"id"`
	Spec     ArraySpec `json:"spec"`
	Children []string  `json:"children"`
}

// logf reports a daemon-side event through the configured logger.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(fmt.Sprintf(format, args...))
	}
}

// LoadStore opens the configured store directory and restores the
// manifests a previous daemon instance left: terminal jobs (served from
// disk), live jobs a Drain recorded (requeued; they resume from their
// snapshot) and array records. Call before Start. Returns the number of
// jobs restored, of both kinds.
func (s *Server) LoadStore() (int, error) {
	if s.cfg.StoreDir == "" {
		return 0, nil
	}
	st, err := store.OpenFS(s.cfg.StoreDir, s.cfg.StoreFS)
	if err != nil {
		return 0, err
	}
	// Retention runs before the restore walk so the daemon only learns
	// about jobs whose results actually survived the policy (live records
	// are exempt from it, see store.GC).
	if pol := s.retention(); pol.Enabled() {
		if rep, err := st.GC(pol, time.Now()); err != nil {
			s.logf("jobd: store gc at load: %v", err)
		} else if rep.EvictedManifests > 0 || rep.EvictedBlobs > 0 {
			s.logf("jobd: store gc at load evicted %d manifests, %d blobs (%d bytes)",
				rep.EvictedManifests, rep.EvictedBlobs, rep.EvictedBytes)
		}
	}
	s.mu.Lock()
	s.store = st

	n := 0
	var manifests []jobManifest
	err = st.Manifests(store.JobsBucket, func(id string, blob []byte) error {
		var m jobManifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return err
		}
		if m.ID != id {
			return fmt.Errorf("manifest id %q names job %q", id, m.ID)
		}
		if !m.State.terminal() && m.State != StateQueued {
			return fmt.Errorf("stored job %s has state %q", id, m.State)
		}
		manifests = append(manifests, m)
		return nil
	})
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	// Directory order is not submission order; sort for stable listings.
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].ID < manifests[j].ID })
	var requeued, unresumable []*Job
	for _, m := range manifests {
		if _, exists := s.jobs[m.ID]; exists {
			continue
		}
		s.nextSeq++
		j := newJob(m.ID, s.nextSeq, m.Spec, nil)
		j.state = m.State
		j.step = m.Step
		j.simTime = m.Time
		j.solid = m.Solid
		j.preemptions = m.Preemptions
		j.retries = m.Retries
		j.stalls = m.Stalls
		if m.LastError != "" {
			j.lastErr = fmt.Errorf("%s", m.LastError)
		}
		if m.Error != "" {
			j.err = fmt.Errorf("%s", m.Error)
		}
		j.array = m.Array
		if j.array != "" {
			j.group = j.array
		}
		s.jobs[j.ID] = j
		if id := idNumber("job-%d", m.ID); id > s.nextID {
			s.nextID = id
		}
		// Child manifests also pin the array counter: the array's own
		// manifest may be missing (persistArray is best-effort), and a
		// reused array id would overwrite the stored children.
		if id := idNumber("arr-%d", m.Array); id > s.nextArrayID {
			s.nextArrayID = id
		}
		n++
		if m.State.terminal() {
			j.storedResult = m.Result
			j.storedSchedule = m.Schedule
		} else if err := j.resumeFrom(st, &m); err != nil {
			// Never resumed from torn bytes and never silently restarted
			// from step 0: this one job fails, the others load.
			j.state = StateFailed
			j.err = fmt.Errorf("jobd: restore %s: %w", j.ID, err)
			j.snapshot = nil
			unresumable = append(unresumable, j)
		} else {
			s.enqueueLocked(j)
			requeued = append(requeued, j)
		}
	}

	err = st.Manifests(store.ArraysBucket, func(id string, blob []byte) error {
		var m arrayManifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return err
		}
		if _, exists := s.arrays[m.ID]; !exists {
			s.nextSeq++
			s.arrays[m.ID] = &Array{ID: m.ID, Spec: m.Spec, Children: m.Children, seq: s.nextSeq}
			if id := idNumber("arr-%d", m.ID); id > s.nextArrayID {
				s.nextArrayID = id
			}
		}
		return nil
	})
	s.mu.Unlock()

	for _, j := range requeued {
		j.mark("restore", "restored from store")
		s.warnUnknownClass(j.ID, j.Spec.Class)
	}
	for _, j := range unresumable {
		j.mark(string(StateFailed), j.err.Error())
		// Make the verdict durable: the terminal record replaces the live
		// one, and the unreadable blobs become orphans the sweeps reclaim.
		s.spillDone(j)
	}
	if len(requeued) > 0 {
		s.logf("jobd: requeued %d drained job(s)", len(requeued))
		s.wakeup()
	}
	return n, err
}

// resumeFrom turns a freshly built job into the live one its manifest
// recorded: the parsed schedule, the resume snapshot and the audit log
// applied so far, the blobs verified against their content addresses.
func (j *Job) resumeFrom(st *store.Store, m *jobManifest) error {
	sched, err := j.Spec.normalize()
	if err != nil {
		return err
	}
	j.sched = sched
	if m.Snapshot != "" {
		if j.snapshot, err = st.Blob(m.Snapshot); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	if m.Schedule != "" {
		blob, err := st.Blob(m.Schedule)
		if err != nil {
			return fmt.Errorf("applied schedule: %w", err)
		}
		applied, err := schedule.FromJSONBytes(blob)
		if err != nil {
			return fmt.Errorf("applied schedule: %w", err)
		}
		j.mergeApplied(applied.Events)
	}
	return nil
}

// idNumber extracts the numeric suffix of a job or array id
// (idNumber("job-%d", "job-0042") → 42); 0 for an id of another shape.
func idNumber(format, id string) int {
	var n int
	if _, err := fmt.Sscanf(id, format, &n); err != nil {
		return 0
	}
	return n
}

// persistArray writes an array's manifest to the store (best effort: the
// in-memory record keeps serving if the spill fails).
func (s *Server) persistArray(arr *Array) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return
	}
	release := st.Reserve()
	defer release()
	m := arrayManifest{ID: arr.ID, Spec: arr.Spec, Children: arr.Children}
	if err := st.PutManifest(store.ArraysBucket, arr.ID, &m); err != nil {
		s.logf("jobd: store array %s: %v", arr.ID, err)
	}
}

// spillJob persists a job's current record: blobs first, the manifest
// referencing them last, so a manifest never points at a blob that was not
// fully written. A terminal job stores its result and schedule; a queued
// one (Drain) its resume snapshot and the schedule applied so far. A
// returned error means nothing authoritative landed — a terminal job keeps
// serving from memory and the caller (spillDone) parks it for the
// degraded-mode flusher to retry. Once a manifest holding the result is
// written, the in-memory copy is dropped.
func (s *Server) spillJob(j *Job) error {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	// One spill of a job at a time, state read to manifest written: a
	// cancel racing Drain must not have its terminal record overwritten by
	// the older queued one.
	j.spillMu.Lock()
	defer j.spillMu.Unlock()
	j.mu.Lock()
	m := jobManifest{
		ID: j.ID, Array: j.array, Spec: j.Spec, State: j.state,
		Step: j.step, Time: j.simTime, Solid: j.solid,
		Preemptions: j.preemptions, Retries: j.retries, Stalls: j.stalls,
	}
	if j.err != nil {
		m.Error = j.err.Error()
	}
	if j.lastErr != nil {
		m.LastError = j.lastErr.Error()
	}
	final, snapshot := j.final, j.snapshot
	// A result already in the store is referenced, not written again:
	// after the first spill the in-memory copy is gone.
	m.Result = j.storedResult
	j.mu.Unlock()

	// The whole blob+manifest sequence runs under one GC reservation, so
	// retention GC never observes the gap between a written blob and the
	// manifest that will reference it (store.Reserve).
	release := st.Reserve()
	defer release()

	var err error
	if final != nil {
		if m.Result, err = st.PutBlob(final); err != nil {
			return fmt.Errorf("store result of %s: %w", j.ID, err)
		}
	}
	if len(snapshot) > 0 {
		if m.Snapshot, err = st.PutBlob(snapshot); err != nil {
			return fmt.Errorf("store snapshot of %s: %w", j.ID, err)
		}
	}
	if blob, err := j.AppliedScheduleJSON(); err != nil {
		return fmt.Errorf("encode schedule of %s: %w", j.ID, err)
	} else if m.Schedule, err = st.PutBlob(blob); err != nil {
		return fmt.Errorf("store schedule of %s: %w", j.ID, err)
	}
	if err := st.PutManifest(store.JobsBucket, j.ID, &m); err != nil {
		return fmt.Errorf("store manifest of %s: %w", j.ID, err)
	}
	j.mu.Lock()
	j.storedResult = m.Result
	j.storedSchedule = m.Schedule
	if m.Result != "" {
		// The store now holds the result: /result serves the
		// content-verified blob, and the daemon's memory stops growing
		// with the number of jobs it has finished.
		j.final = nil
	}
	j.mu.Unlock()
	return nil
}

// retention is the store policy assembled from the config knobs.
func (s *Server) retention() store.RetentionPolicy {
	return store.RetentionPolicy{MaxBytes: s.cfg.StoreGCMaxBytes, MaxAge: s.cfg.StoreGCMaxAge}
}

// RunStoreGC applies the retention policy to the result store now and
// reconciles the in-memory registry with what was evicted: a terminal job
// whose manifest is gone is forgotten — its result lived only in the
// store — and its children show as missing in array aggregations, as
// after any restart without its record. No-op without a store or policy.
func (s *Server) RunStoreGC() (store.GCReport, error) {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	pol := s.retention()
	if st == nil || !pol.Enabled() {
		return store.GCReport{}, nil
	}
	rep, err := st.GC(pol, time.Now())
	if err != nil {
		s.logf("jobd: store gc: %v", err)
		return rep, err
	}
	s.mu.Lock()
	for _, id := range rep.Evicted {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.state.terminal()
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
		}
	}
	s.mu.Unlock()
	if rep.EvictedManifests > 0 || rep.EvictedBlobs > 0 {
		s.logf("jobd: store gc evicted %d manifests, %d blobs (%d bytes); %d manifests, %d bytes live",
			rep.EvictedManifests, rep.EvictedBlobs, rep.EvictedBytes, rep.LiveManifests, rep.LiveBytes)
	}
	return rep, nil
}

// hasResult reports whether a final checkpoint can be served for j, from
// memory or the store.
func (s *Server) hasResult(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.final != nil || j.storedResult != ""
}

// resultBytes returns the job's final checkpoint: the in-memory copy until
// the result is spilled (or always, without a store), then the stored blob
// (content-verified).
func (s *Server) resultBytes(j *Job) ([]byte, error) {
	j.mu.Lock()
	final, hash := j.final, j.storedResult
	j.mu.Unlock()
	if final != nil {
		return final, nil
	}
	if hash == "" {
		return nil, nil
	}
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("jobd: job %s result is in the store but no store is configured", j.ID)
	}
	return st.Blob(hash)
}

// scheduleBytes returns the job's replayable applied-schedule JSON. A
// terminal job with a stored blob serves those exact bytes — the live
// encoding at spill time — so responses are byte-identical across daemon
// restarts.
func (s *Server) scheduleBytes(j *Job) ([]byte, error) {
	j.mu.Lock()
	hash := j.storedSchedule
	terminal := j.state.terminal()
	j.mu.Unlock()
	if terminal && hash != "" {
		s.mu.Lock()
		st := s.store
		s.mu.Unlock()
		if st != nil {
			return st.Blob(hash)
		}
	}
	return j.AppliedScheduleJSON()
}
