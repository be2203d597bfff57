// Package jobd is the multi-job orchestration layer that turns the
// solidification engine into a service: jobs — schedule-driven production
// runs — are submitted over an HTTP/JSON API, queued by priority, and
// executed up to K at a time against one shared intra-block worker budget.
//
// The paper's production story is an always-on pipeline of
// process-parameter studies sharing fixed hardware, not one hand-launched
// binary per run. jobd multiplexes the primitives the engine already has:
//
//   - the persistent sweep worker pool (budget shares are re-split across
//     running jobs as jobs start and finish; a job applies its new share
//     at the next timestep boundary, and shrinks are acknowledged before a
//     new job starts, so the global budget is never exceeded — an
//     invariant made observable by the shared solver.WorkerGauge);
//   - event schedules (a job is just a composed schedule plus a domain);
//   - lossless float64 checkpoints (a higher-priority submission preempts
//     the lowest-priority running job at a timestep boundary via an
//     in-memory snapshot; the job later resumes bit-identically — the
//     resumed trajectory is indistinguishable from an uninterrupted one);
//   - idempotent comm.World shutdown (cancellation arrives from API
//     goroutines while exchanges are in flight).
//
// Beyond single jobs, jobd is a campaign engine:
//
//   - job arrays (POST /arrays) expand a template spec over a parameter
//     grid — the schedule references grid parameters as "${name}"
//     placeholders (schedule.Instantiate) — into one child job per grid
//     point, with deterministic child ids ("arr-0001.003") and fair
//     round-robin interleaving against other submissions of the same
//     priority;
//   - resource classes (Config.Classes) cap how many sweep workers all
//     jobs of one class may hold collectively, shares assigned by
//     per-class water-filling, so an array of cheap scouts cannot starve
//     a production run — observable per class via WorkerGauge.Class;
//   - the persistent store (Config.StoreDir, internal/jobd/store) is the
//     daemon's only disk format: every terminal job spills its final
//     checkpoint, replayable schedule and metrics summary to a
//     content-addressed layout; a restarted daemon serves /result and
//     /schedule byte-identical to its predecessor, and
//     GET /arrays/{id}/results aggregates a campaign's per-child
//     parameters and metrics.
//
// On SIGTERM the daemon (cmd/solidifyd) drains: every in-flight job is
// preempted and snapshotted, and it and every queued job are written to
// the same store as live ("queued") records, so a daemon restarted over
// the store (LoadStore) resumes where the old one stopped. Without a
// store nothing outlives the process.
package jobd

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/jobd/store"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Config sizes the daemon.
type Config struct {
	// MaxConcurrent is K, the number of jobs stepping simultaneously
	// (default 1).
	MaxConcurrent int
	// Budget is the global intra-block sweep worker budget shared by all
	// running jobs (default GOMAXPROCS). Every running job gets
	// ⌊Budget/n⌋ workers; a job whose block count exceeds that share is
	// not admitted until slots free up.
	Budget int
	// StoreDir, when non-empty, is the persistent store: terminal jobs
	// spill their final checkpoint, replayable schedule and metrics summary
	// there, Drain adds the preempted and queued ones, and a restarted
	// daemon serves the former byte-identically and resumes the latter
	// (LoadStore).
	StoreDir string
	// Classes maps resource-class names to per-class worker budgets W_c.
	// Jobs of one class collectively never hold more than W_c workers
	// (budget unused by a capped class flows to the others). The "default"
	// class always exists with the full Budget unless overridden here.
	Classes map[string]int
	// ReportEvery is the metrics sampling cadence in steps (default 5).
	ReportEvery int
	// SnapshotEvery, when > 0, is the safety-snapshot cadence in steps: a
	// running job writes a lossless in-memory checkpoint at every multiple,
	// and an automatic retry (Spec.MaxRetries) resumes from the last one
	// instead of step 0. Costs one float64 checkpoint in memory per
	// running job; 0 disables (retries then restart from the beginning, or
	// from the last preemption snapshot).
	SnapshotEvery int
	// RetryBackoff is the delay before a failed job's first automatic
	// retry; it doubles with each further retry, capped at 64×. Default
	// 100ms.
	RetryBackoff time.Duration
	// StallTimeout, when > 0, arms the watchdog: a running job that
	// reaches no timestep boundary within the window is declared stalled,
	// canceled cooperatively at its next boundary, and routed through the
	// retry/quarantine path. Size it above the worst-case initialization
	// plus one step. Spec.StallSeconds overrides it per job. The scan
	// runs every StallTimeout/4.
	StallTimeout time.Duration
	// AllowFaults permits submitted specs to carry a FaultSpec
	// (deterministic fault injection for tests and recovery drills;
	// solidifyd -chaos). Off, a fault-bearing spec is rejected.
	AllowFaults bool
	// StoreGCMaxBytes and StoreGCMaxAge form the result store's retention
	// policy (store.RetentionPolicy): when set, stored results of the
	// oldest terminal jobs are evicted to fit the byte quota, and results
	// older than the age bound are dropped regardless of size. Zero values
	// disable the respective bound; with both zero the store grows
	// unboundedly (the pre-retention behavior).
	StoreGCMaxBytes int64
	StoreGCMaxAge   time.Duration
	// StoreGCEvery is the periodic retention-GC cadence. 0 runs GC only
	// once, at LoadStore.
	StoreGCEvery time.Duration
	// StoreFS, when non-nil, routes the result store's filesystem
	// operations through an injectable implementation (the fault-injection
	// suite passes a faultfs.Inject). Nil selects the real filesystem.
	StoreFS faultfs.FS
	// Log, when non-nil, receives daemon-side progress and spill-failure
	// lines.
	Log func(string)
}

// Server is the orchestration daemon: queue, scheduler and job registry.
// Create with New, start with Start, serve Handler over HTTP, stop with
// Drain (or Close for tests).
type Server struct {
	cfg     Config
	gauge   *solver.WorkerGauge
	classes map[string]int // resolved resource classes (name → W_c)
	metrics *obs.Counters  // the jobd_* families of GET /metrics

	mu          sync.Mutex
	jobs        map[string]*Job
	queue       []*Job // StateQueued jobs, unordered (sorted on pop)
	running     map[string]*Job
	arrays      map[string]*Array
	store       *store.Store // nil until LoadStore
	draining    bool
	nextSeq     int64
	nextID      int
	nextArrayID int
	// Fairness bookkeeping: groupPick[g] is the pickSeq at which group g
	// last started (or, for a newly seen group, joined) the queue; the
	// scheduler favors the smallest pick within a priority level. Entries
	// exist only while the group has queued jobs — a group re-enqueueing
	// later re-enters at the current pickSeq, so it cannot jump ahead of
	// groups that have been waiting.
	groupPick map[string]int64
	pickSeq   int64

	// Degraded store mode: terminal jobs whose spill failed wait here for
	// the background flusher, which retries with backoff until the store
	// recovers. While the map is non-empty the daemon reports degraded
	// via /healthz (and keeps serving those jobs from memory).
	pendingSpills map[string]*Job
	flusherOn     bool

	// Fleet counters exported by GET /metrics.
	retriesTotal    atomic.Int64
	stallsTotal     atomic.Int64
	spillFailsTotal atomic.Int64
	degraded        atomic.Bool

	wake chan struct{}
	quit chan struct{}

	runnersWG   sync.WaitGroup
	spillWG     sync.WaitGroup // async store spills (queued-cancel path)
	spillSem    chan struct{}  // bounds concurrent fsync-heavy spills
	schedulerWG sync.WaitGroup
	flushWG     sync.WaitGroup // degraded-mode spill-retry flusher
}

// enqueueLocked appends j to the queue, seeding its fairness group at the
// current pick sequence on first sight. s.mu must be held.
func (s *Server) enqueueLocked(j *Job) {
	if _, ok := s.groupPick[j.group]; !ok {
		s.groupPick[j.group] = s.pickSeq
	}
	s.queue = append(s.queue, j)
}

// pruneGroupLocked drops a group's fairness entry once it has no queued
// jobs left, bounding the map on an always-on daemon. s.mu must be held.
func (s *Server) pruneGroupLocked(group string) {
	for _, q := range s.queue {
		if q.group == group {
			return
		}
	}
	delete(s.groupPick, group)
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.Budget < 1 {
		cfg.Budget = runtime.GOMAXPROCS(0)
	}
	if cfg.ReportEvery < 1 {
		cfg.ReportEvery = 5
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	return &Server{
		cfg:       cfg,
		gauge:     &solver.WorkerGauge{},
		classes:   resolveClasses(cfg.Budget, cfg.Classes),
		metrics:   newMetrics(),
		jobs:      make(map[string]*Job),
		running:   make(map[string]*Job),
		arrays:    make(map[string]*Array),
		groupPick: make(map[string]int64),
		spillSem:  make(chan struct{}, 4),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
}

// Gauge exposes the shared sweep-worker gauge (tests assert
// Gauge().Max() <= Budget).
func (s *Server) Gauge() *solver.WorkerGauge { return s.gauge }

// Start launches the scheduler goroutine and, when Config.StallTimeout is
// set, the watchdog.
func (s *Server) Start() {
	s.schedulerWG.Add(1)
	go func() {
		defer s.schedulerWG.Done()
		for {
			select {
			case <-s.quit:
				return
			case <-s.wake:
				s.schedule()
			}
		}
	}()
	if s.cfg.StallTimeout > 0 {
		s.every(s.cfg.StallTimeout/4, s.checkStalls)
	}
	if s.cfg.StoreGCEvery > 0 && s.retention().Enabled() {
		s.every(s.cfg.StoreGCEvery, func() { _, _ = s.RunStoreGC() })
	}
}

// every runs fn on a ticker until the daemon quits.
func (s *Server) every(d time.Duration, fn func()) {
	s.schedulerWG.Add(1)
	go func() {
		defer s.schedulerWG.Done()
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// checkStalls is one watchdog pass: every running job whose last timestep
// boundary is older than its progress deadline gets a ctrlStall verb (once
// — the CAS loses against an already-posted cancel or preempt, which is
// correct: those verbs already reclaim the slot).
func (s *Server) checkStalls() {
	now := time.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.running {
		deadline := s.cfg.StallTimeout
		if j.Spec.StallSeconds > 0 {
			deadline = time.Duration(j.Spec.StallSeconds) * time.Second
		}
		if now-j.lastBeat.Load() <= int64(deadline) {
			continue
		}
		if j.ctrl.CompareAndSwap(ctrlNone, ctrlStall) {
			s.stallsTotal.Add(1)
			j.mu.Lock()
			j.stalls++
			j.mu.Unlock()
			j.mark("stall", fmt.Sprintf("no progress within %v", deadline))
			s.logf("jobd: watchdog: %s made no progress within %v", j.ID, deadline)
		}
	}
}

// wakeup nudges the scheduler (never blocks).
func (s *Server) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit validates a spec, registers the job, and enqueues it.
func (s *Server) Submit(spec Spec) (*Job, error) {
	sched, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	if spec.blocks() > s.cfg.Budget {
		return nil, fmt.Errorf("jobd: job needs %d block ranks but the worker budget is %d",
			spec.blocks(), s.cfg.Budget)
	}
	if spec.Fault != nil && !s.cfg.AllowFaults {
		return nil, fmt.Errorf("jobd: fault injection is disabled on this daemon")
	}
	if err := s.validateClass(&spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.nextID++
	s.nextSeq++
	j := newJob(fmt.Sprintf("job-%04d", s.nextID), s.nextSeq, spec, sched)
	s.jobs[j.ID] = j
	s.enqueueLocked(j)
	s.mu.Unlock()
	j.mark("submit", "class "+spec.Class)
	s.wakeup()
	return j, nil
}

// errDraining marks submissions rejected during shutdown.
var errDraining = fmt.Errorf("jobd: daemon is draining")

// IsDraining reports whether err is the drain rejection.
func IsDraining(err error) bool { return err == errDraining }

// Get returns a job by id.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns all jobs ordered by submission.
func (s *Server) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Cancel removes a job: queued jobs are canceled immediately; a running
// job is told to stop at its next timestep boundary. Terminal jobs are
// left as they are (reported by the returned state).
func (s *Server) Cancel(id string) (State, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return "", false
	}
	j.mu.Lock()
	switch {
	case j.state.terminal():
		st := j.state
		j.mu.Unlock()
		s.mu.Unlock()
		return st, true
	case j.state == StateQueued:
		j.state = StateCanceled
		j.snapshot = nil
		j.mu.Unlock()
		j.mark("canceled", "canceled while queued")
		s.dropFromQueueLocked(j)
		s.pruneGroupLocked(j.group)
		// Terminal states reached off the runner path must spill too, or a
		// restarted daemon would forget the cancellation ever happened.
		// Asynchronously (Drain waits via spillWG): canceling a wide array
		// must not serialize hundreds of fsyncs into the DELETE request.
		// Once draining, spill synchronously instead — Drain may already be
		// past its spillWG.Wait, and an Add racing that Wait is both lost
		// work and WaitGroup misuse.
		async := !s.draining
		if async {
			s.spillWG.Add(1) // under s.mu, ordered before Drain sets draining
		}
		s.mu.Unlock()
		if async {
			go func() {
				defer s.spillWG.Done()
				// Canceling a 1000-child array spawns one goroutine per
				// child; the semaphore keeps the fsync storm off the disk.
				s.spillSem <- struct{}{}
				defer func() { <-s.spillSem }()
				s.spillDone(j)
			}()
		} else {
			s.spillDone(j)
		}
		j.closeSubs()
		s.wakeup()
		return StateCanceled, true
	default: // running
		j.mu.Unlock()
		j.ctrl.Store(ctrlCancel)
		s.mu.Unlock()
		j.mark("cancel", "cancel requested while running")
		return StateRunning, true
	}
}

// dropFromQueueLocked removes j from the queue slice; s.mu must be held.
func (s *Server) dropFromQueueLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// bestQueuedLocked returns the queued job that should run next, ignoring
// jobs in skip (nil = none): highest priority first; within a priority,
// the least-recently-served fairness group (so a wide array's children
// interleave with other submissions instead of draining FIFO); within a
// group, earliest submission. Jobs sitting out a retry backoff
// (notBefore in the future) are invisible to this pass — retryOrFail has
// scheduled a wakeup for when they become eligible. s.mu must be held.
func (s *Server) bestQueuedLocked(skip map[*Job]bool) *Job {
	var best *Job
	var bestPick int64
	now := time.Now().UnixNano()
	for _, j := range s.queue {
		if skip[j] || j.notBefore.Load() > now {
			continue
		}
		pick := s.groupPick[j.group]
		better := best == nil ||
			j.Spec.Priority > best.Spec.Priority ||
			(j.Spec.Priority == best.Spec.Priority &&
				(pick < bestPick || (pick == bestPick && j.seq < best.seq)))
		if better {
			best, bestPick = j, pick
		}
	}
	return best
}

// schedule is one pass of the scheduling policy: preempt if a queued job
// outranks a running one, then admit while slots and budget allow, then
// relax shares upward if slots emptied.
func (s *Server) schedule() {
	s.preemptIfOutranked()
	for s.admitOne() {
	}
	s.relaxShares()
}

// preemptIfOutranked asks a running job to preempt when a strictly
// higher-priority job waits and all slots are busy. The victim must be
// outranked AND its eviction must actually make the waiting job
// admissible under the class caps — otherwise (e.g. the waiting job's own
// class is saturated by a non-evictable peer) preempting would just churn
// snapshots while admission keeps re-admitting the victim. Among usable
// victims, the lowest-priority most-recent one is chosen.
func (s *Server) preemptIfOutranked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.running) < s.cfg.MaxConcurrent {
		return
	}
	best := s.bestQueuedLocked(nil)
	if best == nil {
		return
	}
	var victim *Job
	for _, j := range s.running {
		if j.Spec.Priority >= best.Spec.Priority {
			continue
		}
		if victim == nil || j.Spec.Priority < victim.Spec.Priority ||
			(j.Spec.Priority == victim.Spec.Priority && j.seq > victim.seq) {
			if s.evictionAdmitsLocked(j, best) {
				victim = j
			}
		}
	}
	if victim != nil {
		victim.ctrl.CompareAndSwap(ctrlNone, ctrlPreempt)
	}
}

// evictionAdmitsLocked reports whether the running set with victim
// replaced by cand water-fills so that every member (cand included) gets
// its block count. s.mu must be held.
func (s *Server) evictionAdmitsLocked(victim, cand *Job) bool {
	after := make([]*Job, 0, len(s.running))
	for _, rj := range s.running {
		if rj != victim {
			after = append(after, rj)
		}
	}
	after = append(after, cand)
	shares := s.sharesFor(after)
	for _, j := range after {
		if shares[j] < j.Spec.blocks() || shares[j] < 1 {
			return false
		}
	}
	return true
}

// admitOne starts the best admissible queued job if a slot is free: the
// per-class water-filled shares must leave every running job — and the
// candidate — at least one worker per block rank. Candidates that cannot
// run right now (their class cap saturated, or a decomposition wider than
// the attainable share) are skipped so they don't head-of-line-block
// admissible jobs of other classes; they keep their fairness standing and
// get first refusal on the next pass once capacity frees. Returns true
// when a job started (the caller loops).
func (s *Server) admitOne() bool {
	s.mu.Lock()
	if s.draining || len(s.running) >= s.cfg.MaxConcurrent {
		s.mu.Unlock()
		return false
	}
	var j *Job
	var shares map[*Job]int
	skip := map[*Job]bool{}
	for {
		j = s.bestQueuedLocked(skip)
		if j == nil {
			s.mu.Unlock()
			return false
		}
		shares = s.sharesLocked(j)
		admissible := shares[j] >= j.Spec.blocks() && shares[j] >= 1
		for _, rj := range s.running {
			if shares[rj] < rj.Spec.blocks() || shares[rj] < 1 {
				admissible = false
				break
			}
		}
		if admissible {
			break
		}
		skip[j] = true
	}
	s.dropFromQueueLocked(j)
	s.pickSeq++
	s.groupPick[j.group] = s.pickSeq
	s.pruneGroupLocked(j.group)
	type peer struct {
		j      *Job
		target int32
	}
	peers := make([]peer, 0, len(s.running))
	for _, rj := range s.running {
		rj.desiredShare.Store(int32(shares[rj]))
		peers = append(peers, peer{rj, int32(shares[rj])})
	}
	newShare := shares[j]
	s.mu.Unlock()

	// Wait for every peer to shrink onto its new share (or leave the
	// running set) before the newcomer starts — neither the global budget
	// nor any class budget may be exceeded, not even transiently. Shrinks
	// are applied at timestep boundaries, so this wait is bounded by one
	// step.
	for _, p := range peers {
		for p.j.appliedShare.Load() > p.target && s.isRunning(p.j) {
			time.Sleep(200 * time.Microsecond)
		}
	}

	s.mu.Lock()
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while we were rebalancing; the slot stays free.
		j.mu.Unlock()
		s.mu.Unlock()
		return true
	}
	if s.draining {
		// Lost the race against Drain: put the job back.
		j.mu.Unlock()
		s.enqueueLocked(j)
		s.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.mu.Unlock()
	j.ctrl.Store(ctrlNone)
	j.desiredShare.Store(int32(newShare))
	j.appliedShare.Store(int32(newShare))
	j.mark("start", fmt.Sprintf("%d workers", newShare))
	s.running[j.ID] = j
	s.runnersWG.Add(1)
	go s.runJob(j)
	s.mu.Unlock()
	return true
}

// relaxShares grows every running job's share to the current water-filled
// split (safe to apply lazily: growing late never violates a budget).
func (s *Server) relaxShares() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.running) == 0 {
		return
	}
	shares := s.sharesLocked(nil)
	for _, j := range s.running {
		if sh := int32(shares[j]); j.desiredShare.Load() < sh {
			j.desiredShare.Store(sh)
		}
	}
}

// isRunning reports whether j is still in the running set.
func (s *Server) isRunning(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.running[j.ID]
	return ok
}

// onRunnerExit moves a finished runner's job out of the running set,
// requeueing it when it was preempted.
func (s *Server) onRunnerExit(j *Job) {
	s.mu.Lock()
	delete(s.running, j.ID)
	if j.State() == StateQueued { // preempted
		s.enqueueLocked(j)
	}
	s.mu.Unlock()
	s.wakeup()
}

// Drain stops the daemon gracefully: no new submissions, every running job
// is preempted (checkpointed at its next timestep boundary), and — when a
// store is configured — every queued or preempted job is written to it as
// a live record for the next daemon instance (LoadStore). Blocks until
// every runner has exited; returns the first store write error.
func (s *Server) Drain() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.runnersWG.Wait()
		return nil
	}
	s.draining = true
	for _, j := range s.running {
		j.ctrl.CompareAndSwap(ctrlNone, ctrlPreempt)
	}
	s.mu.Unlock()

	s.runnersWG.Wait()
	s.spillWG.Wait()
	close(s.quit)
	s.schedulerWG.Wait()
	s.flushWG.Wait()
	// One last synchronous attempt at spills the degraded-mode flusher was
	// still retrying: the store may have recovered (disk freed) between the
	// last backoff tick and now, and a drained daemon should leave as few
	// memory-only results behind as possible.
	s.flushPending()

	// Every runner has exited and the scheduler is stopped, so the queue is
	// the complete set of live jobs: never started, preempted above, or
	// sitting out a retry backoff.
	s.mu.Lock()
	st := s.store
	live := append([]*Job(nil), s.queue...)
	s.mu.Unlock()
	var first error
	for _, j := range live {
		if err := s.spillJob(j); err != nil {
			s.logf("jobd: drain: %v", err)
			if first == nil {
				first = err
			}
		}
	}

	// Release the store directory's exclusive lock so a successor daemon
	// can open it; the store keeps serving reads for /result requests that
	// arrive after the drain.
	if st != nil {
		_ = st.Close()
	}
	return first
}

// Close is Drain for tests that ignore its error.
func (s *Server) Close() { _ = s.Drain() }
