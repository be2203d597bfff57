package jobd

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/solver"
)

// Spec is a job submission: the domain configuration plus the production
// schedule driving the run. It is the JSON body of POST /jobs.
type Spec struct {
	Name string `json:"name,omitempty"`

	// Domain size in cells and block decomposition (defaults 1×1).
	NX int `json:"nx"`
	NY int `json:"ny"`
	NZ int `json:"nz"`
	PX int `json:"px,omitempty"`
	PY int `json:"py,omitempty"`

	// Steps is the total number of timesteps the job runs (across
	// preemptions).
	Steps int `json:"steps"`

	// Priority orders the queue; larger runs first. A queued job with
	// strictly greater priority than a running one preempts it at the
	// next timestep boundary.
	Priority int `json:"priority,omitempty"`

	Seed int64 `json:"seed,omitempty"`

	// Scenario selects the initial composition: "production" (default,
	// Voronoi nuclei under melt) or "interface" (planar front).
	Scenario string `json:"scenario,omitempty"`

	// Window enables the moving-window technique (PZ is always 1 here).
	Window bool `json:"window,omitempty"`

	// Class names the job's resource class — a configured worker-budget
	// cap shared by all concurrently running jobs of the class, so cheap
	// scouts cannot starve a production run. Empty selects DefaultClass
	// (the full global budget).
	Class string `json:"class,omitempty"`

	// MaxRetries is how many automatic retries the job gets after a
	// failure (a kernel panic, a mid-run error, or a watchdog stall).
	// Each retry resumes from the job's last in-memory safety snapshot
	// (Config.SnapshotEvery) after an exponential backoff; a job that
	// exhausts its retries is quarantined as failed, with the retry count
	// and last error in its status.
	MaxRetries int `json:"max_retries,omitempty"`

	// StallSeconds overrides the daemon's watchdog deadline for this job:
	// the maximum wall-clock gap between timestep boundaries before the
	// job is declared stalled. 0 keeps the daemon default
	// (Config.StallTimeout); irrelevant when the watchdog is off.
	StallSeconds int `json:"stall_seconds,omitempty"`

	// Fault injects a deterministic fault into this job's run — the chaos
	// surface of the fault-injection harness. Rejected unless the daemon
	// runs with Config.AllowFaults (solidifyd -chaos).
	Fault *FaultSpec `json:"fault,omitempty"`

	// Params records a parameter assignment. On an array child it is the
	// grid point the child was expanded from; on an array template it
	// supplies fixed template parameters shared by every child.
	Params map[string]float64 `json:"params,omitempty"`

	// Schedule is an embedded schedule file ({"events": [...]}; the same
	// format as cmd/solidify -schedule). Optional.
	Schedule json.RawMessage `json:"schedule,omitempty"`
}

// Fault-injection modes accepted in FaultSpec.Mode.
const (
	// FaultPanicSweep panics inside a kernel sweep (via the solver's
	// faultfs point) during the step after Step — the poisoned-kernel
	// scenario, exercising panic isolation end to end.
	FaultPanicSweep = "panic-sweep"
	// FaultFailStep makes the run return an error at the Step boundary —
	// a transient mid-run failure, exercising the retry path without
	// corrupting any state.
	FaultFailStep = "fail-step"
	// FaultStallStep wedges the run at the Step boundary until a control
	// verb arrives — the hung-job scenario, exercising the watchdog.
	FaultStallStep = "stall-step"
)

// FaultSpec describes one deterministic injected fault, part of a Spec on
// daemons running with Config.AllowFaults. The fault fires at (or, for
// panic-sweep, during the step after) the Step boundary, Times times in
// total across the job's retries — so a fault with Times < 1+MaxRetries
// is transient and the job eventually completes.
type FaultSpec struct {
	// Mode selects the fault (Fault* constants).
	Mode string `json:"mode"`
	// Step is the completed-step count at which the fault fires.
	Step int `json:"step"`
	// Times bounds the total firings across retries (default 1).
	Times int `json:"times,omitempty"`
}

// validate checks a submitted fault spec.
func (f *FaultSpec) validate() error {
	switch f.Mode {
	case FaultPanicSweep, FaultFailStep, FaultStallStep:
	default:
		return fmt.Errorf("jobd: unknown fault mode %q", f.Mode)
	}
	if f.Step < 0 || f.Times < 0 {
		return fmt.Errorf("jobd: fault step/times must be non-negative")
	}
	return nil
}

// blocks returns the number of block ranks the spec decomposes into.
func (sp *Spec) blocks() int { return sp.PX * sp.PY }

// normalize fills defaults and validates the spec; the parsed schedule is
// returned so submission errors surface at the API boundary, not mid-run.
func (sp *Spec) normalize() (*schedule.Schedule, error) {
	if err := sp.validateFields(); err != nil {
		return nil, err
	}
	if len(sp.Schedule) == 0 {
		return nil, nil
	}
	sched, err := schedule.FromJSONBytes(sp.Schedule)
	if err != nil {
		return nil, err
	}
	if err := validateSubmittedSchedule(sched); err != nil {
		return nil, err
	}
	return sched, nil
}

// validateFields fills defaults and validates the non-schedule spec
// fields (array expansion validates the schedule separately, from the
// already-parsed template instantiation).
func (sp *Spec) validateFields() error {
	if sp.PX == 0 {
		sp.PX = 1
	}
	if sp.PY == 0 {
		sp.PY = 1
	}
	if sp.NX <= 0 || sp.NY <= 0 || sp.NZ <= 0 {
		return fmt.Errorf("jobd: domain %dx%dx%d invalid", sp.NX, sp.NY, sp.NZ)
	}
	if sp.PX < 1 || sp.PY < 1 || sp.NX%sp.PX != 0 || sp.NY%sp.PY != 0 {
		return fmt.Errorf("jobd: domain %dx%d not divisible by blocks %dx%d",
			sp.NX, sp.NY, sp.PX, sp.PY)
	}
	if sp.Steps < 1 {
		return fmt.Errorf("jobd: steps %d invalid", sp.Steps)
	}
	if sp.Class == "" {
		sp.Class = DefaultClass
	}
	switch sp.Scenario {
	case "", "production", "interface":
	default:
		return fmt.Errorf("jobd: unknown scenario %q", sp.Scenario)
	}
	if sp.MaxRetries < 0 {
		return fmt.Errorf("jobd: max_retries %d invalid", sp.MaxRetries)
	}
	if sp.StallSeconds < 0 {
		return fmt.Errorf("jobd: stall_seconds %d invalid", sp.StallSeconds)
	}
	if sp.Fault != nil {
		if err := sp.Fault.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateSubmittedSchedule applies the daemon's schedule policy. The
// daemon writes no checkpoint files on behalf of jobs (preemption
// snapshots are in-memory; the final state is served by /result), and a
// path-bearing checkpoint event submitted over the network would be an
// arbitrary file write on the daemon host. Reject rather than silently
// strip.
func validateSubmittedSchedule(sched *schedule.Schedule) error {
	for _, c := range sched.Checkpoints() {
		if c.Path != "" {
			return fmt.Errorf("jobd: checkpoint events with a path are not allowed in submitted schedules (the daemon serves state via GET /jobs/{id}/result)")
		}
	}
	return nil
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: waiting for a slot (never run, or preempted — see
	// Status.Preemptions).
	StateQueued State = "queued"
	// StateRunning: a runner goroutine is stepping the simulation.
	StateRunning State = "running"
	// StateDone: all Steps completed; the final state is retrievable.
	StateDone State = "done"
	// StateFailed: the run aborted with an error.
	StateFailed State = "failed"
	// StateCanceled: removed by DELETE /jobs/{id} or daemon shutdown.
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen (done,
// failed or canceled).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// terminal is the package-internal spelling of Terminal.
func (s State) terminal() bool { return s.Terminal() }

// control verbs the scheduler posts to a runner; checked at every timestep
// boundary (the cooperative yield point).
const (
	ctrlNone int32 = iota
	ctrlPreempt
	ctrlCancel
	// ctrlStall is posted by the watchdog when a running job reaches no
	// timestep boundary within its progress deadline; the runner routes it
	// into the retry/quarantine path. Cooperative like the others: a job
	// wedged so hard it never reaches a boundary cannot be reclaimed, only
	// reported (the stall counters keep climbing).
	ctrlStall
)

// Sample is one metrics observation, streamed over GET /jobs/{id}/metrics
// as NDJSON.
type Sample struct {
	Step  int     `json:"step"`
	Steps int     `json:"steps"`
	Time  float64 `json:"time"`
	Solid float64 `json:"solid"`
	// ActiveFraction is the share of z-slices the solver's activity
	// tracker actually swept last step (1 = no slice slept).
	ActiveFraction float64 `json:"active_fraction"`
	MLUPs          float64 `json:"mlups"`
	State          State   `json:"state"`
	// Phases carries the step-phase timing of the reporting window
	// (between this sample and the previous one) when the solver's step
	// telemetry is on; absent on samples that cover no completed steps.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

// Status is the API view of a job (GET /jobs/{id}).
type Status struct {
	ID          string             `json:"id"`
	Name        string             `json:"name,omitempty"`
	Array       string             `json:"array,omitempty"`
	Class       string             `json:"class,omitempty"`
	Params      map[string]float64 `json:"params,omitempty"`
	State       State              `json:"state"`
	Priority    int                `json:"priority"`
	Step        int                `json:"step"`
	Steps       int                `json:"steps"`
	Time        float64            `json:"time"`
	Solid       float64            `json:"solid"`
	Workers     int                `json:"workers"`
	Preemptions int                `json:"preemptions"`
	// Retries is how many automatic retries the job has consumed;
	// LastError is the error that triggered the most recent one (kept
	// after a later retry succeeds, so a flaky-but-finished job is
	// diagnosable). Stalls counts watchdog firings against this job.
	Retries   int    `json:"retries,omitempty"`
	Stalls    int    `json:"stalls,omitempty"`
	LastError string `json:"last_error,omitempty"`
	Error     string `json:"error,omitempty"`
	// ScheduleError is the structured form of Error when the job failed
	// because its schedule prescribed boundary conditions the rank topology
	// cannot honor — a permanent input error the daemon does not retry. It
	// carries the offending face and step, so the submitter can fix the
	// event rather than parse the message.
	ScheduleError *solver.ScheduleError `json:"schedule_error,omitempty"`
}

// Job is the daemon-side state of one submitted run.
type Job struct {
	ID    string
	Spec  Spec
	seq   int64 // submission order; ties queue ordering within a priority
	sched *schedule.Schedule
	// group is the fairness unit the scheduler interleaves at equal
	// priority: the owning array's id, or the job's own id for singles.
	group string
	// array is the owning array's id ("" for singles).
	array string

	// Control words, written by the scheduler/API and read by the runner
	// at timestep boundaries.
	ctrl         atomic.Int32
	desiredShare atomic.Int32 // worker-budget share the scheduler wants
	appliedShare atomic.Int32 // share the runner has installed

	// notBefore (unixnano) is the retry-backoff gate: the scheduler skips
	// the queued job until the deadline passes. lastBeat (unixnano) is the
	// watchdog's progress marker, stored by the runner at every timestep
	// boundary. faultLeft counts remaining FaultSpec firings across
	// retries.
	notBefore atomic.Int64
	lastBeat  atomic.Int64
	faultLeft atomic.Int32

	// spillMu serializes store spills of this job (spillJob), so the record
	// on disk is always the latest state any spill observed.
	spillMu sync.Mutex

	mu          sync.Mutex
	state       State
	err         error
	step        int
	simTime     float64
	solid       float64
	activeFrac  float64 // last observed solver active fraction (0 = unknown)
	preemptions int
	retries     int   // automatic retries consumed
	stalls      int   // watchdog firings
	lastErr     error // error behind the most recent retry
	// snapshot is the float64 (lossless) checkpoint of a preempted job;
	// final is the float64 checkpoint of a completed one (GET result).
	snapshot []byte
	final    []byte
	// storedResult/storedSchedule are the content hashes of the spilled
	// result and applied-schedule blobs in the persistent store; a daemon
	// restarted over the store serves terminal jobs from these.
	storedResult   string
	storedSchedule string
	// applied accumulates the schedule recorder's audit log across
	// preemption segments (each resume starts a fresh Sim whose recorder
	// is empty).
	applied     []schedule.Event
	appliedSeen map[string]bool
	subs        map[chan Sample]struct{}

	// Telemetry snapshots for the trace and metrics endpoints, refreshed
	// by the runner at report boundaries and at attempt end. telemTot and
	// stepRecs cover the current attempt only (a fresh Sim restarts them);
	// marks is the job's whole lifecycle timeline.
	telemTot obs.StepTotals
	stepRecs []obs.StepRecord
	flows    []phasefield.HaloFlow
	latency  map[string]obs.HistogramSnapshot
	marks    []traceMark
}

func newJob(id string, seq int64, spec Spec, sched *schedule.Schedule) *Job {
	j := &Job{
		ID: id, Spec: spec, seq: seq, sched: sched,
		group:       id,
		state:       StateQueued,
		appliedSeen: make(map[string]bool),
		subs:        make(map[chan Sample]struct{}),
	}
	if spec.Fault != nil {
		times := spec.Fault.Times
		if times == 0 {
			times = 1
		}
		j.faultLeft.Store(int32(times))
	}
	return j
}

// Status snapshots the job for the API.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Name: j.Spec.Name, Array: j.array, Class: j.Spec.Class,
		Params: j.Spec.Params, State: j.state, Priority: j.Spec.Priority,
		Step: j.step, Steps: j.Spec.Steps, Time: j.simTime, Solid: j.solid,
		Preemptions: j.preemptions, Retries: j.retries, Stalls: j.stalls,
	}
	if j.state == StateRunning {
		st.Workers = int(j.appliedShare.Load())
	}
	if j.lastErr != nil {
		st.LastError = j.lastErr.Error()
	}
	if j.err != nil {
		st.Error = j.err.Error()
		var serr *solver.ScheduleError
		if errors.As(j.err, &serr) {
			st.ScheduleError = serr
		}
	}
	return st
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// mergeApplied folds a Sim segment's audit log into the job-level log,
// dropping stateless events already recorded by an earlier segment
// (one-shots never re-fire across segments — the checkpointed schedule
// position guarantees that).
func (j *Job) mergeApplied(events []schedule.Event) {
	for _, ev := range events {
		key := fmt.Sprintf("%T %v", ev, ev)
		if j.appliedSeen[key] {
			continue
		}
		j.appliedSeen[key] = true
		j.applied = append(j.applied, ev)
	}
}

// AppliedScheduleJSON dumps the job's accumulated audit log as a
// replayable schedule file.
func (j *Job) AppliedScheduleJSON() ([]byte, error) {
	j.mu.Lock()
	events := append([]schedule.Event(nil), j.applied...)
	j.mu.Unlock()
	return schedule.EncodeJSON(events)
}

// subscribe registers a metrics listener. The channel is buffered and
// lossy: a slow consumer drops samples, never stalls the runner. The
// channel is closed when the job reaches a terminal state.
func (j *Job) subscribe() (<-chan Sample, func()) {
	ch := make(chan Sample, 16)
	j.mu.Lock()
	if j.state.terminal() {
		// Deliver one terminal sample and close immediately.
		ch <- j.sampleLocked()
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	// Seed the stream with the current position.
	select {
	case ch <- j.sampleLocked():
	default:
	}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// sampleLocked builds a Sample from the current state; j.mu must be held.
func (j *Job) sampleLocked() Sample {
	af := j.activeFrac
	if af == 0 {
		af = 1 // not yet observed: the solver sweeps everything
	}
	return Sample{Step: j.step, Steps: j.Spec.Steps, Time: j.simTime,
		Solid: j.solid, ActiveFraction: af, State: j.state}
}

// publish pushes a sample to all subscribers (lossy).
func (j *Job) publish(s Sample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- s:
		default:
		}
	}
}

// closeSubs delivers a final sample and closes every subscriber channel;
// called when the job reaches a terminal state.
func (j *Job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	final := j.sampleLocked()
	for ch := range j.subs {
		select {
		case ch <- final:
		default:
		}
		close(ch)
		delete(j.subs, ch)
	}
}
