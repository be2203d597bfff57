package jobd

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// metrics.go — daemon observability: the jobd_* families of GET /metrics,
// declared once and rendered by obs.Counters in strict Prometheus text
// format. Every series is recomputed from daemon state at scrape time
// (Reset + Set), so series of finished jobs drop out instead of freezing
// at their last value.
//
// The per-job counters cover the current attempt. Counter semantics hold
// within an attempt; a retry or preemption resume starts a fresh
// simulation and resets the series (rate() over a scrape straddling the
// restart sees one negative delta, as with any process restart).
var metricFamilies = []struct{ name, typ, help string }{
	{"jobd_jobs", "gauge", "Jobs known to the daemon, by lifecycle state."},
	{"jobd_queue_depth", "gauge", "Jobs waiting for a slot."},
	{"jobd_running", "gauge", "Jobs currently stepping."},
	{"jobd_workers_active", "gauge", "Sweep workers currently busy (unlabeled: all jobs; class label: that resource class only)."},
	{"jobd_workers_budget", "gauge", "Sweep-worker budget (unlabeled: global; class label: that class's cap)."},
	{"jobd_retries_total", "counter", "Automatic job retries since daemon start."},
	{"jobd_stalls_total", "counter", "Watchdog stall detections since daemon start."},
	{"jobd_spill_failures_total", "counter", "Failed result-store spills since daemon start."},
	{"jobd_store_degraded", "gauge", "Whether the result store is in degraded mode."},
	{"jobd_pending_spills", "gauge", "Terminal jobs awaiting a successful store spill."},
	{"jobd_active_fraction", "gauge", "Fraction of z-slices the solver swept last step, per running job."},
	{"jobd_job_phase_seconds_total", "counter", "Step-phase time of the running attempt, per job and phase."},
	{"jobd_halo_bytes_total", "counter", "Halo payload bytes exchanged by the running attempt, per job, neighbor rank and tag."},
	{"jobd_halo_frames_total", "counter", "Halo frames sent by the running attempt, per job, neighbor rank and tag."},
	{"jobd_exchange_latency_seconds", "histogram", "Whole halo-exchange latency of the running attempt, per job and tag."},
}

func newMetrics() *obs.Counters {
	c := obs.NewCounters()
	for _, f := range metricFamilies {
		c.Declare(f.name, f.typ, f.help)
	}
	return c
}

// publishMetrics recomputes every series from the daemon's live state;
// called at scrape time (obs.Counters.Scrape). The registry's own mutex is
// a leaf lock, so series are set directly under s.mu and j.mu.
func (s *Server) publishMetrics() {
	c := s.metrics
	for _, f := range metricFamilies {
		c.Reset(f.name)
	}
	gauge := func(name string, v int) { c.Set(name, "", float64(v)) }

	byState := map[State]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		byState[j.state]++
		if j.state == StateRunning {
			s.publishRunningLocked(j)
		}
		j.mu.Unlock()
	}
	gauge("jobd_queue_depth", len(s.queue))
	gauge("jobd_running", len(s.running))
	gauge("jobd_pending_spills", len(s.pendingSpills))
	s.mu.Unlock()
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		c.Set("jobd_jobs", obs.Labels("state", string(st)), float64(byState[st]))
	}
	gauge("jobd_retries_total", int(s.retriesTotal.Load()))
	gauge("jobd_stalls_total", int(s.stallsTotal.Load()))
	gauge("jobd_spill_failures_total", int(s.spillFailsTotal.Load()))
	degraded := 0
	if s.degraded.Load() {
		degraded = 1
	}
	gauge("jobd_store_degraded", degraded)

	gauge("jobd_workers_active", s.gauge.Active())
	gauge("jobd_workers_budget", s.cfg.Budget)
	for _, u := range s.ClassUsage() {
		l := obs.Labels("class", u.Class)
		c.Set("jobd_workers_active", l, float64(u.Active))
		c.Set("jobd_workers_budget", l, float64(u.Budget))
	}
}

// publishRunningLocked sets the per-job series of one running job from the
// telemetry its runner last snapshotted; j.mu must be held.
func (s *Server) publishRunningLocked(j *Job) {
	c := s.metrics
	af := j.activeFrac
	if af == 0 {
		af = 1 // no sample yet: the solver sweeps everything
	}
	c.Set("jobd_active_fraction", obs.Labels("job", j.ID), af)
	tot := j.telemTot
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"wall", tot.Wall}, {"phi_kernel", tot.PhiKernel}, {"mu_kernel", tot.MuKernel},
		{"halo_pack", tot.HaloPack}, {"halo_transfer", tot.HaloTransfer},
		{"halo_wait", tot.HaloWait}, {"halo_unpack", tot.HaloUnpack},
		{"sched", tot.Sched}, {"ckpt", tot.Ckpt},
	} {
		c.Set("jobd_job_phase_seconds_total", obs.Labels("job", j.ID, "phase", p.name), p.d.Seconds())
	}
	// Add sums the job's local block ranks per (peer, tag).
	for _, f := range j.flows {
		l := obs.Labels("job", j.ID, "peer", strconv.Itoa(f.Peer), "tag", f.Tag)
		c.Add("jobd_halo_bytes_total", l, float64(f.Bytes))
		c.Add("jobd_halo_frames_total", l, float64(f.Frames))
	}
	for tag, h := range j.latency {
		c.SetHistogram("jobd_exchange_latency_seconds", obs.Labels("job", j.ID, "tag", tag), h)
	}
}
