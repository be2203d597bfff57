package jobd

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// trace.go — the per-job performance timeline. The runner refreshes a
// job's telemetry snapshots (step-phase records, cumulative totals, halo
// flows, exchange-latency histograms) at every report boundary, and
// lifecycle transitions leave marks; GET /jobs/{id}/trace renders both as
// a Chrome trace_event document that Perfetto and chrome://tracing load
// directly.

// PhaseBreakdown is the step-phase timing of one reporting window,
// attached to a Sample when the solver's step telemetry is on. Durations
// are wall-clock milliseconds summed over the window's steps; kernel and
// halo phases sum over block ranks, so they can exceed WallMs on
// multi-rank jobs.
type PhaseBreakdown struct {
	// Steps is how many completed timesteps the window covers.
	Steps int64 `json:"steps"`
	// WallMs is the window's total per-step wall time.
	WallMs float64 `json:"wall_ms"`
	// PhiKernelMs and MuKernelMs are the sweep-kernel times.
	PhiKernelMs float64 `json:"phi_kernel_ms"`
	// MuKernelMs is the µ (chemical potential) kernel time.
	MuKernelMs float64 `json:"mu_kernel_ms"`
	// HaloPackMs through HaloUnpackMs split the ghost-layer exchange.
	HaloPackMs float64 `json:"halo_pack_ms"`
	// HaloTransferMs is time inside the transport send path.
	HaloTransferMs float64 `json:"halo_transfer_ms"`
	// HaloWaitMs is time blocked on neighbor data.
	HaloWaitMs float64 `json:"halo_wait_ms"`
	// HaloUnpackMs is ghost-layer scatter time.
	HaloUnpackMs float64 `json:"halo_unpack_ms"`
	// SchedMs is schedule-engine bookkeeping between steps.
	SchedMs float64 `json:"sched_ms"`
	// CkptMs is checkpoint-serialization time folded into the window.
	CkptMs float64 `json:"ckpt_ms"`
	// HaloBytes counts exchanged payload bytes over the window.
	HaloBytes int64 `json:"halo_bytes"`
}

// breakdown converts a StepTotals window delta into the JSON form.
func breakdown(d obs.StepTotals) *PhaseBreakdown {
	ms := func(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }
	return &PhaseBreakdown{
		Steps:          d.Steps,
		WallMs:         ms(d.Wall),
		PhiKernelMs:    ms(d.PhiKernel),
		MuKernelMs:     ms(d.MuKernel),
		HaloPackMs:     ms(d.HaloPack),
		HaloTransferMs: ms(d.HaloTransfer),
		HaloWaitMs:     ms(d.HaloWait),
		HaloUnpackMs:   ms(d.HaloUnpack),
		SchedMs:        ms(d.Sched),
		CkptMs:         ms(d.Ckpt),
		HaloBytes:      d.HaloBytes,
	}
}

// traceMark is one lifecycle event on a job's timeline (submitted,
// started, preempted, retried, ...), rendered as spans and instants on the
// trace's lifecycle track.
type traceMark struct {
	kind string
	note string
	at   time.Time
}

// maxMarks bounds the lifecycle timeline so a crash-looping job cannot
// grow memory without bound; the earliest marks carry the diagnosis, so
// the tail is dropped.
const maxMarks = 1024

// mark appends a lifecycle event to the job's timeline.
func (j *Job) mark(kind, note string) {
	if len(note) > 200 {
		note = note[:200] + "…"
	}
	j.mu.Lock()
	if len(j.marks) < maxMarks {
		j.marks = append(j.marks, traceMark{kind: kind, note: note, at: time.Now()})
	}
	j.mu.Unlock()
}

// Trace-track layout: one process per job, lifecycle and steps first,
// then one track per phase family (per-rank phase sums can exceed the
// step's wall span, so phases cannot nest under the step track).
const (
	traceTidLifecycle = iota
	traceTidSteps
	traceTidPhi
	traceTidMu
	traceTidHalo
	traceTidSched
)

// handleJobTrace serves GET /jobs/{id}/trace: the job's lifecycle marks
// plus its most recent step-phase records (the solver keeps a bounded
// ring, so long runs trace their tail) as Chrome trace_event JSON.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	marks := append([]traceMark(nil), j.marks...)
	recs := append([]obs.StepRecord(nil), j.stepRecs...)
	j.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	tw := obs.NewTraceWriter(w)
	tw.ProcessName(1, "jobd "+j.ID)
	tw.ThreadName(1, traceTidLifecycle, "lifecycle")
	tw.ThreadName(1, traceTidSteps, "steps")
	tw.ThreadName(1, traceTidPhi, "phi kernel")
	tw.ThreadName(1, traceTidMu, "mu kernel")
	tw.ThreadName(1, traceTidHalo, "halo exchange")
	tw.ThreadName(1, traceTidSched, "schedule+ckpt")

	// Lifecycle: each mark is an instant, and the gap to the next mark is
	// a span named after the state the mark put the job in.
	for i, m := range marks {
		ts := m.at.UnixMicro()
		var args map[string]any
		if m.note != "" {
			args = map[string]any{"note": m.note}
		}
		tw.Instant(1, traceTidLifecycle, m.kind, ts, args)
		if i+1 < len(marks) {
			tw.Complete(1, traceTidLifecycle, m.kind, ts, marks[i+1].at.UnixMicro()-ts, args)
		}
	}

	// Steps: one span per recorded step, with the phase families on their
	// own tracks anchored at the step's start.
	us := func(d time.Duration) int64 { return d.Microseconds() }
	for i := range recs {
		rec := &recs[i]
		ts := rec.Start / int64(time.Microsecond)
		tw.Complete(1, traceTidSteps, fmt.Sprintf("step %d", rec.Step), ts, us(rec.Wall),
			map[string]any{
				"active_fraction": rec.ActiveFraction,
				"halo_bytes":      rec.HaloBytes,
			})
		if rec.PhiKernel > 0 {
			tw.Complete(1, traceTidPhi, "phi", ts, us(rec.PhiKernel), nil)
		}
		if rec.MuKernel > 0 {
			tw.Complete(1, traceTidMu, "mu", ts, us(rec.MuKernel), nil)
		}
		if halo := rec.HaloPack + rec.HaloTransfer + rec.HaloWait + rec.HaloUnpack; halo > 0 {
			tw.Complete(1, traceTidHalo, "halo", ts, us(halo), map[string]any{
				"pack_us":     us(rec.HaloPack),
				"transfer_us": us(rec.HaloTransfer),
				"wait_us":     us(rec.HaloWait),
				"unpack_us":   us(rec.HaloUnpack),
			})
		}
		if over := rec.Sched + rec.Ckpt; over > 0 {
			tw.Complete(1, traceTidSched, "sched+ckpt", ts, us(over), nil)
		}
	}
	if err := tw.Close(); err != nil {
		s.logf("jobd: %s: trace write: %v", j.ID, err)
	}
}
