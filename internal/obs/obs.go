// Package obs is the telemetry substrate shared by the solver, the
// communication layer and the job daemon: step-phase records, bounded
// rings, atomic latency histograms and a Chrome trace_event writer.
//
// The design rule is zero allocation and zero locking on the hot path.
// Records are plain value structs pushed into preallocated rings by the
// single stepping goroutine; histograms are fixed arrays of atomics; all
// aggregation, formatting and JSON encoding happens on cold paths (HTTP
// handlers, trace export). Nothing here feeds back into the numerics —
// a simulation runs bit-identically with telemetry on or off.
package obs

import "time"

// StepRecord is one timestep's phase breakdown, sampled at phase
// boundaries only (no timers inside the cell loops). Kernel and halo
// durations are summed over the process' local ranks, so on a multi-block
// decomposition they can exceed Wall — the phases run concurrently on the
// rank goroutines. Halo components follow comm.Stats semantics: Pack and
// Unpack are buffer copies, Transfer is blocking transport time, Wait is
// time blocked in Finish for overlapped exchanges. Under the deferred-µ
// overlap modes the µ exchange of step N completes at the start of step
// N+1, so its cost lands on the next step's record — attribution shifts
// one step, totals are exact.
type StepRecord struct {
	// Step is the completed-step count after this step; Start is the wall
	// clock at step start, in Unix nanoseconds.
	Step  int
	Start int64
	// Wall is the whole-step wall time on the stepping goroutine.
	Wall time.Duration

	// PhiKernel and MuKernel are the sweep kernel times of this step,
	// summed over local ranks.
	PhiKernel time.Duration
	MuKernel  time.Duration

	// Halo phase times of this step (φ and µ tags combined), summed over
	// local ranks.
	HaloPack     time.Duration
	HaloTransfer time.Duration
	HaloWait     time.Duration
	HaloUnpack   time.Duration

	// Sched is the schedule/BC event application time charged to this
	// step (applied at the step boundary before it); Ckpt is checkpoint
	// write time charged after it.
	Sched time.Duration
	Ckpt  time.Duration

	// ActiveFraction is the share of z-slices the activity tracker swept
	// this step (1 = nothing slept or tracking off).
	ActiveFraction float64
	// HaloBytes counts payload bytes moved by this step's exchanges.
	HaloBytes int64
}

// StepTotals is the cumulative form of StepRecord: every field summed
// since the totals were last zeroed, plus the step count. The job daemon
// keeps window deltas of these (Sub) to attach phase breakdowns to its
// metrics samples.
type StepTotals struct {
	// Steps is how many records have been accumulated.
	Steps int64
	// Wall through Ckpt sum the corresponding StepRecord durations.
	Wall         time.Duration
	PhiKernel    time.Duration
	MuKernel     time.Duration
	HaloPack     time.Duration
	HaloTransfer time.Duration
	HaloWait     time.Duration
	HaloUnpack   time.Duration
	Sched        time.Duration
	Ckpt         time.Duration
	// HaloBytes sums the per-step counter.
	HaloBytes int64
}

// Add folds one step's record into the totals.
func (t *StepTotals) Add(r StepRecord) {
	t.Steps++
	t.Wall += r.Wall
	t.PhiKernel += r.PhiKernel
	t.MuKernel += r.MuKernel
	t.HaloPack += r.HaloPack
	t.HaloTransfer += r.HaloTransfer
	t.HaloWait += r.HaloWait
	t.HaloUnpack += r.HaloUnpack
	t.Sched += r.Sched
	t.Ckpt += r.Ckpt
	t.HaloBytes += r.HaloBytes
}

// Sub returns the window delta t − prev (prev must be an earlier snapshot
// of the same accumulator).
func (t StepTotals) Sub(prev StepTotals) StepTotals {
	return StepTotals{
		Steps:        t.Steps - prev.Steps,
		Wall:         t.Wall - prev.Wall,
		PhiKernel:    t.PhiKernel - prev.PhiKernel,
		MuKernel:     t.MuKernel - prev.MuKernel,
		HaloPack:     t.HaloPack - prev.HaloPack,
		HaloTransfer: t.HaloTransfer - prev.HaloTransfer,
		HaloWait:     t.HaloWait - prev.HaloWait,
		HaloUnpack:   t.HaloUnpack - prev.HaloUnpack,
		Sched:        t.Sched - prev.Sched,
		Ckpt:         t.Ckpt - prev.Ckpt,
		HaloBytes:    t.HaloBytes - prev.HaloBytes,
	}
}

// MLUPs returns the throughput in million lattice-cell updates per second
// over the accumulated window, given the global cell count.
func (t StepTotals) MLUPs(cells int) float64 {
	if t.Wall <= 0 {
		return 0
	}
	return float64(cells) * float64(t.Steps) / t.Wall.Seconds() / 1e6
}
