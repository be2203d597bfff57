package solver

import (
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Step-phase telemetry: after every successful step the solver derives one
// obs.StepRecord from counters the hot path already maintains (per-rank
// kernel times, the World's per-tag comm stats) and pushes it into a
// bounded ring. Sampling happens at the step boundary only, on the
// stepping goroutine, with no locks beyond the World's existing per-rank
// stats mutexes and no allocation — a simulation runs bit-identically and
// within noise of the same speed with telemetry on or off. Config.
// DisableStepTelemetry turns the capture off entirely.

// captureStep folds the counter deltas of the step that just completed
// into a StepRecord. Called on the stepping goroutine right after the
// step counter advanced; start is the wall clock taken before the step's
// sweeps began.
func (s *Sim) captureStep(start time.Time) {
	if s.telem == nil {
		return
	}
	wall := time.Since(start)
	var phi, mu time.Duration
	var cs comm.Stats
	for _, r := range s.ranks {
		phi += r.phiKernelTime
		mu += r.muKernelTime
		cs.Add(s.World.RankTagStats(r.id, comm.TagPhi))
		cs.Add(s.World.RankTagStats(r.id, comm.TagMu))
	}
	rec := obs.StepRecord{
		Step:           s.step,
		Start:          start.UnixNano(),
		Wall:           wall,
		PhiKernel:      phi - s.prevPhi,
		MuKernel:       mu - s.prevMu,
		HaloPack:       cs.Pack - s.prevComm.Pack,
		HaloTransfer:   cs.Transfer - s.prevComm.Transfer,
		HaloWait:       cs.Wait - s.prevComm.Wait,
		HaloUnpack:     cs.Unpack - s.prevComm.Unpack,
		Sched:          s.pendSched,
		ActiveFraction: s.ActiveFraction(),
		HaloBytes:      int64(cs.Bytes - s.prevComm.Bytes),
	}
	s.prevPhi, s.prevMu, s.prevComm = phi, mu, cs
	s.pendSched = 0
	s.telem.Push(rec)
	s.telemTot.Add(rec)
}

// addCkptTime charges a checkpoint write to the step it followed: the
// cost folds into the record just pushed (checkpoints happen after the
// step, before the next one starts) and into the running totals.
func (s *Sim) addCkptTime(d time.Duration) {
	if s.telem == nil {
		return
	}
	if last := s.telem.Last(); last != nil {
		last.Ckpt += d
	}
	s.telemTot.Ckpt += d
}

// StepRecords copies the retained per-step phase records, oldest first,
// into dst (grown as needed) and returns it. The ring keeps the last
// obs.DefaultRingCap steps. Must be called from the stepping goroutine at
// a step boundary — the job daemon's OnStep hook satisfies both. Returns
// dst[:0] when telemetry is disabled.
func (s *Sim) StepRecords(dst []obs.StepRecord) []obs.StepRecord {
	if s.telem == nil {
		return dst[:0]
	}
	return s.telem.Snapshot(dst)
}

// TelemetryTotals returns the cumulative phase totals since the
// simulation started (unaffected by ResetMetrics; zero when telemetry is
// disabled). Same calling discipline as StepRecords.
func (s *Sim) TelemetryTotals() obs.StepTotals {
	return s.telemTot
}
