package solver

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/schedule"
	"repro/internal/voronoi"
)

// schedule.go turns the fixed-parameter time-stepping loop into an
// event-driven production engine: RunSchedule interprets a
// schedule.Schedule between timesteps — nucleation bursts seed spheres
// through the Voronoi machinery, ramps rewrite the process coefficients in
// place, and checkpoint cadences call back into a caller-supplied writer.
//
// Mutation safety under the parallel sweep engine: every event is applied
// on the caller's goroutine at a step boundary, when no sweep task is in
// flight (runSweep joins all claim tasks before returning and the worker
// pool blocks on its task channel between sweeps). The per-rank
// kernels.Ctx is rebuilt from Cfg.Params at the start of each timestep, so
// in-place parameter rewrites become visible to every worker exactly at
// the next step.

// ScheduleHooks customizes RunSchedule. All hooks may be nil.
type ScheduleHooks struct {
	// WriteCheckpoint is invoked post-step for due Checkpoint events
	// with the event's path template ("" = caller's default) and the
	// completed-step count. A returned error aborts the run.
	WriteCheckpoint func(pathTemplate string, step int) error
	// OnEvent is invoked after a one-shot event fires (logging/tracing).
	OnEvent func(ev schedule.Event, step int)
	// StepDone is the cooperative yield point of the job daemon: invoked
	// after every completed step (after due checkpoints were written),
	// on the caller's goroutine at a step boundary where no sweep or
	// overlapped exchange is in flight. Returning true stops RunSchedule
	// early with a nil error — the caller decides whether that means
	// preemption (checkpoint + requeue), cancellation, or drain. Budget
	// rebalancing (SetWorkerBudget) is also safe here.
	StepDone func(step int) (stop bool)
}

// SchedulePos returns how many one-shot schedule events have fired.
func (s *Sim) SchedulePos() int { return s.schedPos }

// SetSchedulePos installs the position recorded in a checkpoint so a
// restarted run never re-fires a burst.
func (s *Sim) SetSchedulePos(pos int) { s.schedPos = pos }

// RunSchedule advances the simulation n timesteps under the given
// schedule. Events with StartStep k act on the step that advances the
// simulation from k to k+1 completed steps; due checkpoints are reported
// post-step. A nil schedule degenerates to Run(n). A kernel fault or a
// lost TCP link stops the simulation: RunSchedule returns it, and every
// later call returns it again (see fault.go).
func (s *Sim) RunSchedule(n int, sched *schedule.Schedule, hooks ScheduleHooks) (err error) {
	defer s.catchLinkLoss(&err)
	if err := s.stopped(); err != nil {
		return err
	}
	if sched == nil {
		if hooks.StepDone == nil {
			for i := 0; i < n; i++ {
				if err := s.runStep(); err != nil {
					return err
				}
			}
			return nil
		}
		// An unscheduled run still needs the per-step yield point (the
		// job daemon preempts schedule-less jobs too).
		sched = &schedule.Schedule{}
	}
	oneShots := sched.OneShots()
	ramps := sched.Ramps()
	ckpts := sched.Checkpoints()
	setbcs := sched.SetBCs()
	// Fail fast on prescriptions the topology cannot honor, before any step
	// runs (see bctopology.go). Kind changes on decomposed or periodic
	// faces are fine — the topology follows the prescription — but a
	// decomposed axis must switch periodicity wholesale.
	if err := s.validateSetBCs(setbcs); err != nil {
		return err
	}
	// Per-call recording gates: an event enters the audit log on its first
	// application in this call (the cross-call/cross-segment dedup happens
	// in recordEvent's key map); after that, re-applying it each step costs
	// one bool check, keeping the hot loop free of reflective formatting.
	rampRec := make([]bool, len(ramps))
	bcRec := make([]bool, len(setbcs))
	ckptRec := make([]bool, len(ckpts))
	// Install the prescription already in force at entry (a simulation
	// entering the schedule past an event's start step would otherwise run
	// with the configured walls until the next event boundary).
	if applied, topoChanged := s.applyDueSetBCs(setbcs, false, bcRec); applied {
		if topoChanged {
			s.refreshGhosts()
		} else {
			s.refillBoundaryGhosts()
		}
	}

	for i := 0; i < n; i++ {
		var tEv time.Time
		if s.telem != nil {
			tEv = time.Now()
		}
		// Fire due one-shot events in order, resuming at the
		// checkpointed schedule position.
		for s.schedPos < len(oneShots) && oneShots[s.schedPos].StartStep() <= s.step {
			ev := oneShots[s.schedPos]
			if err := s.applyOneShot(ev); err != nil {
				return err
			}
			s.recordOneShot(ev)
			s.schedPos++
			if hooks.OnEvent != nil {
				hooks.OnEvent(ev, s.step)
			}
		}
		// Ramps are pure functions of the step index; a later ramp on
		// the same parameter overrides an earlier one.
		for ri, r := range ramps {
			if r.Step <= s.step {
				if err := s.applyRamp(r); err != nil {
					return err
				}
				if !rampRec[ri] {
					rampRec[ri] = true
					s.recordEvent(r)
				}
			}
		}
		// Boundary-condition events, like ramps, prescribe the live BC
		// state as a pure function of the step index. Only events still
		// changing (within their ramp window) apply here; settled state
		// persists in the domain sets and the regular exchange fills,
		// costing nothing per step. A periodicity flip rewires neighbor
		// relations, so it forces a full ghost exchange instead of the
		// cheap wall refill.
		if applied, topoChanged := s.applyDueSetBCs(setbcs, true, bcRec); applied {
			if topoChanged {
				s.refreshGhosts()
			} else {
				s.refillBoundaryGhosts()
			}
		}
		if s.telem != nil {
			// Charged to the step the events precede (see telemetry.go).
			s.pendSched += time.Since(tEv)
		}

		if err := s.runStep(); err != nil {
			return err
		}

		for ci, c := range ckpts {
			if c.Due(s.step) && hooks.WriteCheckpoint != nil {
				if !ckptRec[ci] {
					ckptRec[ci] = true
					s.recordEvent(c)
				}
				tCk := time.Now()
				if err := hooks.WriteCheckpoint(c.Path, s.step); err != nil {
					return err
				}
				s.addCkptTime(time.Since(tCk))
			}
		}

		if hooks.StepDone != nil && hooks.StepDone(s.step) {
			return nil
		}
	}
	return nil
}

// applyOneShot dispatches a fired one-shot event.
func (s *Sim) applyOneShot(ev schedule.Event) error {
	if e, ok := ev.(schedule.NucleationBurst); ok {
		_, err := s.ApplyBurst(e)
		return err
	}
	return fmt.Errorf("solver: unknown one-shot event %T", ev)
}

// applyRamp installs the ramp's value for the current step.
func (s *Sim) applyRamp(r schedule.Ramp) error {
	v := r.Value(s.step)
	p := s.Cfg.Params
	switch r.Param {
	case schedule.ParamPullVelocity:
		// T(z,t) = TE + G(z·dx − Z0 − V·t): changing V at time t
		// would shift the whole profile by (V−V')·t·G. Compensate Z0
		// so the temperature field stays continuous and only the
		// isotherm velocity changes.
		if v != p.Temp.V {
			p.Temp.Z0 += (p.Temp.V - v) * s.time
			p.Temp.V = v
		}
	case schedule.ParamGradient:
		// The profile rotates about the eutectic isotherm, which is
		// continuous by construction.
		p.Temp.G = v
	case schedule.ParamDt:
		if v > p.StableDt() {
			return fmt.Errorf("solver: ramped dt=%g exceeds stability limit %g", v, p.StableDt())
		}
		p.Dt = v
	default:
		return fmt.Errorf("solver: unknown ramp param %v", r.Param)
	}
	return nil
}

// applyDueSetBCs installs the wall state the schedule prescribes for the
// current step and reports whether any face changed and whether the
// applied kinds flipped an axis' periodicity (rewiring the communication
// topology). A due event whose face already holds its prescription bit
// for bit changes nothing, but still enters the audit log. Only the latest due event per (face, field) applies — an
// earlier overridden event must not be re-applied, or a kind override would
// flip the face twice per step and re-derive every rank's BCs forever
// (schedule.New rejects ambiguous overlaps). With changingOnly, events
// whose prescription has settled are skipped — their state already
// persists in the domain sets.
func (s *Sim) applyDueSetBCs(setbcs []schedule.SetBC, changingOnly bool, rec []bool) (applied, topoChanged bool) {
	var due [2 * int(grid.NumFaces)]int
	for i := range due {
		due[i] = -1
	}
	for j, b := range setbcs {
		if b.Step <= s.step && (!changingOnly || s.step <= b.SettleStep()) {
			due[2*int(b.Face)+int(b.Field)] = j
		}
	}
	var touched [3]bool
	for _, j := range due {
		if j >= 0 {
			if s.applySetBC(setbcs[j]) {
				touched[setbcs[j].Face.Axis()] = true
				applied = true
			}
			if !rec[j] {
				rec[j] = true
				s.recordEvent(setbcs[j])
			}
		}
	}
	if applied {
		topoChanged = s.syncTopology(touched)
	}
	return applied, topoChanged
}

// recordEvent appends a stateless event (ramp, setbc, checkpoint cadence)
// to the applied-event audit log the first time it takes effect. The
// original event is kept verbatim — its prescription is a pure function of
// the absolute step index, so replaying the dumped schedule reproduces the
// same values at the same steps.
func (s *Sim) recordEvent(ev schedule.Event) {
	key := fmt.Sprintf("%T %v", ev, ev)
	if s.recordSeen == nil {
		s.recordSeen = make(map[string]bool)
	}
	if s.recordSeen[key] {
		return
	}
	s.recordSeen[key] = true
	s.record = append(s.record, ev)
}

// recordOneShot appends a fired one-shot event, rebased to the step it
// actually fired at (a restart can legally delay an event past its nominal
// start step; the log captures what happened, not what was asked for).
func (s *Sim) recordOneShot(ev schedule.Event) {
	if e, ok := ev.(schedule.NucleationBurst); ok {
		e.Step = s.step
		ev = e
	}
	s.record = append(s.record, ev)
}

// AppliedEvents returns the audit log of schedule events this simulation
// has applied, in application order: one-shots at the step they fired,
// stateless events (ramps, BC events, checkpoint cadences) once, when they
// first took effect, verbatim. The log is the minimal replayable record of
// the run — encode it with schedule.EncodeJSON to obtain a schedule file
// that reproduces the same trajectory from the same initial state.
func (s *Sim) AppliedEvents() []schedule.Event {
	return append([]schedule.Event(nil), s.record...)
}

// refillBoundaryGhosts re-applies the physical-face fills to the
// source-field ghosts at a fixed point of the step, so both overlap modes'
// sweeps see the same wall values while a SetBC event is rewriting them:
// without this, OverlapNone (µ ghosts exchanged at the end of the previous
// step) would read walls one ramp increment behind OverlapMu (exchanged at
// the step start), and φ walls would lag a step in both. Idempotent under
// OverlapMu, whose step-start exchange redoes the same fills.
func (s *Sim) refillBoundaryGhosts() {
	s.forAllRanks(func(r *rank) {
		r.phiBCs.Apply(r.fields.PhiSrc)
		r.muBCs.Apply(r.fields.MuSrc)
		r.act.imaged = true // a ring-local rank's ring has no other source
	})
}

// applySetBC installs one event's boundary condition for the current step
// and reports whether the face changed. Dirichlet wall-value ramps write
// into the domain set's Values backing in place — shared by every rank's
// derived set through BlockBCs — so a steady BC ramp allocates nothing and
// every rank picks up the live values at its next halo exchange. A kind
// change (or a first-time payload allocation) invalidates the ranks'
// derived copies and re-derives them. A face that already holds the kind
// and, for a Dirichlet face, every value bit for bit is left alone: the
// ghosts already hold its fill, so the activity map keeps its carry (a
// chunked RunSchedule re-applies every settled event at entry). Called
// between timesteps only, when no sweep or overlapped exchange is in
// flight; RunSchedule has already rejected events the decomposition
// cannot honor.
func (s *Sim) applySetBC(e schedule.SetBC) (changed bool) {
	dom := &s.domainPhiBCs
	if e.Field == schedule.BCMu {
		dom = &s.domainMuBCs
	}
	var vals []float64
	if e.Kind == grid.BCDirichlet {
		vals = e.ValuesAt(s.step, s.bcScratch[:])
	}
	prevKind := dom[e.Face].Kind
	if prevKind == e.Kind && (e.Kind != grid.BCDirichlet || sameBits(dom[e.Face].Values, vals)) {
		return false
	}
	realloc := dom.SetFace(e.Face, e.Kind, vals)
	if prevKind != e.Kind || realloc {
		s.refreshRankBCs()
	}
	// Wall values changed outside the timestep protocol: ghost fills (and
	// thus halo pack regions) may differ, so the halo-skip history is void.
	// Sleep decisions need no help — the ghost ring is part of the
	// uniformity predicate, so a changed wall keeps adjacent slices awake.
	s.invalidateActivity()
	return true
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ApplyBurst seeds the burst's nuclei as solid spheres in the melt. Nucleus
// coordinates are lab-frame; the moving window maps them into the current
// domain (material that already scrolled out is silently skipped). Only
// melt-dominated cells are overwritten, so existing grains survive. Returns
// the number of cells converted.
func (s *Sim) ApplyBurst(e schedule.NucleationBurst) (int, error) {
	nxg, nyg, _ := s.Cfg.BG.GlobalCells()

	fracs, err := s.Cfg.Params.Sys.EutecticFractions()
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(e.Seed + int64(e.Step)<<20))
	seeds, err := voronoi.BurstSeeds(nxg, nyg, float64(e.ZMin), float64(e.ZMax),
		e.Count, e.Phase, fracs[:], rng)
	if err != nil {
		return 0, err
	}

	painted := make([]float64, s.Cfg.BG.NumBlocks())
	s.forAllRanks(func(r *rank) {
		phi := r.fields.PhiSrc
		ox, oy, _ := s.Cfg.BG.Origin(r.id)
		for _, sd := range seeds {
			// Lab frame → window frame → rank-local coordinates.
			zc := sd.Z - float64(s.windowShift) - float64(r.zOff)
			zlo := int(math.Floor(zc - e.Radius))
			zhi := int(math.Ceil(zc + e.Radius))
			if zhi < 0 || zlo >= phi.NZ {
				continue
			}
			if zlo < 0 {
				zlo = 0
			}
			if zhi > phi.NZ-1 {
				zhi = phi.NZ - 1
			}
			r2 := e.Radius * e.Radius
			for z := zlo; z <= zhi; z++ {
				dz := float64(z) + 0.5 - zc
				for y := 0; y < phi.NY; y++ {
					dy := voronoi.PeriodicDist(float64(oy+y)+0.5, sd.Y, float64(nyg))
					if dz*dz+dy*dy > r2 {
						continue
					}
					for x := 0; x < phi.NX; x++ {
						dx := voronoi.PeriodicDist(float64(ox+x)+0.5, sd.X, float64(nxg))
						if dz*dz+dy*dy+dx*dx > r2 {
							continue
						}
						if phi.At(core.Liquid, x, y, z) <= 0.5 {
							continue
						}
						for a := 0; a < kernels.NP; a++ {
							v := 0.0
							if a == sd.Phase {
								v = 1
							}
							phi.Set(a, x, y, z, v)
						}
						painted[r.id]++
					}
				}
			}
		}
	})

	// The paint touched source interiors only; re-establish φ ghosts. The
	// burst may have rewritten a sleeping slab to a *different* uniform
	// vertex, so the halo-skip history must not bridge the repaint.
	s.invalidateActivity()
	s.forAllRanks(func(r *rank) {
		s.World.ExchangeGhosts(r.id, r.fields.PhiSrc, comm.TagPhi, r.phiBCs)
		r.act.imaged = true
	})

	s.World.GlobalSum(painted)
	total := 0.0
	for _, c := range painted {
		total += c
	}
	return int(total), nil
}

// MuNorm returns the RMS of the chemical-potential field over the interior
// (a cheap scalar sensitive to solute-transport regressions, used by the
// golden-trajectory harness). Per-global-rank partial sums are combined
// across processes slot by slot and totalled in rank order, so the value is
// deterministic for a fixed decomposition on any process count.
func (s *Sim) MuNorm() float64 {
	sums := make([]float64, s.Cfg.BG.NumBlocks())
	s.forAllRanks(func(r *rank) {
		f := r.fields.MuSrc
		t := 0.0
		f.Interior(func(x, y, z int) {
			for k := 0; k < core.NRed; k++ {
				v := f.At(k, x, y, z)
				t += v * v
			}
		})
		sums[r.id] = t
	})
	s.World.GlobalSum(sums)
	total := 0.0
	for _, v := range sums {
		total += v
	}
	return math.Sqrt(total / float64(s.GlobalCells()*core.NRed))
}
