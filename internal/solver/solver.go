// Package solver composes the kernels, the block grid and the
// communication layer into the full time-stepping loop of the paper:
// Algorithm 1 with blocking communication or with the µ exchange hidden
// behind the φ-sweep (the production choice of Fig. 8), the three benchmark
// scenarios
// (interface / solid / liquid), the production Voronoi setup and the
// moving-window technique of directional solidification.
package solver

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/voronoi"
)

// OverlapMode selects whether the µ ghost exchange is hidden behind
// computation. Of the four combinations the paper measures in Fig. 8 only
// the winner and the blocking reference are kept: hiding the φ exchange
// needs the split µ-kernel of Algorithm 2, which costs more than it hides
// and is only tolerance-equal to the fused kernel.
type OverlapMode int

const (
	// OverlapNone is Algorithm 1: both exchanges blocking (the bitwise
	// reference).
	OverlapNone OverlapMode = iota
	// OverlapMu hides the µ exchange behind the φ-sweep (the paper's
	// production choice: best overall performance).
	OverlapMu
)

func (m OverlapMode) String() string {
	switch m {
	case OverlapNone:
		return "no overlap"
	case OverlapMu:
		return "mu overlap"
	}
	return fmt.Sprintf("OverlapMode(%d)", int(m))
}

// Scenario selects the domain composition of the §5.1 benchmarks or the
// production setup.
type Scenario int

const (
	// ScenarioInterface fills the block with the solidification front
	// (the middle third of a production domain) — the slowest, and
	// therefore production-representative, composition.
	ScenarioInterface Scenario = iota
	// ScenarioSolid is fully solidified lamellae (the lower third).
	ScenarioSolid
	// ScenarioLiquid is pure melt (the upper third).
	ScenarioLiquid
	// ScenarioProduction is the full directional-solidification setup:
	// Voronoi solid nuclei at the bottom, melt above (Fig. 2).
	ScenarioProduction
)

func (s Scenario) String() string {
	switch s {
	case ScenarioInterface:
		return "interface"
	case ScenarioSolid:
		return "solid"
	case ScenarioLiquid:
		return "liquid"
	case ScenarioProduction:
		return "production"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Config assembles a simulation.
type Config struct {
	Params *core.Params
	BG     *grid.BlockGrid
	// Variant is ignored: both sweeps always run the production kernels,
	// whatever it holds. The general-purpose oracle is a kernel-level
	// reference, reached through kernels.PhiSweep and kernels.MuSweep.
	Variant kernels.Variant
	Overlap OverlapMode

	// Transport selects the communication fabric. Nil keeps every rank in
	// this process (the in-process channel transport); a comm.TCPConfig
	// transport makes this process drive only the ranks it owns, with halo
	// frames and collectives crossing process boundaries. The Sim owns the
	// transport and closes it with the World.
	Transport comm.Transport

	// DomainBCs are the physical boundary conditions; zero value selects
	// the directional-solidification set (periodic laterally, Dirichlet
	// bottom, Neumann top).
	DomainBCs *grid.BoundarySet

	// MovingWindow enables the frozen-front window shift; requires a
	// z-undecomposed block grid (PZ == 1).
	MovingWindow bool
	// WindowFrontFraction is the relative front height that triggers a
	// shift (default 0.6).
	WindowFrontFraction float64

	// Parallelism is this process's worker budget for intra-block sweep
	// parallelism, shared by the blocks it owns (0 selects
	// runtime.GOMAXPROCS(0)); each process of a distributed grid brings its
	// own. Each local block gets ⌊Parallelism/local blocks⌋ workers, at
	// least one: from two up, its sweeps are cut into z-slabs run
	// concurrently by the persistent worker pool; at one they run serially
	// on the block's goroutine. SetWorkerBudget re-targets it between steps.
	Parallelism int

	// Gauge, when non-nil, is shared instrumentation counting concurrently
	// busy sweep workers. The job daemon installs one gauge across every
	// simulation it runs so the global-budget invariant is observable; nil
	// gets a private gauge.
	Gauge *WorkerGauge

	// Faults, when non-nil, arms deterministic fault injection: the sweeps
	// hit the SweepPoint crash points, and an armed point panics inside the
	// kernel exactly like a poisoned sweep would. Production leaves it nil
	// (the hooks then cost one nil check per slab).
	Faults *faultfs.Points

	// DisableActiveSweep turns off per-z-slab activity tracking (see
	// activity.go), forcing full kernel sweeps and real halo rounds
	// everywhere. The zero value keeps tracking ON: skipping is provably
	// bit-identical, so the only reason to disable it is measurement.
	DisableActiveSweep bool

	// DisableStepTelemetry turns off per-step phase-record capture (see
	// telemetry.go). The zero value keeps capture ON: it samples existing
	// counters at step boundaries only, allocates nothing in steady state
	// and never feeds back into the numerics, so the only reason to
	// disable it is to measure its (sub-percent) overhead.
	DisableStepTelemetry bool

	Seed int64 // RNG seed for the Voronoi setup
}

// rank is the per-block state owned by one worker goroutine.
type rank struct {
	id     int
	fields *kernels.Fields
	sc     *kernels.Scratch
	phiBCs grid.BoundarySet
	muBCs  grid.BoundarySet
	zOff   int // global z of local z=0 (excluding window offset)

	ctx   kernels.Ctx    // per-step sweep context, reused across steps
	wg    sync.WaitGroup // joins this rank's in-flight claim tasks
	slabs [][2]int       // the pooled sweep's slab list, reused (cutSlabs)
	next  atomic.Int32   // claim cursor into the sweep's slab list
	act   activity       // per-z-slab activity tracker (activity.go)

	xwg  sync.WaitGroup       // joins this rank's exchange task (OverlapMu)
	lost *comm.TransportError // the lost link the exchange task hit

	phiKernelTime time.Duration
	muKernelTime  time.Duration
}

// Sim is a running simulation over all blocks of the decomposition.
type Sim struct {
	Cfg   Config
	World *comm.World
	ranks []*rank

	engine         *sweepEngine
	workersPerRank int
	gauge          *WorkerGauge         // never nil; Cfg.Gauge or a private one
	faults         *faultSink           // never nil; collects recovered kernel panics
	lost           *comm.TransportError // the lost link that stopped RunSchedule

	schedPos int // one-shot schedule events already fired

	// Applied-event audit log (the schedule recorder): every event
	// RunSchedule applies is appended once, replayable via AppliedEvents.
	record     []schedule.Event
	recordSeen map[string]bool

	step         int
	time         float64
	windowShift  int // total cells scrolled out of the window
	domainPhiBCs grid.BoundarySet
	domainMuBCs  grid.BoundarySet
	bcScratch    [kernels.NP]float64 // per-step SetBC wall values, reused

	// Step-phase telemetry (telemetry.go). telem is nil when disabled;
	// the prev* fields hold the cumulative-counter snapshots captureStep
	// differences against, and pendSched accumulates schedule/BC event
	// time to charge to the next step's record.
	telem     *obs.Ring
	telemTot  obs.StepTotals
	prevPhi   time.Duration
	prevMu    time.Duration
	prevComm  comm.Stats
	pendSched time.Duration
}

// New builds a simulation; fields are liquid-initialized (use InitScenario).
func New(cfg Config) (*Sim, error) {
	if cfg.Params == nil || cfg.BG == nil {
		return nil, fmt.Errorf("solver: nil params or block grid")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.MovingWindow && cfg.BG.PZ != 1 {
		return nil, fmt.Errorf("solver: moving window requires PZ=1 (got %d)", cfg.BG.PZ)
	}
	if cfg.WindowFrontFraction == 0 {
		cfg.WindowFrontFraction = 0.6
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = defaultParallelism()
	}
	if cfg.Parallelism < 1 {
		return nil, fmt.Errorf("solver: parallelism %d invalid", cfg.Parallelism)
	}

	s := &Sim{Cfg: cfg, World: comm.NewWorldTransport(cfg.BG, cfg.Transport),
		faults: &faultSink{points: cfg.Faults}}
	if !cfg.DisableStepTelemetry {
		s.telem = obs.NewRing(obs.DefaultRingCap)
	}
	// Close the World's transport when the Sim goes unreachable without an
	// explicit Close (a TCP transport holds connections).
	runtime.AddCleanup(s, func(w *comm.World) { w.Close() }, s.World)
	s.gauge = cfg.Gauge
	if s.gauge == nil {
		s.gauge = &WorkerGauge{}
	}
	// The worker budget covers this process' blocks only: each process of
	// a distributed grid brings its own budget. The pool has at least one
	// worker per local rank, so every rank's exchange task finds one
	// (engine.go).
	nLocal := len(s.World.LocalRanks())
	s.workersPerRank = max(1, cfg.Parallelism/nLocal)
	s.engine = newSweepEngine(s.workersPerRank*nLocal, cfg.BG.BX, cfg.BG.BY, s.gauge, s.World)
	// Release the workers when the Sim becomes unreachable without an
	// explicit Close (benchmark harnesses build many simulations).
	runtime.AddCleanup(s, func(e *sweepEngine) { e.close() }, s.engine)

	// Physical boundary sets: φ bottom feeds solid phase 0 nominally (the
	// Dirichlet slab is immediately below already-solid material, so the
	// precise vector matters little); µ bottom pins the eutectic value.
	if cfg.DomainBCs != nil {
		s.domainPhiBCs = *cfg.DomainBCs
		s.domainMuBCs = *cfg.DomainBCs
		if s.domainPhiBCs[grid.ZMin].Kind == grid.BCDirichlet {
			s.domainPhiBCs[grid.ZMin].Values = []float64{1, 0, 0, 0}
			s.domainMuBCs[grid.ZMin].Values = []float64{0, 0}
		}
	} else {
		s.domainPhiBCs = grid.DirectionalSolidification([]float64{1, 0, 0, 0})
		s.domainMuBCs = grid.DirectionalSolidification([]float64{0, 0})
	}

	for _, r := range s.World.LocalRanks() {
		_, _, oz := cfg.BG.Origin(r)
		rk := &rank{
			id:     r,
			fields: kernels.NewFields(cfg.BG.BX, cfg.BG.BY, cfg.BG.BZ),
			sc:     kernels.NewScratch(cfg.BG.BX, cfg.BG.BY),
			phiBCs: s.World.BlockBCs(r, s.domainPhiBCs),
			muBCs:  s.World.BlockBCs(r, s.domainMuBCs),
			zOff:   oz,
		}
		rk.fields.PhiSrc.FillComp(core.Liquid, 1)
		s.ranks = append(s.ranks, rk)
	}
	return s, nil
}

// StepCount returns the current step count.
func (s *Sim) StepCount() int { return s.step }

// Time returns the simulated time.
func (s *Sim) Time() float64 { return s.time }

// WindowShift returns how many slices the moving window has scrolled.
func (s *Sim) WindowShift() int { return s.windowShift }

// GlobalCells returns the total interior cell count.
func (s *Sim) GlobalCells() int {
	nx, ny, nz := s.Cfg.BG.GlobalCells()
	return nx * ny * nz
}

// forAllRanks runs fn concurrently on every rank and waits. A rank that
// panics with a *comm.TransportError (a lost TCP link) does not kill the
// process: the first such panic is raised again on the caller once every
// rank has returned — the transport's failure wakes every rank blocked on
// it, so every rank does return. Any other panic still crashes the
// process, as a rank left blocked on the panicked one would hang it.
func (s *Sim) forAllRanks(fn func(r *rank)) {
	// One struct, so the goroutines capture a single heap object.
	var join struct {
		wg   sync.WaitGroup
		lost atomic.Pointer[comm.TransportError]
	}
	for _, r := range s.ranks {
		join.wg.Add(1)
		go func(r *rank) {
			defer join.wg.Done()
			defer func() {
				if v := recover(); v != nil {
					te, ok := v.(*comm.TransportError)
					if !ok {
						panic(v)
					}
					join.lost.CompareAndSwap(nil, te)
				}
			}()
			fn(r)
		}(r)
	}
	join.wg.Wait()
	if te := join.lost.Load(); te != nil {
		panic(te)
	}
}

// InitScenario fills the domain with the selected composition and
// establishes consistent ghost layers.
func (s *Sim) InitScenario(sc Scenario) error {
	nxg, nyg, nzg := s.Cfg.BG.GlobalCells()
	p := s.Cfg.Params

	var tess *voronoi.Tessellation
	var nucleusHeight int
	if sc == ScenarioProduction {
		fracs, err := p.Sys.EutecticFractions()
		if err != nil {
			return err
		}
		nucleusHeight = int(2 * p.Eps)
		if nucleusHeight < 2 {
			nucleusHeight = 2
		}
		if nucleusHeight > nzg {
			nucleusHeight = nzg
		}
		nSeeds := nxg * nyg / 64
		if nSeeds < 3 {
			nSeeds = 3
		}
		rng := rand.New(rand.NewSource(s.Cfg.Seed + 1))
		tess, err = voronoi.New(nxg, nyg, nucleusHeight, nSeeds, fracs[:], rng)
		if err != nil {
			return err
		}
	}

	stripe := nxg / 6
	if stripe < 1 {
		stripe = 1
	}
	front := float64(nzg) / 2

	s.forAllRanks(func(r *rank) {
		ox, oy, _ := s.Cfg.BG.Origin(r.id)
		f := r.fields
		phi := f.PhiSrc
		// Explicit z-outermost loops instead of the per-cell closure: the
		// slice-constant interface profile (a tanh per cell before) is
		// hoisted to the z loop, and µ is cleared with contiguous fills.
		for z := 0; z < phi.NZ; z++ {
			gz := r.zOff + z
			liq := 0.0
			if sc == ScenarioInterface {
				liq = 0.5 * (1 + math.Tanh((float64(gz)-front)/(0.25*p.Eps)))
			}
			for y := 0; y < phi.NY; y++ {
				gy := oy + y
				for x := 0; x < phi.NX; x++ {
					gx := ox + x
					var pv [kernels.NP]float64
					switch sc {
					case ScenarioLiquid:
						pv[core.Liquid] = 1
					case ScenarioSolid:
						pv[(gx/stripe)%3] = 1
					case ScenarioInterface:
						pv[core.Liquid] = liq
						pv[(gx/stripe)%3] = 1 - liq
					case ScenarioProduction:
						if gz < nucleusHeight {
							pv[tess.At(gx, gy, gz)] = 1
						} else {
							pv[core.Liquid] = 1
						}
					}
					core.ProjectSimplex(&pv)
					for a := 0; a < kernels.NP; a++ {
						phi.Set(a, x, y, z, pv[a])
					}
				}
			}
		}
		f.MuSrc.FillComp(0, 0)
		f.MuSrc.FillComp(1, 0)
	})
	s.invalidateActivity()
	s.refreshGhosts()
	s.forAllRanks(func(r *rank) {
		r.fields.PhiDst.CopyFrom(r.fields.PhiSrc)
		r.fields.MuDst.CopyFrom(r.fields.MuSrc)
	})
	return nil
}

// refreshGhosts re-establishes all ghost layers of the source fields.
func (s *Sim) refreshGhosts() {
	s.forAllRanks(func(r *rank) {
		s.World.ExchangeGhosts(r.id, r.fields.PhiSrc, comm.TagPhi, r.phiBCs)
		s.World.ExchangeGhosts(r.id, r.fields.MuSrc, comm.TagMu, r.muBCs)
		r.act.imaged = true
	})
}

// Run advances the simulation n timesteps. A kernel panic recovered by the
// sweeps' isolation layer, or a lost TCP link, is re-panicked here as the
// *KernelFault or *comm.TransportError — the CLI tools keep their
// fail-fast crash; callers that must survive either (the job daemon, a
// distributed solidify run) step through RunSchedule, which returns the
// fault as an error instead.
func (s *Sim) Run(n int) {
	if err := s.RunSchedule(n, nil, ScheduleHooks{}); err != nil {
		panic(err)
	}
}

// runStep advances one timestep and reports the first kernel fault. The
// fault is sticky: once a sweep panicked the field data is garbage, so a
// faulted simulation refuses every further step.
func (s *Sim) runStep() error {
	if err := s.stopped(); err != nil {
		return err
	}
	var t0 time.Time
	if s.telem != nil {
		t0 = time.Now()
	}
	s.forAllRanks(func(r *rank) { s.timestep(r) })
	if f := s.faults.first.Load(); f != nil {
		// The step protocol completed mechanically (exchanges, swap), but
		// the faulted slab holds garbage: the step does not count.
		return f
	}
	s.step++
	s.time += s.Cfg.Params.Dt
	if s.Cfg.MovingWindow {
		s.maybeShiftWindow()
	}
	s.captureStep(t0)
	return nil
}

// timestep executes one step on one rank. Sweeps go through runSweep, which
// fans them out over the sweep engine's worker pool when the scheduler
// assigns this rank more than one z-slab. Under OverlapNone (Algorithm 1)
// both exchanges block and the µ ghosts are synchronized at the end of the
// step; under OverlapMu the µ exchange of the source field is deferred to
// the start of the next step and hidden behind the φ-sweep: it runs as an
// exchange task on the pool, and the time the rank then blocks joining it
// is charged to the µ tag's Stats.Wait (Sync makes the ghosts consistent
// before data export).
func (s *Sim) timestep(r *rank) {
	f := r.fields
	r.ctx = kernels.Ctx{P: s.Cfg.Params, ZOff: r.zOff + s.windowShift, Time: s.time}
	overlap := s.Cfg.Overlap == OverlapMu

	if overlap {
		r.xwg.Add(1)
		s.engine.tasks <- sweepTask{op: opExchange, r: r, keep: r.act.muKeep, done: &r.xwg}
	}
	t0 := time.Now()
	s.runSweep(r, opPhi)
	r.phiKernelTime += time.Since(t0)
	if overlap {
		t0 = time.Now()
		r.xwg.Wait()
		s.World.AddWait(r.id, comm.TagMu, time.Since(t0))
		if r.lost != nil {
			panic(r.lost)
		}
	}
	// On a ring-local rank the x/y ghost ring of a φ-slice that slept this
	// step and the last already holds what the fill would write.
	s.World.ExchangeGhostsKeeping(r.id, f.PhiDst, comm.TagPhi, r.phiBCs, r.act.keep)
	r.act.imaged = true
	t0 = time.Now()
	s.runSweep(r, opMu)
	r.muKernelTime += time.Since(t0)
	if !overlap {
		// A slept µ-slice's broadcast wrote its ring too (muKeep).
		s.World.ExchangeGhostsKeeping(r.id, f.MuDst, comm.TagMu, r.muBCs, r.act.muKeep)
	}

	f.Swap()
}

// RestoreState installs checkpointed fields and time-stepping state. The
// field bundle slice is indexed by global rank (one entry per block of the
// decomposition); in a distributed run only this process' local ranks are
// consumed, so remote entries may be nil. Ghost layers are reconstructed
// by a full exchange.
func (s *Sim) RestoreState(step int, t float64, windowShift int, fields []*kernels.Fields) error {
	if len(fields) != s.Cfg.BG.NumBlocks() {
		return fmt.Errorf("solver: restore with %d field bundles for %d ranks", len(fields), s.Cfg.BG.NumBlocks())
	}
	for _, r := range s.ranks {
		if fields[r.id] == nil {
			return fmt.Errorf("solver: restore missing fields for local rank %d", r.id)
		}
		if fields[r.id].PhiSrc.NX != r.fields.PhiSrc.NX ||
			fields[r.id].PhiSrc.NY != r.fields.PhiSrc.NY ||
			fields[r.id].PhiSrc.NZ != r.fields.PhiSrc.NZ {
			return fmt.Errorf("solver: restore block shape mismatch at rank %d", r.id)
		}
		r.fields = fields[r.id]
	}
	s.step = step
	s.time = t
	s.windowShift = windowShift
	// The activity map is conservatively re-derived from the restored field
	// data; the halo-skip history does not survive a restore.
	s.invalidateActivity()
	s.refreshGhosts()
	return nil
}

// Sync makes all source-field ghost layers consistent (needed before
// output under OverlapMu, which defers the µ exchange to the next step).
func (s *Sim) Sync() {
	if s.Cfg.Overlap == OverlapMu {
		s.forAllRanks(func(r *rank) {
			s.World.ExchangeGhosts(r.id, r.fields.MuSrc, comm.TagMu, r.muBCs)
		})
	}
}

// DomainBCs returns deep copies of the live per-face boundary sets for the
// φ and µ fields (checkpoint headers snapshot these).
func (s *Sim) DomainBCs() (phi, mu grid.BoundarySet) {
	return s.domainPhiBCs.Clone(), s.domainMuBCs.Clone()
}

// SetDomainBCs installs both boundary sets wholesale — the restore path for
// checkpoints whose header carries active BC state — and re-derives every
// rank's per-face conditions and the per-axis periodicity of the topology
// (a schedule may have flipped an axis before the checkpoint was written;
// the restored kinds carry that state). Must be called at a step boundary.
func (s *Sim) SetDomainBCs(phi, mu grid.BoundarySet) error {
	if err := phi.Validate(kernels.NP); err != nil {
		return fmt.Errorf("solver: φ BCs: %w", err)
	}
	if err := mu.Validate(kernels.NR); err != nil {
		return fmt.Errorf("solver: µ BCs: %w", err)
	}
	blocks := [3]int{s.Cfg.BG.PX, s.Cfg.BG.PY, s.Cfg.BG.PZ}
	for axis := 0; axis < 3; axis++ {
		lo, hi := axisFaces(axis)
		n := 0
		for _, f := range [2]grid.Face{lo, hi} {
			for _, set := range [2]*grid.BoundarySet{&phi, &mu} {
				if set[f].Kind == grid.BCPeriodic {
					n++
				}
			}
		}
		if n > 0 && n < 4 && blocks[axis] > 1 {
			return fmt.Errorf("solver: restored BCs leave axis %d mixed-periodic (%d of 4 faces) on a %d-block decomposition", axis, n, blocks[axis])
		}
	}
	s.domainPhiBCs = phi.Clone()
	s.domainMuBCs = mu.Clone()
	s.syncTopology([3]bool{true, true, true})
	s.refreshRankBCs()
	s.invalidateActivity()
	return nil
}

// refreshRankBCs re-derives every rank's per-face boundary conditions from
// the live domain sets. Safe only at step boundaries, when no sweep or
// overlapped exchange is in flight.
func (s *Sim) refreshRankBCs() {
	for _, r := range s.ranks {
		r.phiBCs = s.World.BlockBCs(r.id, s.domainPhiBCs)
		r.muBCs = s.World.BlockBCs(r.id, s.domainMuBCs)
	}
}
