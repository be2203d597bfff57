package solver

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/kernels"
)

// engine.go implements the intra-block parallel sweep engine: a persistent
// worker pool owned by Sim that decomposes each block's φ- and µ-sweep into
// z-slab ranges and runs them concurrently through the kernels' *Range entry
// points. Disjoint slabs write disjoint destination slices, so workers never
// conflict; each worker owns a kernels.Scratch, and the stag/shortcut
// variants recompute the z-face fluxes of a slab's first slice instead of
// reusing another worker's buffer (bitwise identical to the serial sweep).
//
// The pool is shared by all ranks: with B blocks and parallelism P, each
// rank's sweep is cut into ⌊P/B⌋ slabs (at least one), so a many-block
// decomposition keeps one slab per rank (the seed's one-goroutine-per-block
// behavior) and a single-block run fans out across all P workers without
// oversubscribing.

// minSlabSlices is the smallest z-extent worth its own worker: thinner slabs
// pay more in seam-slice flux recomputation than they gain in parallelism.
const minSlabSlices = 4

// sweepOp selects which kernel a sweep task runs.
type sweepOp int

const (
	opPhi sweepOp = iota
	opMu
)

// sweepTask is one z-slab of one rank's sweep. It carries everything the
// worker needs so dispatch allocates nothing.
type sweepTask struct {
	op     sweepOp
	ctx    *kernels.Ctx
	f      *kernels.Fields
	v      kernels.Variant
	z0, z1 int
	done   *sync.WaitGroup
	sink   *faultSink // panic isolation + injection points (never nil from runSweep)
}

func (t *sweepTask) run(sc *kernels.Scratch) {
	if t.op == opPhi {
		kernels.PhiSweepRange(t.ctx, t.f, sc, t.v, t.z0, t.z1)
	} else {
		kernels.MuSweepRange(t.ctx, t.f, sc, t.v, t.z0, t.z1)
	}
}

// sweepEngine is the persistent worker pool. Workers live for the lifetime
// of the Sim and block on the task channel between sweeps. The pool can
// grow at a step boundary (SetWorkerBudget) when the job daemon hands a
// simulation a larger share of the global budget; shrinking needs no pool
// change, because concurrency is bounded by how many slabs a sweep
// dispatches, not by how many workers exist.
type sweepEngine struct {
	tasks     chan sweepTask
	gauge     *WorkerGauge
	size      int // workers started so far
	closeOnce sync.Once
}

// engineTaskCap bounds how many tasks can be queued without blocking the
// dispatching rank; sized for the largest budget a grow may reach.
const engineTaskCap = 1024

// newSweepEngine starts nw workers, each owning a Scratch sized for one
// block slice.
func newSweepEngine(nw, bx, by int, g *WorkerGauge) *sweepEngine {
	e := &sweepEngine{tasks: make(chan sweepTask, engineTaskCap), gauge: g}
	e.grow(nw, bx, by)
	return e
}

// grow starts n additional workers.
func (e *sweepEngine) grow(n, bx, by int) {
	for i := 0; i < n; i++ {
		sc := kernels.NewScratch(bx, by)
		go func() {
			for t := range e.tasks {
				e.gauge.enter()
				t.runGuarded(sc)
				e.gauge.exit()
				t.done.Done()
			}
		}()
	}
	e.size += n
}

// close releases the worker goroutines. Safe to call more than once.
func (e *sweepEngine) close() {
	e.closeOnce.Do(func() { close(e.tasks) })
}

// defaultParallelism resolves the Config.Parallelism zero value.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

// slabCount returns how many slabs to cut an nz-slice sweep into for one
// rank: the per-rank worker share, bounded so no slab is thinner than
// minSlabSlices.
func (s *Sim) slabCount(nz int) int {
	n := s.workersPerRank
	if lim := nz / minSlabSlices; n > lim {
		n = lim
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runSweep executes one kernel sweep for rank r, fanned out over the engine
// when the scheduler assigns this rank more than one slab. With activity
// tracking on (activity.go), the sleep set for this op is derived first —
// on the rank's own goroutine, from step-start field state, so skip
// decisions are independent of Config.Parallelism — and only the awake
// [z0,z1) runs are swept; slept slices are realized by copy/broadcast
// while the slab tasks are in flight. Any z-partition of a sweep is
// bitwise identical to the serial sweep (the stag/shortcut variants
// recompute seam-slice fluxes), so carving runs around sleeping slices
// cannot perturb awake cells. With tracking disabled the single
// full-extent run reproduces the seed behavior byte for byte.
func (s *Sim) runSweep(r *rank, op sweepOp) {
	nz := r.fields.PhiSrc.NZ
	v := s.Cfg.Variant
	sleep := s.prepareActivity(r, op)
	runs := r.act.activeRuns(sleep, nz)
	total := 0
	for _, run := range runs {
		total += run[1] - run[0]
	}
	n := 0
	if total > 0 {
		n = s.slabCount(total)
	}
	if n <= 1 || s.engine == nil {
		for _, run := range runs {
			t := sweepTask{op: op, ctx: &r.ctx, f: r.fields, v: v,
				z0: run[0], z1: run[1], sink: s.faults}
			s.gauge.enter()
			t.runGuarded(r.sc)
			s.gauge.exit()
		}
		s.applySkips(r, op, sleep)
		return
	}
	count := 0
	for _, run := range runs {
		count += slabsFor(run[1]-run[0], n, total)
	}
	r.wg.Add(count)
	for _, run := range runs {
		ln := run[1] - run[0]
		ni := slabsFor(ln, n, total)
		for i := 0; i < ni; i++ {
			s.engine.tasks <- sweepTask{
				op: op, ctx: &r.ctx, f: r.fields, v: v,
				z0: run[0] + i*ln/ni, z1: run[0] + (i+1)*ln/ni,
				done: &r.wg, sink: s.faults,
			}
		}
	}
	s.applySkips(r, op, sleep)
	r.wg.Wait()
}

// slabsFor apportions the slab budget n across active runs by length.
func slabsFor(ln, n, total int) int {
	k := n * ln / total
	if k < 1 {
		k = 1
	}
	return k
}

// Close releases the sweep engine's worker goroutines and the World's comm
// workers. The Sim must not be stepped afterwards. Calling Close is
// optional — an unclosed engine is also released when the Sim is garbage
// collected — but deterministic for benchmark harnesses that build many
// simulations.
func (s *Sim) Close() {
	if s.engine != nil {
		s.engine.close()
	}
	s.World.Close()
}

// SetWorkerBudget re-targets the simulation's total intra-block sweep
// parallelism to n workers. It must be called at a step boundary (no sweep
// in flight) — the job daemon applies rebalanced budget shares from the
// schedule-runner goroutine inside the per-step yield hook. The pool grows
// on demand; a shrink simply dispatches fewer slabs from the next sweep on
// (idle pool workers park on the task channel and cost nothing). Slab
// decompositions are bit-for-bit equivalent across worker counts, so
// re-budgeting never perturbs the trajectory.
func (s *Sim) SetWorkerBudget(n int) error {
	if n < 1 {
		return fmt.Errorf("solver: worker budget %d invalid", n)
	}
	nBlocks := len(s.ranks)
	wpr := n / nBlocks
	if wpr < 1 {
		wpr = 1
	}
	s.Cfg.Parallelism = n
	if wpr == s.workersPerRank {
		return nil
	}
	s.workersPerRank = wpr
	if wpr <= 1 {
		return nil
	}
	need := wpr * nBlocks
	if s.engine == nil {
		s.engine = newSweepEngine(need, s.Cfg.BG.BX, s.Cfg.BG.BY, s.gauge)
		runtime.AddCleanup(s, func(e *sweepEngine) { e.close() }, s.engine)
	} else if need > s.engine.size {
		s.engine.grow(need-s.engine.size, s.Cfg.BG.BX, s.Cfg.BG.BY)
	}
	return nil
}
