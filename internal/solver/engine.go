package solver

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/comm"
	"repro/internal/kernels"
)

// engine.go implements the intra-block parallel sweep engine: a persistent
// worker pool owned by Sim that cuts each block's φ- and µ-sweep into
// z-slabs and runs them concurrently through the kernels' *Range entry
// points. Disjoint slabs write disjoint destination slices, so workers never
// conflict; each worker owns a kernels.Scratch, and the stag/shortcut
// variants recompute the z-face fluxes of a slab's first slice instead of
// reusing another worker's buffer (bitwise identical to the serial sweep).
//
// The pool is shared by all of this process's ranks: with B local ranks
// (New's nLocal; in a distributed run, the ranks this process owns) and
// parallelism P, each rank's sweep gets n = ⌊P/B⌋ claim tasks (at least
// one), so a many-block decomposition keeps one worker per rank (the
// seed's one-goroutine-per-block behavior) and a single-block run fans out
// across all P workers without oversubscribing. A slice below the front costs two to three times one
// above it (the melt above takes the bulk-row shortcuts), so equal-height
// cuts would hand the whole expensive side to one worker. Instead the awake
// slices are over-cut into up to slabsPerWorker·n slabs, and each claim task
// takes the next unswept slab from the rank's list until none is left: the
// workers even out the load themselves, with no timing state.
//
// The pool also hosts the hidden µ exchange of OverlapMu (Algorithm 2): each
// rank queues one exchange task before its φ-sweep and joins it after. An
// exchange task blocks until the neighbors' frames arrive, so the pool must
// never let it wait behind another blocked task. It cannot: the pool has at
// least one worker per local rank, each rank has at most one exchange task
// outstanding, and claim tasks never block, so every queued exchange task
// finds a worker. Exchange tasks are not counted by the WorkerGauge.

// minSlabSlices is the smallest z-extent worth its own slab: thinner slabs
// pay more in seam-slice flux recomputation than they gain in balance.
const minSlabSlices = 4

// slabsPerWorker is how many slabs a sweep is cut into per claim task, so a
// worker that drew cheap slabs claims more of them.
const slabsPerWorker = 4

// sweepOp selects which kernel a sweep task runs.
type sweepOp int

const (
	opPhi sweepOp = iota
	opMu
	opExchange // the rank's hidden µ exchange, not a sweep (exchangeMu)
)

// sweepTask is one claim task of one rank's sweep: the worker holding it
// claims slabs through the rank's cursor and sweeps them until none is
// left. It carries everything the worker needs so dispatch allocates
// nothing. An opExchange task uses only r, keep and done.
type sweepTask struct {
	op    sweepOp
	r     *rank
	slabs [][2]int // [z0,z1) slabs, claimed in order through r.next
	done  *sync.WaitGroup
	sink  *faultSink // panic isolation + injection points (never nil from runSweep)
	// keep is an opExchange task's fill mask, the rank's muKeep taken on
	// the rank goroutine when the task is queued (the tracker sizes it
	// lazily, at the φ dispatch the exchange runs beside).
	keep []bool
}

// drain claims and sweeps slabs until the list is empty.
func (t *sweepTask) drain(sc *kernels.Scratch) {
	for {
		i := int(t.r.next.Add(1)) - 1
		if i >= len(t.slabs) {
			return
		}
		t.runGuarded(sc, t.slabs[i][0], t.slabs[i][1])
	}
}

func (t *sweepTask) run(sc *kernels.Scratch, z0, z1 int) {
	if t.op == opPhi {
		kernels.PhiSweepRange(&t.r.ctx, t.r.fields, sc, z0, z1)
	} else {
		kernels.MuSweepRange(&t.r.ctx, t.r.fields, sc, z0, z1)
	}
}

// sweepEngine is the persistent worker pool. Workers live for the lifetime
// of the Sim and block on the task channel between sweeps. The pool can
// grow at a step boundary (SetWorkerBudget) when the job daemon hands a
// simulation a larger share of the global budget; shrinking needs no pool
// change, because concurrency is bounded by how many claim tasks a sweep
// queues, not by how many workers exist.
type sweepEngine struct {
	tasks     chan sweepTask
	gauge     *WorkerGauge
	world     *comm.World // exchange tasks run on it
	size      int         // workers started so far
	closeOnce sync.Once
}

// engineTaskCap bounds how many tasks can be queued without blocking the
// dispatching rank; sized for the largest budget a grow may reach.
const engineTaskCap = 1024

// newSweepEngine starts nw workers, each owning a Scratch sized for one
// block slice.
func newSweepEngine(nw, bx, by int, g *WorkerGauge, w *comm.World) *sweepEngine {
	e := &sweepEngine{tasks: make(chan sweepTask, engineTaskCap), gauge: g, world: w}
	e.grow(nw, bx, by)
	return e
}

// grow starts n additional workers.
func (e *sweepEngine) grow(n, bx, by int) {
	for i := 0; i < n; i++ {
		sc := kernels.NewScratch(bx, by)
		go func() {
			for t := range e.tasks {
				if t.op == opExchange {
					t.r.exchangeMu(e.world, t.keep)
				} else {
					e.gauge.enter()
					t.drain(sc)
					e.gauge.exit()
				}
				t.done.Done()
			}
		}()
	}
	e.size += n
}

// exchangeMu is a rank's exchange task: the blocking µ exchange of the
// source field, run on a pool worker while the rank sweeps φ. It writes only
// ghost cells, which the φ-sweep never reads, and keeps the rings of the
// slices the previous step broadcast (keep: the tracker's muKeep, which the
// rank goroutine does not write before the join). A lost TCP link is kept for
// the rank goroutine, which raises it after the join (timestep); any other
// panic crashes the process here, as it would on the rank goroutine.
func (r *rank) exchangeMu(w *comm.World, keep []bool) {
	defer func() {
		if v := recover(); v != nil {
			te, ok := v.(*comm.TransportError)
			if !ok {
				panic(v)
			}
			r.lost = te
		}
	}()
	w.ExchangeGhostsKeeping(r.id, r.fields.MuSrc, comm.TagMu, r.muBCs, keep)
}

// close releases the worker goroutines. Safe to call more than once.
func (e *sweepEngine) close() {
	e.closeOnce.Do(func() { close(e.tasks) })
}

// defaultParallelism resolves the Config.Parallelism zero value.
func defaultParallelism() int { return runtime.GOMAXPROCS(0) }

// claimTasks returns how many workers sweep a rank's total awake slices:
// the per-rank worker share, bounded so each can claim a slab of at least
// minSlabSlices.
func (s *Sim) claimTasks(total int) int {
	return max(1, min(s.workersPerRank, total/minSlabSlices))
}

// cutSlabs appends to dst the slabs that n claim tasks share: each awake
// run is cut into pieces at least h = max(minSlabSlices,
// ⌈total/(slabsPerWorker·n)⌉) slices high and within one slice of each
// other, so there are at most slabsPerWorker·n of them. A run shorter than
// h stays one slab (runs are never merged).
func cutSlabs(dst, runs [][2]int, total, n int) [][2]int {
	m := slabsPerWorker * n
	h := max(minSlabSlices, (total+m-1)/m)
	for _, run := range runs {
		ln := run[1] - run[0]
		k := max(1, ln/h)
		for i := 0; i < k; i++ {
			dst = append(dst, [2]int{run[0] + i*ln/k, run[0] + (i+1)*ln/k})
		}
	}
	return dst
}

// runSweep executes one kernel sweep for rank r. With activity tracking on
// (activity.go), the sleep set for this op is derived first — on the
// rank's own goroutine, from step-start field state, so skip decisions are
// independent of Config.Parallelism — and only the awake [z0,z1) runs are
// swept; slept slices are realized by copy/broadcast while the claim tasks
// are in flight. With one worker for the rank the runs are swept uncut on
// the rank goroutine; with n > 1 they are cut into slabs (cutSlabs) and n
// claim tasks (never more than there are slabs) go to the engine, so no
// more than the rank's worker share sweeps at once. Any z-partition of a
// sweep is bitwise identical to the serial sweep (the stag/shortcut
// variants recompute seam-slice fluxes), so neither the cut nor which
// worker claims a slab can perturb a cell. With tracking disabled the
// single full-extent run reproduces the seed behavior byte for byte.
func (s *Sim) runSweep(r *rank, op sweepOp) {
	sleep := s.prepareActivity(r, op)
	runs := r.act.activeRuns(sleep, r.fields.PhiSrc.NZ)
	total := 0
	for _, run := range runs {
		total += run[1] - run[0]
	}
	t := sweepTask{op: op, r: r, slabs: runs, done: &r.wg, sink: s.faults}
	r.next.Store(0)
	if n := s.claimTasks(total); n > 1 {
		r.slabs = cutSlabs(r.slabs[:0], runs, total, n)
		t.slabs = r.slabs
		n = min(n, len(r.slabs))
		r.wg.Add(n)
		for i := 0; i < n; i++ {
			s.engine.tasks <- t
		}
	} else if total > 0 {
		s.gauge.enter()
		t.drain(r.sc)
		s.gauge.exit()
	}
	s.applySkips(r, op, sleep)
	r.wg.Wait()
}

// Close releases the sweep engine's worker goroutines and the World's
// transport. The Sim must not be stepped afterwards. Calling Close is
// optional — an unclosed Sim is also released when it is garbage
// collected — but deterministic for benchmark harnesses that build many
// simulations.
func (s *Sim) Close() {
	s.engine.close()
	s.World.Close()
}

// SetWorkerBudget re-targets the simulation's total intra-block sweep
// parallelism to n workers. It must be called at a step boundary (no sweep
// in flight) — the job daemon applies rebalanced budget shares from the
// schedule-runner goroutine inside the per-step yield hook. The pool grows
// on demand; a shrink simply queues fewer claim tasks from the next sweep
// on (idle pool workers park on the task channel and cost nothing), so no
// more than the new share sweeps at once even when the pool grew earlier.
// Slab decompositions are bit-for-bit equivalent across worker counts, so
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
	if need := wpr * nBlocks; need > s.engine.size {
		s.engine.grow(need-s.engine.size, s.Cfg.BG.BX, s.Cfg.BG.BY)
	}
	return nil
}
