// Package comm provides the distributed-memory communication substrate:
// the Go analogue of the MPI layer the paper's waLBerla implementation runs
// on. Each block owner ("rank") is a goroutine; ghost-layer exchange is a
// staged six-face halo swap whose three axis stages (x, then y including
// x-ghosts, then z including x- and y-ghosts) fill the complete ghost shell
// — faces, edges and corners — which is exactly the halo the µ-kernel's
// D3C19 stencil requires.
//
// Frame movement is delegated to a Transport: the in-process channel fabric
// (default) or the TCP transport, which lets one rank grid span OS
// processes and machines. The World keeps everything above the transport —
// pack/unpack, statistics — so both paths share the protocol and its
// accounting.
//
// The package reproduces the structural properties that matter for the
// paper's system-level experiments: explicit pack/unpack into message
// buffers (whose cost cannot be hidden, §5.1.2), exchanges that write only
// ghost cells, so a caller can overlap one with computation by running it
// on another goroutine (Algorithm 2; the solver runs it as a task on its
// sweep pool and charges its join to Stats.Wait through AddWait), and
// per-tag message streams so φ- and µ-exchanges in flight at the same time
// never interleave: every (receiving rank, face, tag) has its own mailbox,
// so the tags stay apart even where the TCP transport carries both over
// one connection per peer.
package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
)

// Tag distinguishes concurrently flowing message streams.
type Tag int

const (
	// TagPhi marks phase-field ghost exchanges.
	TagPhi Tag = iota
	// TagMu marks chemical-potential ghost exchanges.
	TagMu
	numTags
)

func (t Tag) String() string {
	switch t {
	case TagPhi:
		return "phi"
	case TagMu:
		return "mu"
	}
	return fmt.Sprintf("Tag(%d)", int(t))
}

// Stats accumulates per-rank communication timing, the measurement behind
// the paper's Fig. 8 ("time spent in communication per timestep"). The
// semantics are transport-independent: Transfer is blocking time in the
// transport's send/receive (channel handoff or socket write/read), and
// Bytes counts payload bytes moved (8 per float64).
type Stats struct {
	Pack     time.Duration // packing ghost data into message buffers
	Unpack   time.Duration // unpacking received buffers into ghost layers
	Transfer time.Duration // blocking time in transport send/receive
	Wait     time.Duration // time blocked joining overlapped exchanges (AddWait)
	Messages int
	Bytes    int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Pack += other.Pack
	s.Unpack += other.Unpack
	s.Transfer += other.Transfer
	s.Wait += other.Wait
	s.Messages += other.Messages
	s.Bytes += other.Bytes
}

// Total returns the total time attributed to communication.
func (s *Stats) Total() time.Duration { return s.Pack + s.Unpack + s.Transfer + s.Wait }

// World is the communicator for one block decomposition. All local ranks
// share the World; per-rank state is indexed by global rank id. With the
// default in-process transport every rank is local; with the TCP transport
// each process' World drives only the ranks it owns.
type World struct {
	BG *grid.BlockGrid

	// topo is the live connectivity: which blocks exchange across which
	// faces, and which axes wrap. Starts as the BlockGrid's construction
	// state; SetPeriodic mutates it at step boundaries (runtime SetBC
	// kind changes on decomposed axes).
	topo grid.Topology

	tr Transport

	local []int // global ids of ranks this process owns, ascending

	closeOnce sync.Once

	stats [][]Stats // per-rank, per-tag accumulated stats
	// flows holds per-(rank, tag, face) frame/byte counters,
	// guarded by the same per-rank mutex as stats; latency holds the
	// per-(rank, tag) whole-exchange wall-time histograms (atomic, no
	// lock needed).
	flows   [][][grid.NumFaces]FlowCounters
	latency [][]obs.Histogram
	mu      []sync.Mutex
}

// NewWorld builds a communicator over the in-process channel fabric: every
// rank of the decomposition lives in this process.
func NewWorld(bg *grid.BlockGrid) *World {
	return NewWorldTransport(bg, nil)
}

// NewWorldTransport builds a communicator over an explicit transport (nil
// selects the in-process fabric). The World drives the ranks the transport
// assigns to this process; the halo protocol and statistics are identical
// on every transport.
func NewWorldTransport(bg *grid.BlockGrid, tr Transport) *World {
	n := bg.NumBlocks()
	if tr == nil {
		tr = newLocalTransport(n)
	}
	w := &World{
		BG:      bg,
		topo:    grid.NewTopology(bg),
		tr:      tr,
		stats:   make([][]Stats, n),
		flows:   make([][][grid.NumFaces]FlowCounters, n),
		latency: make([][]obs.Histogram, n),
		mu:      make([]sync.Mutex, n),
	}
	for r := 0; r < n; r++ {
		if tr.Owner(r) == tr.Proc() {
			w.local = append(w.local, r)
		}
	}
	for r := 0; r < n; r++ {
		w.stats[r] = make([]Stats, numTags)
		w.flows[r] = make([][grid.NumFaces]FlowCounters, numTags)
		w.latency[r] = make([]obs.Histogram, numTags)
	}
	return w
}

// Close releases the transport. It is idempotent and safe to call from
// several goroutines at once. On the in-process transport, exchanges and
// reductions keep working after Close; on the TCP transport Close tears
// down the connections, so it must be the last collective act of the
// process.
func (w *World) Close() {
	w.closeOnce.Do(func() { _ = w.tr.Close() })
}

// NumRanks returns the number of ranks in the world (all processes).
func (w *World) NumRanks() int { return w.BG.NumBlocks() }

// Proc returns this process' index in the transport's process grid.
func (w *World) Proc() int { return w.tr.Proc() }

// NumProcs returns how many processes share the rank grid.
func (w *World) NumProcs() int { return w.tr.NumProcs() }

// IsRoot reports whether this is process 0, the process that writes
// checkpoints and gathers global fields.
func (w *World) IsRoot() bool { return w.tr.Proc() == 0 }

// Owner returns the process index owning a global rank.
func (w *World) Owner(rank int) int { return w.tr.Owner(rank) }

// LocalRanks returns the global ids of the ranks this process owns, in
// ascending order. The caller must not mutate the slice.
func (w *World) LocalRanks() []int { return w.local }

// Topology returns the live connectivity view.
func (w *World) Topology() grid.Topology { return w.topo }

// SetPeriodic flips one axis' wrap-around state: the runtime topology
// change behind SetBC kind changes on decomposed axes. Must be called at a
// step boundary, with no exchange in flight, symmetrically on every
// process (the schedule engine guarantees both).
func (w *World) SetPeriodic(axis int, periodic bool) {
	w.topo.Periodic[axis] = periodic
}

// BlockBCs derives rank r's per-face boundary conditions from the domain
// set under the live topology.
func (w *World) BlockBCs(r int, domain grid.BoundarySet) grid.BoundarySet {
	return w.topo.BlockBCs(r, domain)
}

// PackAllocs returns how many pack buffers have been freshly allocated so
// far. In a steady-state run the count stops growing after the first
// timestep — the allocation-guard tests assert exactly that.
func (w *World) PackAllocs() int64 { return w.tr.Allocs() }

// RankTagStats returns the accumulated stats for rank r and one tag.
func (w *World) RankTagStats(r int, tag Tag) Stats {
	w.mu[r].Lock()
	defer w.mu[r].Unlock()
	return w.stats[r][tag]
}

// ResetStats zeroes all per-rank statistics, including the flow counters
// and exchange-latency histograms.
func (w *World) ResetStats() {
	for r := range w.stats {
		w.mu[r].Lock()
		for t := range w.stats[r] {
			w.stats[r][t] = Stats{}
			w.flows[r][t] = [grid.NumFaces]FlowCounters{}
		}
		w.mu[r].Unlock()
		for t := range w.latency[r] {
			w.latency[r][t].Reset()
		}
	}
}

// AddWait charges d to rank r's Stats.Wait for tag: the time the rank
// blocked joining an exchange it had overlapped with computation.
func (w *World) AddWait(r int, tag Tag, d time.Duration) {
	w.addStats(r, tag, Stats{Wait: d})
}

func (w *World) addStats(r int, tag Tag, s Stats) {
	w.mu[r].Lock()
	w.stats[r][tag].Add(s)
	w.mu[r].Unlock()
}

// addStatsFlows folds one exchange's stats and per-face flow counters in
// under a single lock acquisition.
func (w *World) addStatsFlows(r int, tag Tag, s Stats, fc *[grid.NumFaces]FlowCounters) {
	w.mu[r].Lock()
	w.stats[r][tag].Add(s)
	for f := range fc {
		w.flows[r][tag][f].add(fc[f])
	}
	w.mu[r].Unlock()
}

// GlobalSum adds vals elementwise across processes; every process receives
// the result. It is a process-level collective: exactly one goroutine per
// process calls it, in the same order on every process. Callers preserve
// bitwise determinism by giving each slot exactly one nonzero contributor
// (the per-global-rank vectors the solver's metrics use).
func (w *World) GlobalSum(vals []float64) { w.tr.Sum(vals) }

// GlobalMax computes the elementwise maximum across processes (same calling
// discipline as GlobalSum).
func (w *World) GlobalMax(vals []float64) { w.tr.Max(vals) }

// GatherBlocks collects per-global-rank payloads on process 0: each process
// fills parts[r] for its local ranks and passes the rest nil. The root
// returns the completed slice; every other process returns nil. Cold path —
// checkpoint writing and global field assembly.
func (w *World) GatherBlocks(parts [][]float64) [][]float64 { return w.tr.Gather(parts) }
