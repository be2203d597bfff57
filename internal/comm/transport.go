package comm

import (
	"sync/atomic"

	"repro/internal/grid"
)

// Transport moves tagged per-face halo frames between ranks and provides
// the process-level collectives. The World keeps everything above it —
// staged pack/unpack, persistent comm workers, statistics — so both
// implementations share the exchange protocol and its accounting by
// construction.
//
// Two implementations exist: the in-process channel fabric (NewWorld's
// default, every rank in one OS process) and the TCP transport
// (NewTCPTransport, the rank grid spans processes and machines).
//
// Face conventions: Send, Recv and Release name the ARRIVAL face — the side
// of the receiving rank's block the message fills. TakeBuf names the
// sender's own SEND face (the arrival face's opposite). Buffer ownership
// passes with the frame: TakeBuf → pack → Send hands the buffer to the
// transport; Recv hands it to the receiver, which returns it through
// Release after unpacking, so steady-state exchanges allocate nothing.
//
// Hot-path methods return no errors: the in-process fabric cannot fail, and
// the TCP transport retries transient faults internally, panicking with a
// *TransportError only when a peer stays unreachable past its retry window.
type Transport interface {
	// Proc returns this process' index; NumProcs the total process count.
	Proc() int
	// NumProcs returns how many processes share the rank grid.
	NumProcs() int
	// Owner returns the process index owning a global rank.
	Owner(rank int) int

	// TakeBuf fetches rank `from`'s persistent pack buffer for its
	// (sendFace, tag) stream, n floats long.
	TakeBuf(from int, sendFace grid.Face, tag Tag, n int) []float64
	// Send delivers buf from rank `from` to rank `to`, arriving at face
	// `face` of to's block. buf always holds at least one cell.
	Send(from, to int, face grid.Face, tag Tag, buf []float64)
	// Recv blocks until the message arriving at (to, face, tag) is
	// available and returns its payload.
	Recv(to int, face grid.Face, tag Tag) []float64
	// Release returns a received buffer to the pool of its sender's
	// (face.Opposite(), tag) stream after unpacking.
	Release(from, to int, face grid.Face, tag Tag, buf []float64)
	// Allocs reports how many pack buffers were freshly allocated (the
	// allocation-guard tests assert it stays flat in steady state).
	Allocs() int64

	// Barrier blocks until every process has entered it.
	Barrier()
	// Sum adds vals elementwise across processes; every process receives
	// the result. Callers preserve bitwise determinism by giving each
	// vector slot exactly one nonzero contributor.
	Sum(vals []float64)
	// Max computes the elementwise maximum across processes.
	Max(vals []float64)
	// Gather collects per-rank payloads on process 0: each process fills
	// parts[r] for its local ranks; the root returns the complete slice,
	// everyone else nil.
	Gather(parts [][]float64) [][]float64

	// Close releases transport resources. The in-process transport is a
	// no-op (blocking exchanges keep working after World.Close); the TCP
	// transport closes its connections.
	Close() error
}

// localTransport is the in-process channel fabric: the default fast path,
// mailbox and free-list channels shared by every rank in one process. It is
// also embedded by the TCP transport, whose demultiplexer feeds remote
// frames into the same mailboxes — the pool key (sender, sendFace, tag)
// identifies a stream whichever side of a socket it lives on.
type localTransport struct {
	nRanks int

	// mailboxes[to][face][tag] carries messages arriving at rank `to`
	// whose ghost region is on side `face` of `to`'s block.
	mailboxes [][]chan []float64

	// freeBufs[from][face][tag] recycles pack buffers back to their
	// sending rank: after unpacking, the receiver returns the buffer to
	// the sender's free list for that (face, tag) stream, so the steady
	// state circulates a fixed set of buffers and packs allocate nothing.
	freeBufs [][]chan []float64

	// packAllocs counts fresh pack-buffer allocations (warm-up only in
	// steady state; the allocation-guard tests assert it stays flat).
	packAllocs atomic.Int64
}

// newLocalTransport builds the channel fabric for n ranks.
func newLocalTransport(n int) *localTransport {
	lt := &localTransport{
		nRanks:    n,
		mailboxes: make([][]chan []float64, n),
		freeBufs:  make([][]chan []float64, n),
	}
	for r := 0; r < n; r++ {
		lt.mailboxes[r] = make([]chan []float64, int(grid.NumFaces)*int(numTags))
		lt.freeBufs[r] = make([]chan []float64, int(grid.NumFaces)*int(numTags))
		for i := range lt.mailboxes[r] {
			// Capacity 2 tolerates one full timestep of skew
			// between neighbors.
			lt.mailboxes[r][i] = make(chan []float64, 2)
			// One extra free slot so a buffer returned while the
			// mailbox is full is never dropped.
			lt.freeBufs[r][i] = make(chan []float64, 3)
		}
	}
	return lt
}

func (lt *localTransport) Proc() int       { return 0 }
func (lt *localTransport) NumProcs() int   { return 1 }
func (lt *localTransport) Owner(r int) int { return 0 }
func (lt *localTransport) Allocs() int64   { return lt.packAllocs.Load() }

func (lt *localTransport) box(to int, face grid.Face, tag Tag) chan []float64 {
	return lt.mailboxes[to][int(face)*int(numTags)+int(tag)]
}

// takeBuf fetches rank's persistent pack buffer for the (face, tag) send
// stream, allocating only when the free list is empty (first steps) or the
// requested size grew (window/geometry change).
func (lt *localTransport) TakeBuf(from int, sendFace grid.Face, tag Tag, n int) []float64 {
	free := lt.freeBufs[from][int(sendFace)*int(numTags)+int(tag)]
	select {
	case b := <-free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	lt.packAllocs.Add(1)
	return make([]float64, n)
}

func (lt *localTransport) Send(from, to int, face grid.Face, tag Tag, buf []float64) {
	lt.box(to, face, tag) <- buf
}

func (lt *localTransport) Recv(to int, face grid.Face, tag Tag) []float64 {
	return <-lt.box(to, face, tag)
}

// Release returns a consumed message buffer to its sender's free list. A
// full free list (impossible in the steady protocol, but cheap to tolerate)
// drops the buffer to the garbage collector.
func (lt *localTransport) Release(from, to int, face grid.Face, tag Tag, buf []float64) {
	free := lt.freeBufs[from][int(face.Opposite())*int(numTags)+int(tag)]
	select {
	case free <- buf:
	default:
	}
}

// Single-process collectives are identities: the World's local reduction
// already covers every rank.
func (lt *localTransport) Barrier()                             {}
func (lt *localTransport) Sum(vals []float64)                   {}
func (lt *localTransport) Max(vals []float64)                   {}
func (lt *localTransport) Gather(parts [][]float64) [][]float64 { return parts }

// Close is a no-op: blocking exchanges must keep working after World.Close
// (the job daemon cancels jobs whose final synchronization still runs).
func (lt *localTransport) Close() error { return nil }
