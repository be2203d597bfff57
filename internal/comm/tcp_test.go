package comm

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
)

// startTCPWorlds builds one World per process over loopback TCP, all
// sharing the same global decomposition. Worlds are closed by the caller
// (after all procs finished their collective work); the cleanup close is
// idempotent backstop only.
func startTCPWorlds(t *testing.T, bg *grid.BlockGrid, nprocs int) []*World {
	t.Helper()
	return startTCPWorldsIO(t, bg, nprocs, 10*time.Second)
}

// startTCPWorldsIO is startTCPWorlds with the transports' IOTimeout.
func startTCPWorldsIO(t *testing.T, bg *grid.BlockGrid, nprocs int, ioTimeout time.Duration) []*World {
	t.Helper()
	listeners := make([]net.Listener, nprocs)
	for p := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[p] = l
	}
	return startTCPWorldsOn(t, bg, listeners, ioTimeout)
}

// startTCPWorldsOn is startTCPWorldsIO on the given listeners, one per
// process.
func startTCPWorldsOn(t *testing.T, bg *grid.BlockGrid, listeners []net.Listener, ioTimeout time.Duration) []*World {
	t.Helper()
	nprocs := len(listeners)
	peers := make([]string, nprocs)
	for p, l := range listeners {
		peers[p] = l.Addr().String()
	}
	worlds := make([]*World, nprocs)
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for p := 0; p < nprocs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tr, err := NewTCPTransport(TCPConfig{
				BG: bg, Proc: p, Peers: peers, Listener: listeners[p],
				DialTimeout: 10 * time.Second,
				IOTimeout:   ioTimeout,
			})
			if err != nil {
				errs[p] = err
				return
			}
			worlds[p] = NewWorldTransport(bg, tr)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	return worlds
}

// closeAll closes every world concurrently after all procs synchronized:
// closing one side while the other still exchanges would look like a
// network fault.
func closeAll(worlds []*World) {
	var wg sync.WaitGroup
	for _, w := range worlds {
		wg.Add(1)
		go func(w *World) { defer wg.Done(); w.Close() }(w)
	}
	wg.Wait()
}

// TestTCPExchangeMatchesGlobalPattern runs the staged halo exchange with
// the rank grid split across two TCP-connected "processes" and verifies
// every ghost cell against the wrapped global pattern — the same oracle the
// in-process exchange tests use.
func TestTCPExchangeMatchesGlobalPattern(t *testing.T) {
	periodic := [3]bool{true, true, false}
	bg, err := grid.NewBlockGrid(2, 2, 1, 4, 3, 5, periodic)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := bg.GlobalCells()
	const ncomp = 2
	worlds := startTCPWorlds(t, bg, 2)

	domain := grid.AllPeriodic()
	domain[grid.ZMin] = grid.BC{Kind: grid.BCNeumann}
	domain[grid.ZMax] = grid.BC{Kind: grid.BCNeumann}

	fields := make([]*grid.Field, bg.NumBlocks())
	var wg sync.WaitGroup
	for _, w := range worlds {
		for _, r := range w.LocalRanks() {
			f := grid.NewField(bg.BX, bg.BY, bg.BZ, ncomp, 1, grid.SoA)
			ox, oy, oz := bg.Origin(r)
			f.Interior(func(x, y, z int) {
				for c := 0; c < ncomp; c++ {
					f.Set(c, x, y, z, globalValue(c, ox+x, oy+y, oz+z, nx, ny, nz, periodic))
				}
			})
			fields[r] = f
			wg.Add(1)
			go func(w *World, r int, f *grid.Field) {
				defer wg.Done()
				w.ExchangeGhosts(r, f, TagPhi, w.BlockBCs(r, domain))
			}(w, r, f)
		}
	}
	wg.Wait()
	closeAll(worlds)

	for r, f := range fields {
		ox, oy, oz := bg.Origin(r)
		for c := 0; c < ncomp; c++ {
			for z := -1; z <= bg.BZ; z++ {
				for y := -1; y <= bg.BY; y++ {
					for x := -1; x <= bg.BX; x++ {
						want := globalValue(c, ox+x, oy+y, oz+z, nx, ny, nz, periodic)
						if want < 0 {
							continue
						}
						if got := f.At(c, x, y, z); got != want {
							t.Fatalf("rank %d cell c=%d (%d,%d,%d): got %v want %v", r, c, x, y, z, got, want)
						}
					}
				}
			}
		}
	}
}

// runStatsScenario performs the shared stats scenario on an arbitrary set
// of worlds covering a 2×1×1 x-periodic decomposition: two exchange rounds
// on TagPhi. Returns per-rank TagPhi stats.
func runStatsScenario(t *testing.T, bg *grid.BlockGrid, worlds []*World) [2]Stats {
	t.Helper()
	domain := grid.AllNeumann()
	domain[grid.XMin] = grid.BC{Kind: grid.BCPeriodic}
	domain[grid.XMax] = grid.BC{Kind: grid.BCPeriodic}

	fields := make([]*grid.Field, bg.NumBlocks())
	round := func() {
		var wg sync.WaitGroup
		for _, w := range worlds {
			for _, r := range w.LocalRanks() {
				if fields[r] == nil {
					fields[r] = grid.NewField(bg.BX, bg.BY, bg.BZ, 1, 1, grid.SoA)
				}
				wg.Add(1)
				go func(w *World, r int) {
					defer wg.Done()
					w.ExchangeGhosts(r, fields[r], TagPhi, w.BlockBCs(r, domain))
				}(w, r)
			}
		}
		wg.Wait()
	}
	round()
	round()

	var out [2]Stats
	for _, w := range worlds {
		for _, r := range w.LocalRanks() {
			out[r] = w.RankTagStats(r, TagPhi)
		}
	}
	return out
}

// TestTransportStatsConsistent asserts the Fig. 8-style accounting cannot
// diverge between transports: the same scenario must produce identical
// Messages and Bytes (bytes on the wire, 8 per float64) whether the two
// ranks share a process or talk over TCP.
func TestTransportStatsConsistent(t *testing.T) {
	bg, err := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}

	wLocal := NewWorld(bg)
	local := runStatsScenario(t, bg, []*World{wLocal})
	wLocal.Close()

	worlds := startTCPWorlds(t, bg, 2)
	tcp := runStatsScenario(t, bg, worlds)
	closeAll(worlds)

	for r := 0; r < 2; r++ {
		// Each round: two x-face messages of 4*4 cells.
		if local[r].Messages != 4 || local[r].Bytes != 4*16*8 {
			t.Fatalf("in-process rank %d stats off: %+v", r, local[r])
		}
		if tcp[r].Messages != local[r].Messages {
			t.Errorf("rank %d: tcp Messages %d != in-process %d", r, tcp[r].Messages, local[r].Messages)
		}
		if tcp[r].Bytes != local[r].Bytes {
			t.Errorf("rank %d: tcp Bytes %d != in-process %d", r, tcp[r].Bytes, local[r].Bytes)
		}
	}
}

// TestReadOneRejectsEmptyDataFrame feeds a data stream's reader one frame
// at a time: a one-cell halo frame reaches the receiving rank's mailbox,
// while a zero-length data frame is a protocol error, which makes the
// reader loop drop the connection, and the stream does not advance past it.
func TestReadOneRejectsEmptyDataFrame(t *testing.T) {
	bg, err := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, [3]bool{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tcpTransport{
		lt:        newLocalTransport(2),
		cfg:       TCPConfig{BG: bg, Proc: 0, IOTimeout: 5 * time.Second},
		nprocs:    2,
		maxFloats: 1024,
	}
	s := &tcpStream{t: tr, peer: 1}
	read := func(fr *wireFrame) error {
		local, remote := net.Pipe()
		defer local.Close()
		defer remote.Close()
		go func() { _, _ = remote.Write(appendFrame(nil, fr)) }()
		var f wireFrame
		return tr.readOne(s, local, bufio.NewReader(local), &f)
	}

	halo := &wireFrame{Kind: kindData, Tag: byte(TagPhi), Face: byte(grid.XMax),
		From: 1, To: 0, Seq: 0, Payload: []float64{2.5}}
	if err := read(halo); err != nil {
		t.Fatalf("one-cell data frame rejected: %v", err)
	}
	if got := tr.lt.Recv(0, grid.XMax, TagPhi); len(got) != 1 || got[0] != 2.5 {
		t.Fatalf("delivered payload %v, want [2.5]", got)
	}

	empty := &wireFrame{Kind: kindData, Tag: byte(TagPhi), Face: byte(grid.XMax),
		From: 1, To: 0, Seq: 1, Payload: []float64{}}
	if err := read(empty); err == nil {
		t.Fatal("zero-length data frame accepted")
	}
	if s.recvSeq != 1 {
		t.Errorf("stream advanced to seq %d past a rejected frame, want 1", s.recvSeq)
	}

	badTag := &wireFrame{Kind: kindData, Tag: byte(numTags), Face: byte(grid.XMax),
		From: 1, To: 0, Seq: 1, Payload: []float64{2.5}}
	if err := read(badTag); err == nil {
		t.Fatalf("data frame with tag %d accepted", numTags)
	}
	if s.recvSeq != 1 {
		t.Errorf("stream advanced to seq %d past a rejected frame, want 1", s.recvSeq)
	}
}

// faultIOTimeout is the IOTimeout of the fault tests' transports: the
// bound within which an exchange on a lost link must give up.
const faultIOTimeout = 2 * time.Second

// exchangeOrPanic runs one blocking φ exchange of rank r and returns what
// it panicked with, or nil when it completed.
func exchangeOrPanic(w *World, r int, f *grid.Field, domain grid.BoundarySet) (v any) {
	defer func() { v = recover() }()
	w.ExchangeGhosts(r, f, TagPhi, w.BlockBCs(r, domain))
	return nil
}

// checkFault fails the test unless v is a *TransportError naming peer.
func checkFault(t *testing.T, proc int, v any, peer int) {
	t.Helper()
	te, ok := v.(*TransportError)
	if !ok {
		t.Fatalf("proc %d: exchange ended with %v, want a *TransportError", proc, v)
	}
	if te.Peer != peer {
		t.Fatalf("proc %d: %v names proc %d, want %d", proc, te, te.Peer, peer)
	}
}

// xPeriodicPair is the fault tests' decomposition: two 4³ blocks, one per
// process, periodic in x, so each rank exchanges both x faces with the
// other over the φ stream.
func xPeriodicPair(t *testing.T) (*grid.BlockGrid, grid.BoundarySet) {
	t.Helper()
	bg, err := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.AllNeumann()
	domain[grid.XMin] = grid.BC{Kind: grid.BCPeriodic}
	domain[grid.XMax] = grid.BC{Kind: grid.BCPeriodic}
	return bg, domain
}

// TestTCPBlockedRecvFailsOnPeerLoss lets proc 0 block in ExchangeGhosts,
// waiting for proc 1's halo, and then closes proc 1's transport. The lost
// link must wake proc 0's receive with a *TransportError naming proc 1
// within IOTimeout instead of leaving it blocked.
func TestTCPBlockedRecvFailsOnPeerLoss(t *testing.T) {
	bg, domain := xPeriodicPair(t)
	worlds := startTCPWorldsIO(t, bg, 2, faultIOTimeout)
	fields := [2]*grid.Field{
		grid.NewField(4, 4, 4, 1, 1, grid.SoA),
		grid.NewField(4, 4, 4, 1, 1, grid.SoA),
	}

	// One good round on both processes.
	var good [2]any
	var wg sync.WaitGroup
	for p, w := range worlds {
		wg.Add(1)
		go func(p int, w *World) {
			defer wg.Done()
			good[p] = exchangeOrPanic(w, p, fields[p], domain)
		}(p, w)
	}
	wg.Wait()
	for p, v := range good {
		if v != nil {
			t.Fatalf("proc %d: first round panicked: %v", p, v)
		}
	}

	// Proc 0 alone: it sends and then blocks receiving.
	done := make(chan any, 1)
	go func() { done <- exchangeOrPanic(worlds[0], 0, fields[0], domain) }()
	time.Sleep(100 * time.Millisecond)
	timeout := time.After(faultIOTimeout)
	worlds[1].Close()
	select {
	case v := <-done:
		checkFault(t, 0, v, 1)
	case <-timeout:
		t.Fatalf("proc 0 still blocked %v after proc 1 closed", faultIOTimeout)
	}
}

// TestTCPBrokenStreamFailsBothSides breaks the φ stream between two
// rounds, once from the dialer's end (proc 1) and once from the
// acceptor's (proc 0). Every round before the break must deliver exact
// ghosts; the round after must fail on both processes within IOTimeout,
// each with a *TransportError naming the other. No side may hang or
// complete the round.
func TestTCPBrokenStreamFailsBothSides(t *testing.T) {
	for _, tc := range []struct {
		name    string
		breaker int
	}{{"dialer", 1}, {"acceptor", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			bg, domain := xPeriodicPair(t)
			nx, ny, nz := bg.GlobalCells()
			periodic := bg.Periodic
			worlds := startTCPWorldsIO(t, bg, 2, faultIOTimeout)
			fields := [2]*grid.Field{
				grid.NewField(4, 4, 4, 1, 1, grid.SoA),
				grid.NewField(4, 4, 4, 1, 1, grid.SoA),
			}
			const breakAt = 3
			for round := 0; round <= breakAt; round++ {
				if round == breakAt {
					worlds[tc.breaker].tr.(*tcpTransport).breakStream(1 - tc.breaker)
				}
				off := float64(round * 1000000)
				var ended [2]any
				var wg sync.WaitGroup
				for p, w := range worlds {
					ox, oy, oz := bg.Origin(p)
					f := fields[p]
					f.Interior(func(x, y, z int) {
						f.Set(0, x, y, z, off+globalValue(0, ox+x, oy+y, oz+z, nx, ny, nz, periodic))
					})
					wg.Add(1)
					go func(p int, w *World) {
						defer wg.Done()
						ended[p] = exchangeOrPanic(w, p, fields[p], domain)
					}(p, w)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(faultIOTimeout):
					t.Fatalf("round %d: exchange still blocked after %v", round, faultIOTimeout)
				}

				if round == breakAt {
					for p, v := range ended {
						checkFault(t, p, v, 1-p)
					}
					return
				}
				for p, f := range fields {
					if ended[p] != nil {
						t.Fatalf("round %d proc %d: %v", round, p, ended[p])
					}
					ox, oy, oz := bg.Origin(p)
					for x := -1; x <= 4; x++ {
						want := off + globalValue(0, ox+x, oy, oz, nx, ny, nz, periodic)
						if got := f.At(0, x, 0, 0); got != want {
							t.Fatalf("round %d rank %d x=%d: got %v want %v", round, p, x, got, want)
						}
					}
				}
			}
		})
	}
}

// TestTCPCollectives exercises GlobalSum, GlobalMax and GatherBlocks
// across two processes.
func TestTCPCollectives(t *testing.T) {
	bg, err := grid.NewBlockGrid(2, 2, 1, 2, 2, 2, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	worlds := startTCPWorlds(t, bg, 2)

	// GlobalSum/GlobalMax: one driver call per process, one nonzero
	// contributor per slot.
	var wg sync.WaitGroup
	sums := make([][]float64, 2)
	maxs := make([][]float64, 2)
	gathers := make([][][]float64, 2)
	for p, w := range worlds {
		wg.Add(1)
		go func(p int, w *World) {
			defer wg.Done()
			v := make([]float64, bg.NumBlocks())
			for _, r := range w.LocalRanks() {
				v[r] = float64(100 + r)
			}
			w.GlobalSum(v)
			sums[p] = v

			m := make([]float64, 1)
			m[0] = float64(10 * (p + 1))
			w.GlobalMax(m)
			maxs[p] = m

			parts := make([][]float64, bg.NumBlocks())
			for _, r := range w.LocalRanks() {
				parts[r] = []float64{float64(r), float64(r * r)}
			}
			gathers[p] = w.GatherBlocks(parts)
		}(p, w)
	}
	wg.Wait()

	for p := 0; p < 2; p++ {
		for r := 0; r < bg.NumBlocks(); r++ {
			if sums[p][r] != float64(100+r) {
				t.Errorf("proc %d sum[%d] = %v, want %v", p, r, sums[p][r], 100+r)
			}
		}
		if maxs[p][0] != 20 {
			t.Errorf("proc %d max = %v, want 20", p, maxs[p][0])
		}
	}
	if gathers[1] != nil {
		t.Errorf("non-root gather returned %v, want nil", gathers[1])
	}
	for r := 0; r < bg.NumBlocks(); r++ {
		got := gathers[0][r]
		if len(got) != 2 || got[0] != float64(r) || got[1] != float64(r*r) {
			t.Errorf("root gather[%d] = %v", r, got)
		}
	}

	closeAll(worlds)
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestTCPOneConnectionPerPeer starts three processes and checks that each
// pair shares exactly one connection, dialed by the higher-index process:
// every transport holds P−1 = 2 streams, and the listeners accept 3
// connections in all (2 on proc 0, 1 on proc 1). Halo exchanges and
// collectives then run over those connections alone.
func TestTCPOneConnectionPerPeer(t *testing.T) {
	bg, err := grid.NewBlockGrid(2, 2, 1, 4, 3, 5, [3]bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	const nprocs = 3
	counters := make([]*countingListener, nprocs)
	listeners := make([]net.Listener, nprocs)
	for p := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		counters[p] = &countingListener{Listener: l}
		listeners[p] = counters[p]
	}
	worlds := startTCPWorldsOn(t, bg, listeners, 10*time.Second)

	for p, w := range worlds {
		conns := 0
		for _, s := range w.tr.(*tcpTransport).streams {
			if s != nil && s.conn != nil {
				conns++
			}
		}
		if conns != nprocs-1 {
			t.Errorf("proc %d holds %d connections, want %d", p, conns, nprocs-1)
		}
		if got, want := counters[p].accepted.Load(), int32(nprocs-1-p); got != want {
			t.Errorf("proc %d accepted %d connections, want %d", p, got, want)
		}
	}

	// Two φ rounds and one µ round, then a sum and a gather, on every
	// process at once.
	domain := grid.AllPeriodic()
	domain[grid.ZMin] = grid.BC{Kind: grid.BCNeumann}
	domain[grid.ZMax] = grid.BC{Kind: grid.BCNeumann}
	nx, ny, nz := bg.GlobalCells()
	sums := make([][]float64, nprocs)
	gathered := make([][][]float64, nprocs)
	fields := make([]*grid.Field, bg.NumBlocks())
	var wg sync.WaitGroup
	for p, w := range worlds {
		wg.Add(1)
		go func(p int, w *World) {
			defer wg.Done()
			var rg sync.WaitGroup
			for _, r := range w.LocalRanks() {
				f := grid.NewField(bg.BX, bg.BY, bg.BZ, 1, 1, grid.SoA)
				ox, oy, oz := bg.Origin(r)
				f.Interior(func(x, y, z int) {
					f.Set(0, x, y, z, globalValue(0, ox+x, oy+y, oz+z, nx, ny, nz, bg.Periodic))
				})
				fields[r] = f
				rg.Add(1)
				go func(r int) {
					defer rg.Done()
					bcs := w.BlockBCs(r, domain)
					w.ExchangeGhosts(r, f, TagPhi, bcs)
					w.ExchangeGhosts(r, f, TagMu, bcs)
					w.ExchangeGhosts(r, f, TagPhi, bcs)
				}(r)
			}
			rg.Wait()
			v := make([]float64, bg.NumBlocks())
			parts := make([][]float64, bg.NumBlocks())
			for _, r := range w.LocalRanks() {
				v[r] = float64(r + 1)
				parts[r] = []float64{float64(r), -1}
			}
			w.GlobalSum(v)
			sums[p] = v
			gathered[p] = w.GatherBlocks(parts)
		}(p, w)
	}
	wg.Wait()
	closeAll(worlds)

	for r, f := range fields {
		ox, oy, oz := bg.Origin(r)
		for x := -1; x <= bg.BX; x++ {
			want := globalValue(0, ox+x, oy, oz, nx, ny, nz, bg.Periodic)
			if got := f.At(0, x, 0, 0); got != want {
				t.Fatalf("rank %d x=%d: ghost %v, want %v", r, x, got, want)
			}
		}
	}
	for p := range worlds {
		for r := 0; r < bg.NumBlocks(); r++ {
			if sums[p][r] != float64(r+1) {
				t.Errorf("proc %d sum[%d] = %v, want %v", p, r, sums[p][r], r+1)
			}
		}
		if p != 0 && gathered[p] != nil {
			t.Errorf("proc %d gather returned %v, want nil", p, gathered[p])
		}
	}
	for r := 0; r < bg.NumBlocks(); r++ {
		if got := gathered[0][r]; len(got) != 2 || got[0] != float64(r) || got[1] != -1 {
			t.Errorf("root gather[%d] = %v", r, got)
		}
	}
}

// TestTCPRefusesSecondHello dials proc 0 again, as proc 1, once the mesh
// is up: the acceptor must refuse the hello, and the existing connection
// must keep working.
func TestTCPRefusesSecondHello(t *testing.T) {
	bg, _ := xPeriodicPair(t)
	worlds := startTCPWorlds(t, bg, 2)
	if c, _, err := worlds[1].tr.(*tcpTransport).dial(0); err == nil {
		c.Close()
		t.Fatal("a second hello from proc 1 was acknowledged")
	}

	sums := make([][]float64, 2)
	var wg sync.WaitGroup
	for p, w := range worlds {
		wg.Add(1)
		go func(p int, w *World) {
			defer wg.Done()
			v := []float64{0, 0}
			v[p] = float64(p + 1)
			w.GlobalSum(v)
			sums[p] = v
		}(p, w)
	}
	wg.Wait()
	closeAll(worlds)
	for p, v := range sums {
		if v[0] != 1 || v[1] != 2 {
			t.Errorf("proc %d sum after the refused hello = %v, want [1 2]", p, v)
		}
	}
}

// TestTCPBrokenStreamFailsCollective breaks the connection while proc 0 is
// blocked in a GlobalSum waiting for proc 1's contribution, once from each
// end; proc 1 then enters the sum. Both processes must give up within
// IOTimeout, each with a *TransportError naming the other.
func TestTCPBrokenStreamFailsCollective(t *testing.T) {
	for _, tc := range []struct {
		name    string
		breaker int
	}{{"dialer", 1}, {"acceptor", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			bg, _ := xPeriodicPair(t)
			worlds := startTCPWorldsIO(t, bg, 2, faultIOTimeout)
			ended := make(chan [2]any, 2)
			sum := func(p int) {
				defer func() { ended <- [2]any{p, recover()} }()
				worlds[p].GlobalSum([]float64{1, 2})
			}
			go sum(0)
			time.Sleep(100 * time.Millisecond)
			timeout := time.After(faultIOTimeout)
			worlds[tc.breaker].tr.(*tcpTransport).breakStream(1 - tc.breaker)
			go sum(1)
			for i := 0; i < 2; i++ {
				select {
				case e := <-ended:
					p := e[0].(int)
					checkFault(t, p, e[1], 1-p)
				case <-timeout:
					t.Fatalf("a process still in GlobalSum %v after the break", faultIOTimeout)
				}
			}
		})
	}
}

// TestTCPHandshakeRejectsMismatch verifies the connect handshake refuses a
// peer whose checkpoint version differs: the dialer must fail its
// DialTimeout instead of silently joining an incompatible grid.
func TestTCPHandshakeRejectsMismatch(t *testing.T) {
	bg, err := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, [3]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{l0.Addr().String(), l1.Addr().String()}

	var wg sync.WaitGroup
	var tr0 Transport
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Proc 0 accepts; version 3. A half-second window keeps the
		// failure path fast.
		tr0, _ = NewTCPTransport(TCPConfig{
			BG: bg, Proc: 0, Peers: peers, Listener: l0, CkptVersion: 3,
			DialTimeout: 500 * time.Millisecond,
		})
	}()
	_, err = NewTCPTransport(TCPConfig{
		BG: bg, Proc: 1, Peers: peers, Listener: l1, CkptVersion: 4,
		DialTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Error("ckpt version mismatch: dialer connected, want handshake rejection")
	}
	wg.Wait()
	if tr0 != nil {
		tr0.Close()
	}
}
