package comm

import (
	"bufio"
	"net"
	"sync"
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
	listeners := make([]net.Listener, nprocs)
	peers := make([]string, nprocs)
	for p := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[p] = l
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
				IOTimeout:   10 * time.Second,
				RetryWindow: 5 * time.Second,
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
	s := &tcpStream{t: tr, peer: 1, tag: TagPhi}
	s.cond = sync.NewCond(&s.mu)
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
}

// TestTCPReconnectReplay hard-kills the φ data stream twice mid-run — once
// from each side of the connection — and verifies the exchange rounds
// complete with every ghost still bit-correct: the reconnect handshake's
// sequence negotiation and ring replay must hide the fault entirely.
func TestTCPReconnectReplay(t *testing.T) {
	periodic := [3]bool{true, false, false}
	bg, err := grid.NewBlockGrid(2, 1, 1, 4, 4, 4, periodic)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny, nz := bg.GlobalCells()
	worlds := startTCPWorlds(t, bg, 2)

	domain := grid.AllNeumann()
	domain[grid.XMin] = grid.BC{Kind: grid.BCPeriodic}
	domain[grid.XMax] = grid.BC{Kind: grid.BCPeriodic}

	const rounds = 30
	fields := [2]*grid.Field{
		grid.NewField(4, 4, 4, 1, 1, grid.SoA),
		grid.NewField(4, 4, 4, 1, 1, grid.SoA),
	}
	for round := 0; round < rounds; round++ {
		switch round {
		case 10:
			// Dialer-side fault: proc 1 owns the dialer end.
			worlds[1].tr.(*tcpTransport).breakStream(0, TagPhi)
		case 20:
			// Acceptor-side fault: proc 0 owns the accepting end of the
			// same stream.
			worlds[0].tr.(*tcpTransport).breakStream(1, TagPhi)
		}
		off := float64(round * 1000000)
		var wg sync.WaitGroup
		for _, w := range worlds {
			for _, r := range w.LocalRanks() {
				ox, oy, oz := bg.Origin(r)
				f := fields[r]
				f.Interior(func(x, y, z int) {
					f.Set(0, x, y, z, off+globalValue(0, ox+x, oy+y, oz+z, nx, ny, nz, periodic))
				})
				wg.Add(1)
				go func(w *World, r int, f *grid.Field) {
					defer wg.Done()
					w.ExchangeGhosts(r, f, TagPhi, w.BlockBCs(r, domain))
				}(w, r, f)
			}
		}
		wg.Wait()
		for r, f := range fields {
			ox, oy, oz := bg.Origin(r)
			for x := -1; x <= 4; x++ {
				want := globalValue(0, ox+x, oy, oz, nx, ny, nz, periodic)
				if want < 0 {
					continue
				}
				if got := f.At(0, x, 0, 0); got != off+want {
					t.Fatalf("round %d rank %d x=%d: got %v want %v", round, r, x, got, off+want)
				}
			}
		}
	}

	// Both faults force the dialer (proc 1) to redial, so its transport
	// must have counted at least two reconnects; the acceptor side counts
	// its own, timing-dependent. Replay counts depend on how many frames
	// were in flight at the kill, so only non-negativity is guaranteed.
	rec1, rep1, ok := worlds[1].NetStats()
	if !ok {
		t.Fatal("tcp transport does not expose NetCounters")
	}
	if rec1 < 2 {
		t.Errorf("dialer reconnects = %d, want >= 2", rec1)
	}
	if rep1 < 0 {
		t.Errorf("negative replay count %d", rep1)
	}
	closeAll(worlds)
}

// TestTCPCollectives exercises Barrier, GlobalSum, GlobalMax, AllReduce
// and GatherBlocks across two processes.
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

	// AllReduce across all ranks of both processes: every local rank
	// participates.
	results := make([][]float64, bg.NumBlocks())
	for _, w := range worlds {
		for _, r := range w.LocalRanks() {
			wg.Add(1)
			go func(w *World, r int) {
				defer wg.Done()
				v := make([]float64, bg.NumBlocks())
				v[r] = float64(r + 1)
				w.AllReduceSum(r, v)
				results[r] = v
			}(w, r)
		}
	}
	wg.Wait()
	for r := 0; r < bg.NumBlocks(); r++ {
		for q := 0; q < bg.NumBlocks(); q++ {
			if results[r][q] != float64(q+1) {
				t.Errorf("allreduce on rank %d slot %d = %v, want %v", r, q, results[r][q], q+1)
			}
		}
	}
	closeAll(worlds)
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
