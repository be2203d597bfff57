package comm

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
)

// TransportError is the fatal fault the TCP transport panics with on its
// hot paths (which return no errors): a lost connection to a peer or a
// protocol violation. Once the mesh is up any failure is final: the
// transport records the first one, and from then on every remote Send,
// every collective and every Recv that finds no frame waiting — including
// one already blocked — panics with that record. A lost link fails the
// run, which resumes from its last checkpoint, as an MPI job would.
// Callers that want to survive a lost peer recover it at a job boundary:
// the World hands a panic of an overlapped exchange back to the rank that
// finishes it, and the solver's RunSchedule returns the record as an
// error.
type TransportError struct {
	Peer int    // peer process index
	Op   string // "send", "recv", "reduce" or "gather"
	Err  error
}

// Error implements the error interface.
func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: tcp %s with proc %d: %v", e.Op, e.Peer, e.Err)
}

// Unwrap returns the underlying fault.
func (e *TransportError) Unwrap() error { return e.Err }

// TCPConfig configures a TCP transport: one process of a rank grid that
// spans several OS processes (and machines).
type TCPConfig struct {
	// BG is the global block decomposition; it must be identical on every
	// process (the handshake verifies it).
	BG *grid.BlockGrid
	// Proc is this process' index in [0, len(Peers)).
	Proc int
	// Peers lists the listen addresses of all processes, indexed by
	// process; Peers[Proc] is not dialed. len(Peers) is the process count
	// and must not exceed BG.NumBlocks() (every process owns at least one
	// rank).
	Peers []string
	// Listener accepts inbound connections. Each pair of processes shares
	// one connection, which the higher-index process dials, so every
	// process but the highest-index one needs a listener.
	Listener net.Listener
	// CkptVersion is the checkpoint format version the job reads/writes;
	// the handshake rejects peers running a different one, so half a rank
	// grid cannot silently resume from an incompatible checkpoint.
	CkptVersion uint8
	// DialTimeout bounds initial connection establishment (peers may
	// start at different times). Default 30s.
	DialTimeout time.Duration
	// IOTimeout bounds individual frame writes and, once a frame has
	// started arriving, the remainder of its read. The first byte of a
	// frame may wait indefinitely — an idle peer is computing, not dead.
	// Default 30s.
	IOTimeout time.Duration
	// RetryWindow is ignored. A dropped connection is never redialed: it
	// fails the transport at once (see TransportError).
	RetryWindow time.Duration
}

// helloFloats is the handshake payload length: px, py, pz, bx, by, bz,
// periodic bits, process count, ckpt version, and one reserved zero.
const helloFloats = 10

// tcpStream is the one connection to a peer process. It carries φ and µ
// halo frames and control frames in both directions under one sequence
// per direction. The conn is installed once, during NewTCPTransport, and
// any failure on it is final.
type tcpStream struct {
	t    *tcpTransport
	peer int

	mu      sync.Mutex // serializes writes; guards conn installation
	conn    net.Conn
	br      *bufio.Reader
	sendSeq uint64 // next outgoing sequence number
	enc     []byte // encoded outgoing frame, reused
	recvSeq uint64 // next expected incoming sequence number (reader goroutine only)
	scratch []byte // payload byte scratch (reader goroutine only)

	// ctrl is the control inbox: the reader delivers contrib, result and
	// gather frames here, and Sum, Max and Gather read them.
	ctrl chan *wireFrame
}

// tcpTransport implements Transport over one TCP stream per peer process.
// It wraps the in-process channel fabric: frames between two local ranks
// take the channel fast path untouched, remote frames are encoded onto
// the stream to the receiving rank's owner, and that stream's reader on
// the far side feeds them into the same mailboxes local sends use. The
// per-(to, face, tag) mailboxes keep φ and µ rounds apart, so the tags
// can share the connection. Pack-buffer recycling survives the socket hop
// because pools are keyed by the sending rank's (face, tag): on the
// sender, Send returns the packed buffer straight back to the pool TakeBuf
// draws from; on the receiver, the reader draws from the pool that
// Release refills after unpacking.
type tcpTransport struct {
	lt        *localTransport
	cfg       TCPConfig
	nprocs    int
	maxFloats int
	streams   []*tcpStream // by peer; nil for self
	closed    atomic.Bool
	acceptWG  sync.WaitGroup
	readersWG sync.WaitGroup

	// fault is the transport's failure record: the first stream failure
	// that Close did not cause, set once by fail. down is closed when it
	// is set, which wakes every blocked Recv and collective.
	failOnce sync.Once
	fault    *TransportError
	down     chan struct{}
}

// NewTCPTransport connects this process into the rank grid: it dials one
// stream to every lower-index peer, accepts one from every higher-index
// peer, verifies the topology/ckpt-version handshake on each, and returns
// once all P−1 streams are up. Pass the result to NewWorldTransport.
func NewTCPTransport(cfg TCPConfig) (Transport, error) {
	if cfg.BG == nil {
		return nil, fmt.Errorf("comm: tcp: nil BlockGrid")
	}
	n := cfg.BG.NumBlocks()
	nprocs := len(cfg.Peers)
	if nprocs < 1 || nprocs > n {
		return nil, fmt.Errorf("comm: tcp: %d processes for %d ranks (need 1..%d)", nprocs, n, n)
	}
	if cfg.Proc < 0 || cfg.Proc >= nprocs {
		return nil, fmt.Errorf("comm: tcp: proc %d out of range [0,%d)", cfg.Proc, nprocs)
	}
	if cfg.Listener == nil && cfg.Proc < nprocs-1 {
		return nil, fmt.Errorf("comm: tcp: proc %d accepts connections but has no listener", cfg.Proc)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}

	t := &tcpTransport{
		lt:     newLocalTransport(n),
		cfg:    cfg,
		nprocs: nprocs,
		// Bound on any legitimate payload: a whole-rank gather (two
		// fields of every component) dwarfs a single halo slab.
		maxFloats: cfg.BG.BX*cfg.BG.BY*cfg.BG.BZ*64 + 4096,
		streams:   make([]*tcpStream, nprocs),
		down:      make(chan struct{}),
	}
	for p := range t.streams {
		if p == cfg.Proc {
			continue
		}
		// The control inbox holds one frame per rank the peer owns (at
		// least one); see readLoop.
		nctrl := 0
		for r := 0; r < n; r++ {
			if t.Owner(r) == p {
				nctrl++
			}
		}
		t.streams[p] = &tcpStream{t: t, peer: p, ctrl: make(chan *wireFrame, nctrl)}
	}

	if cfg.Listener != nil {
		t.acceptWG.Add(1)
		go t.acceptLoop()
	}

	// Dial every lower-index peer, retrying while peers come up.
	deadline := time.Now().Add(cfg.DialTimeout)
	for p := 0; p < cfg.Proc; p++ {
		c, br, err := t.dialUntil(p, deadline)
		if err != nil {
			t.Close()
			return nil, err
		}
		s := t.streams[p]
		s.mu.Lock()
		s.conn, s.br = c, br
		s.mu.Unlock()
	}
	if err := t.waitReady(deadline); err != nil {
		t.Close()
		return nil, err
	}

	for _, s := range t.streams {
		if s != nil {
			t.readersWG.Add(1)
			go t.readLoop(s)
		}
	}
	return t, nil
}

func (t *tcpTransport) Proc() int     { return t.cfg.Proc }
func (t *tcpTransport) NumProcs() int { return t.nprocs }

// Owner maps a global rank to its owning process: the balanced contiguous
// split floor(rank·P/N), identical on every process by construction.
func (t *tcpTransport) Owner(rank int) int { return rank * t.nprocs / t.lt.nRanks }

func (t *tcpTransport) TakeBuf(from int, sendFace grid.Face, tag Tag, n int) []float64 {
	return t.lt.TakeBuf(from, sendFace, tag, n)
}

// Recv takes the next frame from the mailbox (see await).
func (t *tcpTransport) Recv(to int, face grid.Face, tag Tag) []float64 {
	return await(t, t.lt.box(to, face, tag))
}

// await receives from ch. A value that arrived before the transport
// failed is still delivered; otherwise the failure wakes the receiver
// with a panic instead of leaving it blocked on a peer that is gone.
func await[T any](t *tcpTransport, ch chan T) T {
	select {
	case v := <-ch:
		return v
	case <-t.down:
	}
	select {
	case v := <-ch:
		return v
	default:
		panic(t.fault)
	}
}

func (t *tcpTransport) Release(from, to int, face grid.Face, tag Tag, buf []float64) {
	t.lt.Release(from, to, face, tag, buf)
}

func (t *tcpTransport) Allocs() int64 { return t.lt.Allocs() }

// fail records the transport's fault, once, and wakes every blocked Recv
// and collective. It returns the recorded fault, which names the first
// failure — not necessarily this one.
func (t *tcpTransport) fail(peer int, op string, err error) *TransportError {
	t.failOnce.Do(func() {
		t.fault = &TransportError{Peer: peer, Op: op, Err: err}
		close(t.down)
	})
	return t.fault
}

// Send delivers locally over the channel fabric, or encodes the frame onto
// the stream to the receiver's owner. A remotely sent pack buffer goes
// straight back into the local pool — its bytes are already on the wire —
// so the sender side allocates nothing in steady state.
func (t *tcpTransport) Send(from, to int, face grid.Face, tag Tag, buf []float64) {
	owner := t.Owner(to)
	if owner == t.cfg.Proc {
		t.lt.Send(from, to, face, tag, buf)
		return
	}
	t.streams[owner].send(&wireFrame{
		Kind: kindData, Tag: byte(tag), Face: byte(face),
		From: int32(from), To: int32(to), Payload: buf,
	})
	t.lt.Release(from, to, face, tag, buf)
}

// send encodes f and writes it within IOTimeout. It panics with the
// transport's fault once one is recorded, and any write error records
// one. After Close, sends are dropped.
func (s *tcpStream) send(f *wireFrame) {
	t := s.t
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.closed.Load() {
		return
	}
	select {
	case <-t.down:
		panic(t.fault)
	default:
	}
	f.Seq = s.sendSeq
	s.sendSeq++
	s.enc = appendFrame(s.enc[:0], f)
	_ = s.conn.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	if _, err := s.conn.Write(s.enc); err != nil && !t.closed.Load() {
		panic(t.fail(s.peer, "send", err))
	}
}

// readLoop is the per-peer demultiplexer: it decodes inbound frames and
// feeds data frames into the channel fabric's mailboxes and control frames
// into the stream's control inbox until the stream fails. A failure that
// Close did not cause fails the transport; closing the conn tells the
// peer.
//
// The reader never blocks on a full channel, so a frame of one kind never
// stalls a frame of another behind it. Each (to, face, tag) mailbox has
// room for 2 frames and never gets a third: a sender cannot start round
// k+2 of a tag before it has received the receiver's round k+1, which the
// receiver sends only after it has taken every frame of round k. The
// control inbox has room for as many frames as the peer sends before it
// waits for a reply: one contribution, or one gather frame per rank it
// owns; the root sends one reply and then waits for the next collective's
// frames.
func (t *tcpTransport) readLoop(s *tcpStream) {
	defer t.readersWG.Done()
	var f wireFrame
	for {
		if err := t.readOne(s, s.conn, s.br, &f); err != nil {
			_ = s.conn.Close()
			if !t.closed.Load() {
				t.fail(s.peer, "recv", err)
			}
			return
		}
	}
}

// readOne reads and dispatches one frame. The first byte may wait
// indefinitely (an idle peer is computing); once it arrives the rest of
// the frame must land within IOTimeout. Sequence numbers are dense: a gap
// or a repeat is a protocol violation. Every halo round carries at least
// one cell, so a zero-length data frame is a protocol violation too.
func (t *tcpTransport) readOne(s *tcpStream, c net.Conn, br *bufio.Reader, f *wireFrame) error {
	_ = c.SetReadDeadline(time.Time{})
	if _, err := br.Peek(1); err != nil {
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
	n, err := readFrameHeader(br, t.maxFloats, f)
	if err != nil {
		return err
	}
	if f.Seq != s.recvSeq {
		return fmt.Errorf("sequence %d from proc %d, want %d", f.Seq, s.peer, s.recvSeq)
	}
	if f.Tag == ctrlTag && (f.Kind == kindContrib || f.Kind == kindResult || f.Kind == kindGather) {
		cf := *f
		cf.Payload = make([]float64, n)
		if err := readFramePayload(br, cf.Payload, &s.scratch); err != nil {
			return err
		}
		s.recvSeq++
		_ = c.SetReadDeadline(time.Time{})
		s.ctrl <- &cf
		return nil
	}
	if f.Kind != kindData || int(f.Tag) >= int(numTags) {
		return fmt.Errorf("unexpected frame kind %d tag %d from proc %d", f.Kind, f.Tag, s.peer)
	}
	if n == 0 {
		return fmt.Errorf("empty data frame on tag %v", Tag(f.Tag))
	}
	to := int(f.To)
	face := grid.Face(f.Face)
	tag := Tag(f.Tag)
	if to < 0 || to >= t.lt.nRanks || t.Owner(to) != t.cfg.Proc || int(f.Face) >= int(grid.NumFaces) {
		return fmt.Errorf("misrouted frame to rank %d face %d", to, f.Face)
	}
	// Draw from the pool of the remote sender's (send face, tag) stream:
	// Release refills exactly that pool after unpacking.
	buf := t.lt.TakeBuf(int(f.From), face.Opposite(), tag, n)
	if err := readFramePayload(br, buf, &s.scratch); err != nil {
		return err
	}
	s.recvSeq++
	_ = c.SetReadDeadline(time.Time{})
	t.lt.Send(int(f.From), to, face, tag, buf)
	return nil
}

// helloPayload builds the handshake payload: the grid topology and
// checkpoint version, both of which must match the peer's exactly, and a
// reserved zero.
func (t *tcpTransport) helloPayload() []float64 {
	bg := t.cfg.BG
	var per float64
	for a := 0; a < 3; a++ {
		if bg.Periodic[a] {
			per += float64(int(1) << a)
		}
	}
	return []float64{
		float64(bg.PX), float64(bg.PY), float64(bg.PZ),
		float64(bg.BX), float64(bg.BY), float64(bg.BZ),
		per, float64(t.nprocs), float64(t.cfg.CkptVersion),
		0,
	}
}

// checkHello validates a peer's handshake payload against ours; the
// reserved last slot is not compared.
func (t *tcpTransport) checkHello(p []float64) error {
	if len(p) != helloFloats {
		return fmt.Errorf("hello payload %d floats, want %d", len(p), helloFloats)
	}
	want := t.helloPayload()
	for i := 0; i < helloFloats-1; i++ {
		if p[i] != want[i] {
			return fmt.Errorf("topology mismatch: hello field %d is %v, want %v", i, p[i], want[i])
		}
	}
	return nil
}

// dialUntil dials the stream to peer, retrying refused connections and
// handshakes until the deadline (peers start at different times).
func (t *tcpTransport) dialUntil(peer int, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	for {
		c, br, err := t.dial(peer)
		if err == nil {
			return c, br, nil
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("comm: tcp: connecting to proc %d (%s): %w", peer, t.cfg.Peers[peer], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dial connects to peer and runs the dialer side of the handshake: send
// hello, await the one-float helloAck. The acceptor closes the conn
// instead of acking a mismatched or duplicate hello.
func (t *tcpTransport) dial(peer int) (net.Conn, *bufio.Reader, error) {
	c, err := net.DialTimeout("tcp", t.cfg.Peers[peer], t.cfg.IOTimeout)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	hello := &wireFrame{
		Kind: kindHello, Tag: ctrlTag,
		From: int32(t.cfg.Proc), To: int32(peer),
		Payload: t.helloPayload(),
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	if _, err := c.Write(appendFrame(nil, hello)); err != nil {
		_ = c.Close()
		return nil, nil, err
	}
	_ = c.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
	var ack wireFrame
	n, err := readFrameHeader(br, t.maxFloats, &ack)
	if err == nil && (ack.Kind != kindHelloAck || n != 1) {
		err = fmt.Errorf("bad handshake reply (kind %d, %d floats)", ack.Kind, n)
	}
	if err == nil {
		_, err = br.Discard(8)
	}
	if err != nil {
		_ = c.Close()
		return nil, nil, err
	}
	_ = c.SetReadDeadline(time.Time{})
	return c, br, nil
}

// acceptLoop accepts inbound connections for the transport's lifetime.
func (t *tcpTransport) acceptLoop() {
	defer t.acceptWG.Done()
	for {
		c, err := t.cfg.Listener.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handleConn(c)
	}
}

// handleConn validates an inbound hello from a higher-index peer and
// installs the conn as that peer's stream. Mismatched topology or ckpt
// version, or a second hello from a peer already connected, refuses the
// connection.
func (t *tcpTransport) handleConn(c net.Conn) {
	br := bufio.NewReaderSize(c, 64<<10)
	_ = c.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
	var f wireFrame
	n, err := readFrameHeader(br, t.maxFloats, &f)
	if err != nil || f.Kind != kindHello || n != helloFloats {
		_ = c.Close()
		return
	}
	payload := make([]float64, n)
	var scratch []byte
	if err := readFramePayload(br, payload, &scratch); err != nil {
		_ = c.Close()
		return
	}
	_ = c.SetReadDeadline(time.Time{})
	peer := int(f.From)
	if t.checkHello(payload) != nil || peer <= t.cfg.Proc || peer >= t.nprocs {
		_ = c.Close()
		return
	}
	s := t.streams[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil || t.closed.Load() || t.ack(c, peer) != nil {
		_ = c.Close()
		return
	}
	s.conn, s.br = c, br
}

// ack writes the acceptor's handshake reply: a helloAck whose one float
// is reserved zero.
func (t *tcpTransport) ack(c net.Conn, peer int) error {
	f := &wireFrame{
		Kind: kindHelloAck, Tag: ctrlTag,
		From: int32(t.cfg.Proc), To: int32(peer),
		Payload: []float64{0},
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	_, err := c.Write(appendFrame(nil, f))
	return err
}

// waitReady blocks until every higher-index peer's stream is connected.
func (t *tcpTransport) waitReady(deadline time.Time) error {
	for p := t.cfg.Proc + 1; p < t.nprocs; {
		s := t.streams[p]
		s.mu.Lock()
		up := s.conn != nil
		s.mu.Unlock()
		if up {
			p++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: tcp: peers did not connect within %v", t.cfg.DialTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// recvCtrl takes the next control frame from peer's inbox and checks its
// kind and, when want ≥ 0, its payload length. A mismatch is a protocol
// violation, which fails the transport.
func (t *tcpTransport) recvCtrl(peer int, op string, kind byte, want int) *wireFrame {
	f := await(t, t.streams[peer].ctrl)
	if f.Kind != kind || (want >= 0 && len(f.Payload) != want) {
		panic(t.fail(peer, op, fmt.Errorf("control frame kind %d with %d floats, want kind %d", f.Kind, len(f.Payload), kind)))
	}
	return f
}

// release sends every peer the root's reply to a collective.
func (t *tcpTransport) release(payload []float64) {
	for p := 1; p < t.nprocs; p++ {
		t.streams[p].send(&wireFrame{Kind: kindResult, Tag: ctrlTag, Payload: payload})
	}
}

// Sum implements the cross-process elementwise sum: peers send their
// partial vector to the root, the root folds them in ascending process
// order and sends the result back. With one nonzero contributor per slot
// (the solver's per-rank vectors) the fold is bitwise-exact regardless of
// order, since x+0 == x in IEEE-754.
func (t *tcpTransport) Sum(vals []float64) { t.reduce(vals, false) }

// Max implements the cross-process elementwise maximum (same protocol as
// Sum).
func (t *tcpTransport) Max(vals []float64) { t.reduce(vals, true) }

func (t *tcpTransport) reduce(vals []float64, isMax bool) {
	if t.nprocs == 1 {
		return
	}
	if t.cfg.Proc == 0 {
		for p := 1; p < t.nprocs; p++ {
			f := t.recvCtrl(p, "reduce", kindContrib, len(vals))
			for i, v := range f.Payload {
				if isMax {
					if v > vals[i] {
						vals[i] = v
					}
				} else {
					vals[i] += v
				}
			}
		}
		t.release(vals)
		return
	}
	t.streams[0].send(&wireFrame{Kind: kindContrib, Tag: ctrlTag, From: int32(t.cfg.Proc), Payload: vals})
	copy(vals, t.recvCtrl(0, "reduce", kindResult, len(vals)).Payload)
}

// Gather collects each process' local-rank payloads on the root, in global
// rank order per peer. Each peer waits for the root's empty reply, so it
// never runs more than one gather ahead of the root.
func (t *tcpTransport) Gather(parts [][]float64) [][]float64 {
	if t.nprocs == 1 {
		return parts
	}
	if t.cfg.Proc == 0 {
		for r := range parts {
			if p := t.Owner(r); p != 0 {
				f := t.recvCtrl(p, "gather", kindGather, -1)
				if int(f.From) != r {
					panic(t.fail(p, "gather", fmt.Errorf("rank %d payload, want %d", f.From, r)))
				}
				parts[r] = f.Payload
			}
		}
		t.release(nil)
		return parts
	}
	for r := range parts {
		if t.Owner(r) == t.cfg.Proc {
			t.streams[0].send(&wireFrame{Kind: kindGather, Tag: ctrlTag, From: int32(r), Payload: parts[r]})
		}
	}
	t.recvCtrl(0, "gather", kindResult, 0)
	return nil
}

// Close tears the mesh down: the listener and every stream. It must be the
// process' last collective act — after it, remote exchanges and
// collectives fail. Local (same-process) exchanges keep working, matching
// the in-process transport's post-Close behavior.
func (t *tcpTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	if t.cfg.Listener != nil {
		_ = t.cfg.Listener.Close()
	}
	for _, s := range t.streams {
		if s == nil {
			continue
		}
		s.mu.Lock()
		if s.conn != nil {
			_ = s.conn.Close()
		}
		s.mu.Unlock()
	}
	t.readersWG.Wait()
	if t.cfg.Listener != nil {
		t.acceptWG.Wait()
	}
	return nil
}

// breakStream hard-closes the connection to peer — a test hook simulating
// a network fault. The readers on both ends then fail their transports.
func (t *tcpTransport) breakStream(peer int) {
	s := t.streams[peer]
	s.mu.Lock()
	_ = s.conn.Close()
	s.mu.Unlock()
}
