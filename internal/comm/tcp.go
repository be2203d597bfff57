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
// hot paths (which return no errors): a lost data or control stream, or a
// protocol violation. Once the mesh is up any data-stream failure is
// final: the transport records the first one, and from then on every
// remote Send and every Recv that finds no frame waiting — including a
// Recv already blocked — panics with that record. A lost link fails the
// run, which resumes from its last checkpoint, as an MPI job would.
// Callers that want to survive a lost peer recover it at a job boundary
// (the job daemon's panic isolation already does).
type TransportError struct {
	Peer int    // peer process index
	Op   string // "send", "recv", "reduce", "gather", "barrier", ...
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
	// Listener accepts inbound connections. Required for every process
	// that receives connections (the convention is higher-index processes
	// dial lower ones, and every non-root process dials the root's
	// control stream), so only the highest-index non-root process may
	// leave it nil.
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
	// RetryWindow is ignored. A dropped stream is never redialed: it fails
	// the transport at once (see TransportError).
	RetryWindow time.Duration
}

// helloFloats is the handshake payload length: px, py, pz, bx, by, bz,
// periodic bits, process count, ckpt version, and one reserved zero.
const helloFloats = 10

// tcpStream is one direction-agnostic data connection to a peer process
// for one tag: both directions of that (proc pair, tag) stream share the
// conn. The conn is installed once, during NewTCPTransport, and any
// failure on it is final.
type tcpStream struct {
	t      *tcpTransport
	peer   int
	tag    Tag
	dialer bool

	mu      sync.Mutex // serializes writes; guards conn installation
	conn    net.Conn
	br      *bufio.Reader
	sendSeq uint64 // next outgoing sequence number
	enc     []byte // encoded outgoing frame, reused
	recvSeq uint64 // next expected incoming sequence number (reader goroutine only)
	scratch []byte // payload byte scratch (reader goroutine only)
}

// ctrlConn is the control stream to one peer: collectives and barriers.
// Root holds one per peer; every other process holds one to the root.
// Control reads/writes happen synchronously inside the collective calls —
// no reader goroutine; a control failure is fatal.
type ctrlConn struct {
	mu      sync.Mutex
	c       net.Conn
	br      *bufio.Reader
	enc     []byte
	scratch []byte
}

// tcpTransport implements Transport over per-(peer, tag) TCP streams. It
// wraps the in-process channel fabric: frames between two local ranks take
// the channel fast path untouched, remote frames are encoded onto the
// stream to the receiving rank's owner, and the demultiplexer on the far
// side feeds them into the same mailboxes local sends use. Pack-buffer
// recycling survives the socket hop because pools are keyed by the sending
// stream: on the sender, Send returns the packed buffer straight back to
// the pool TakeBuf draws from; on the receiver, the demultiplexer draws
// from the pool that Release refills after unpacking.
type tcpTransport struct {
	lt        *localTransport
	cfg       TCPConfig
	nprocs    int
	maxFloats int
	streams   [][]*tcpStream // [peer][tag]; nil row for self
	ctrl      []*ctrlConn    // by peer; root fills all, others only [0]
	ctrlMu    sync.Mutex
	closed    atomic.Bool
	acceptWG  sync.WaitGroup
	readersWG sync.WaitGroup

	// fault is the transport's failure record: the first data-stream
	// failure that Close did not cause, set once by fail. down is closed
	// when it is set, which wakes every blocked Recv.
	failOnce sync.Once
	fault    *TransportError
	down     chan struct{}
}

// NewTCPTransport connects this process into the rank grid: it dials every
// lower-index peer (per tag, plus the root control stream), accepts
// connections from higher-index peers, verifies the topology/ckpt-version
// handshake on every stream, and returns once the full mesh is up. Pass
// the result to NewWorldTransport.
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
	acceptsData := cfg.Proc < nprocs-1
	acceptsCtrl := cfg.Proc == 0 && nprocs > 1
	if cfg.Listener == nil && (acceptsData || acceptsCtrl) {
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
		streams:   make([][]*tcpStream, nprocs),
		ctrl:      make([]*ctrlConn, nprocs),
		down:      make(chan struct{}),
	}
	for p := 0; p < nprocs; p++ {
		if p == cfg.Proc {
			continue
		}
		t.streams[p] = make([]*tcpStream, int(numTags))
		for tg := 0; tg < int(numTags); tg++ {
			t.streams[p][tg] = &tcpStream{t: t, peer: p, tag: Tag(tg), dialer: cfg.Proc > p}
		}
	}

	if cfg.Listener != nil {
		t.acceptWG.Add(1)
		go t.acceptLoop()
	}

	// Dial all streams we own the dialer side of, retrying while peers
	// come up.
	deadline := time.Now().Add(cfg.DialTimeout)
	for p := 0; p < cfg.Proc; p++ {
		for _, s := range t.streams[p] {
			c, br, err := t.dialUntil(p, byte(s.tag), deadline)
			if err != nil {
				t.Close()
				return nil, err
			}
			s.mu.Lock()
			s.conn, s.br = c, br
			s.mu.Unlock()
		}
	}
	if cfg.Proc != 0 {
		c, br, err := t.dialUntil(0, ctrlTag, deadline)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.ctrlMu.Lock()
		t.ctrl[0] = &ctrlConn{c: c, br: br}
		t.ctrlMu.Unlock()
	}
	if err := t.waitReady(deadline); err != nil {
		t.Close()
		return nil, err
	}

	for p := range t.streams {
		for _, s := range t.streams[p] {
			if s == nil {
				continue
			}
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

// Recv takes the next frame from the mailbox. A frame that arrived before
// the transport failed is still delivered; otherwise the failure wakes the
// receiver with a panic instead of leaving it blocked on a peer that is
// gone.
func (t *tcpTransport) Recv(to int, face grid.Face, tag Tag) []float64 {
	box := t.lt.box(to, face, tag)
	select {
	case buf := <-box:
		return buf
	case <-t.down:
	}
	select {
	case buf := <-box:
		return buf
	default:
		panic(t.fault)
	}
}

func (t *tcpTransport) Release(from, to int, face grid.Face, tag Tag, buf []float64) {
	t.lt.Release(from, to, face, tag, buf)
}

func (t *tcpTransport) Allocs() int64 { return t.lt.Allocs() }

// fail records the transport's fault, once, and wakes every blocked Recv.
// It returns the recorded fault, which names the first failure — not
// necessarily this one.
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
	s := t.streams[owner][int(tag)]
	s.send(&wireFrame{
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

// readLoop is the per-stream demultiplexer: it decodes inbound data frames
// and feeds them into the channel fabric's mailboxes until the stream
// fails. A failure that Close did not cause fails the transport; closing
// the conn tells the peer.
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
	if f.Kind != kindData || Tag(f.Tag) != s.tag {
		return fmt.Errorf("unexpected frame kind %d tag %d on data stream %v", f.Kind, f.Tag, s.tag)
	}
	if n == 0 {
		return fmt.Errorf("empty data frame on stream %v", s.tag)
	}
	if f.Seq != s.recvSeq {
		return fmt.Errorf("sequence %d on stream %v, want %d", f.Seq, s.tag, s.recvSeq)
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

// dialUntil dials the stream with tag (a data tag or ctrlTag) to peer,
// retrying refused connections and handshakes until the deadline (peers
// start at different times).
func (t *tcpTransport) dialUntil(peer int, tag byte, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	for {
		c, br, err := t.dial(peer, tag)
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
func (t *tcpTransport) dial(peer int, tag byte) (net.Conn, *bufio.Reader, error) {
	c, err := net.DialTimeout("tcp", t.cfg.Peers[peer], t.cfg.IOTimeout)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	hello := &wireFrame{
		Kind: kindHello, Tag: tag,
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

// handleConn validates an inbound hello and installs the conn on its
// stream (or as a peer's control stream). Mismatched topology or ckpt
// version refuses the connection.
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
	if err := t.checkHello(payload); err != nil {
		_ = c.Close()
		return
	}
	peer := int(f.From)
	if peer < 0 || peer >= t.nprocs || peer == t.cfg.Proc {
		_ = c.Close()
		return
	}

	if f.Tag == ctrlTag {
		t.ctrlMu.Lock()
		defer t.ctrlMu.Unlock()
		if t.ctrl[peer] != nil || t.closed.Load() || t.ack(c, ctrlTag, peer) != nil {
			_ = c.Close()
			return
		}
		t.ctrl[peer] = &ctrlConn{c: c, br: br}
		return
	}
	if int(f.Tag) >= int(numTags) {
		_ = c.Close()
		return
	}
	s := t.streams[peer][f.Tag]
	if s == nil || s.dialer {
		_ = c.Close()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil || t.closed.Load() || t.ack(c, f.Tag, peer) != nil {
		_ = c.Close()
		return
	}
	s.conn, s.br = c, br
}

// ack writes the acceptor's handshake reply: a helloAck whose one float
// is reserved zero. A stream is installed at most once, so the caller
// acks only a hello for a stream that has no conn yet.
func (t *tcpTransport) ack(c net.Conn, tag byte, peer int) error {
	f := &wireFrame{
		Kind: kindHelloAck, Tag: tag,
		From: int32(t.cfg.Proc), To: int32(peer),
		Payload: []float64{0},
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	_, err := c.Write(appendFrame(nil, f))
	return err
}

// waitReady blocks until every acceptor-side stream and expected inbound
// control stream is connected.
func (t *tcpTransport) waitReady(deadline time.Time) error {
	for {
		ready := true
		for p := range t.streams {
			for _, s := range t.streams[p] {
				if s == nil || s.dialer {
					continue
				}
				s.mu.Lock()
				up := s.conn != nil
				s.mu.Unlock()
				if !up {
					ready = false
				}
			}
		}
		if t.cfg.Proc == 0 {
			t.ctrlMu.Lock()
			for p := 1; p < t.nprocs; p++ {
				if t.ctrl[p] == nil {
					ready = false
				}
			}
			t.ctrlMu.Unlock()
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: tcp: peers did not connect within %v", t.cfg.DialTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ctrlPeer returns the control stream to a peer, panicking if it is gone.
func (t *tcpTransport) ctrlPeer(p int, op string) *ctrlConn {
	t.ctrlMu.Lock()
	cc := t.ctrl[p]
	t.ctrlMu.Unlock()
	if cc == nil {
		panic(&TransportError{Peer: p, Op: op, Err: fmt.Errorf("control stream not connected")})
	}
	return cc
}

func (t *tcpTransport) ctrlWrite(cc *ctrlConn, peer int, f *wireFrame) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.enc = appendFrame(cc.enc[:0], f)
	_ = cc.c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	if _, err := cc.c.Write(cc.enc); err != nil {
		panic(&TransportError{Peer: peer, Op: "ctrl write", Err: err})
	}
}

func (t *tcpTransport) ctrlRead(cc *ctrlConn, peer int, wantKind byte) *wireFrame {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_ = cc.c.SetReadDeadline(time.Time{})
	if _, err := cc.br.Peek(1); err != nil {
		panic(&TransportError{Peer: peer, Op: "ctrl read", Err: err})
	}
	_ = cc.c.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
	var f wireFrame
	n, err := readFrameHeader(cc.br, t.maxFloats, &f)
	if err != nil {
		panic(&TransportError{Peer: peer, Op: "ctrl read", Err: err})
	}
	if f.Kind != wantKind {
		panic(&TransportError{Peer: peer, Op: "ctrl read", Err: fmt.Errorf("frame kind %d, want %d", f.Kind, wantKind)})
	}
	f.Payload = make([]float64, n)
	if err := readFramePayload(cc.br, f.Payload, &cc.scratch); err != nil {
		panic(&TransportError{Peer: peer, Op: "ctrl read", Err: err})
	}
	_ = cc.c.SetReadDeadline(time.Time{})
	return &f
}

// Sum implements the cross-process elementwise sum: peers send their
// partial vector to the root, the root folds them in ascending process
// order and broadcasts the result. With one nonzero contributor per slot
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
			cc := t.ctrlPeer(p, "reduce")
			f := t.ctrlRead(cc, p, kindContrib)
			if len(f.Payload) != len(vals) {
				panic(&TransportError{Peer: p, Op: "reduce", Err: fmt.Errorf("contribution length %d, want %d", len(f.Payload), len(vals))})
			}
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
		res := &wireFrame{Kind: kindResult, Tag: ctrlTag, Payload: vals}
		for p := 1; p < t.nprocs; p++ {
			t.ctrlWrite(t.ctrlPeer(p, "reduce"), p, res)
		}
		return
	}
	cc := t.ctrlPeer(0, "reduce")
	t.ctrlWrite(cc, 0, &wireFrame{Kind: kindContrib, Tag: ctrlTag, From: int32(t.cfg.Proc), Payload: vals})
	f := t.ctrlRead(cc, 0, kindResult)
	if len(f.Payload) != len(vals) {
		panic(&TransportError{Peer: 0, Op: "reduce", Err: fmt.Errorf("result length %d, want %d", len(f.Payload), len(vals))})
	}
	copy(vals, f.Payload)
}

// Barrier blocks until every process has entered: peers signal the root,
// the root releases them once all have arrived.
func (t *tcpTransport) Barrier() {
	if t.nprocs == 1 {
		return
	}
	if t.cfg.Proc == 0 {
		for p := 1; p < t.nprocs; p++ {
			t.ctrlRead(t.ctrlPeer(p, "barrier"), p, kindBarrier)
		}
		bf := &wireFrame{Kind: kindBarrier, Tag: ctrlTag}
		for p := 1; p < t.nprocs; p++ {
			t.ctrlWrite(t.ctrlPeer(p, "barrier"), p, bf)
		}
		return
	}
	cc := t.ctrlPeer(0, "barrier")
	t.ctrlWrite(cc, 0, &wireFrame{Kind: kindBarrier, Tag: ctrlTag, From: int32(t.cfg.Proc)})
	t.ctrlRead(cc, 0, kindBarrier)
}

// Gather collects each process' local-rank payloads on the root, in global
// rank order per peer.
func (t *tcpTransport) Gather(parts [][]float64) [][]float64 {
	if t.nprocs == 1 {
		return parts
	}
	if t.cfg.Proc == 0 {
		for p := 1; p < t.nprocs; p++ {
			cc := t.ctrlPeer(p, "gather")
			for r := 0; r < t.lt.nRanks; r++ {
				if t.Owner(r) != p {
					continue
				}
				f := t.ctrlRead(cc, p, kindGather)
				if int(f.From) != r {
					panic(&TransportError{Peer: p, Op: "gather", Err: fmt.Errorf("rank %d payload, want %d", f.From, r)})
				}
				parts[r] = f.Payload
			}
		}
		return parts
	}
	cc := t.ctrlPeer(0, "gather")
	for r := 0; r < t.lt.nRanks; r++ {
		if t.Owner(r) != t.cfg.Proc {
			continue
		}
		t.ctrlWrite(cc, 0, &wireFrame{Kind: kindGather, Tag: ctrlTag, From: int32(r), Payload: parts[r]})
	}
	return nil
}

// Close tears the mesh down: the listener, every stream, every control
// conn. It must be the process' last collective act — after it, remote
// exchanges and collectives fail. Local (same-process) exchanges keep
// working, matching the in-process transport's post-Close behavior.
func (t *tcpTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	if t.cfg.Listener != nil {
		_ = t.cfg.Listener.Close()
	}
	for p := range t.streams {
		for _, s := range t.streams[p] {
			if s == nil {
				continue
			}
			s.mu.Lock()
			if s.conn != nil {
				_ = s.conn.Close()
			}
			s.mu.Unlock()
		}
	}
	t.ctrlMu.Lock()
	for _, cc := range t.ctrl {
		if cc != nil {
			_ = cc.c.Close()
		}
	}
	t.ctrlMu.Unlock()
	t.readersWG.Wait()
	if t.cfg.Listener != nil {
		t.acceptWG.Wait()
	}
	return nil
}

// breakStream hard-closes one data stream's connection — a test hook
// simulating a network fault. The readers on both ends then fail their
// transports.
func (t *tcpTransport) breakStream(peer int, tag Tag) {
	s := t.streams[peer][int(tag)]
	s.mu.Lock()
	_ = s.conn.Close()
	s.mu.Unlock()
}
