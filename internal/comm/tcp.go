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
// hot paths (which return no errors): a peer that stayed unreachable past
// the retry window, a control-stream failure, or a protocol violation.
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
	// RetryWindow bounds reconnect-and-retry after a connection drops;
	// past it the stream is declared dead and hot-path calls panic with a
	// *TransportError. Default 30s.
	RetryWindow time.Duration
}

// ringSize is how many sent frames each stream retains for replay after a
// reconnect. A gap wider than the ring (the peer lost more frames than we
// kept) is unrecoverable and kills the stream. The halo protocol keeps at
// most a handful of frames in flight per stream, so 64 is generous.
const ringSize = 64

// helloFloats is the handshake payload length: px, py, pz, bx, by, bz,
// periodic bits, process count, ckpt version, next expected recv seq.
const helloFloats = 10

// tcpStream is one direction-agnostic data connection to a peer process
// for one tag: both directions of that (proc pair, tag) stream share the
// conn. The dialer side (higher proc index) re-establishes dropped
// connections; the acceptor side waits for the dialer's reconnect.
type tcpStream struct {
	t      *tcpTransport
	peer   int
	tag    Tag
	dialer bool

	mu        sync.Mutex
	cond      *sync.Cond
	conn      net.Conn
	br        *bufio.Reader
	sendSeq   uint64           // next outgoing sequence number
	ring      [ringSize][]byte // encoded sent frames, slot seq%ringSize
	recvSeq   uint64           // next expected incoming sequence number
	downSince time.Time        // when the conn dropped (zero while up)
	dead      error            // non-nil: unrecoverable, hot paths panic
	closed    bool
	scratch   []byte // payload byte scratch (reader goroutine only)
}

// ctrlConn is the control stream to one peer: collectives and barriers.
// Root holds one per peer; every other process holds one to the root.
// Control reads/writes happen synchronously inside the collective calls —
// no reader goroutine, no reconnect (a control failure is fatal).
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

	// reconnects counts re-established data streams (a stream whose
	// downSince was set and later cleared); replayed counts frames resent
	// from the replay ring during those handshakes. Exposed through the
	// NetCounters interface.
	reconnects atomic.Int64
	replayed   atomic.Int64
}

// Reconnects returns how many broken per-(peer, tag) streams have been
// re-established since the transport came up.
func (t *tcpTransport) Reconnects() int64 { return t.reconnects.Load() }

// ReplayedFrames returns how many frames were retransmitted from replay
// rings during reconnect handshakes.
func (t *tcpTransport) ReplayedFrames() int64 { return t.replayed.Load() }

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
	if cfg.RetryWindow <= 0 {
		cfg.RetryWindow = 30 * time.Second
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
	}
	for p := 0; p < nprocs; p++ {
		if p == cfg.Proc {
			continue
		}
		t.streams[p] = make([]*tcpStream, int(numTags))
		for tg := 0; tg < int(numTags); tg++ {
			s := &tcpStream{t: t, peer: p, tag: Tag(tg), dialer: cfg.Proc > p}
			s.cond = sync.NewCond(&s.mu)
			t.streams[p][tg] = s
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
		for tg := 0; tg < int(numTags); tg++ {
			if err := t.dialUntil(t.streams[p][tg], deadline); err != nil {
				t.Close()
				return nil, err
			}
		}
	}
	if cfg.Proc != 0 {
		if err := t.dialCtrlUntil(deadline); err != nil {
			t.Close()
			return nil, err
		}
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

func (t *tcpTransport) Recv(to int, face grid.Face, tag Tag) []float64 {
	return t.lt.Recv(to, face, tag)
}

func (t *tcpTransport) Release(from, to int, face grid.Face, tag Tag, buf []float64) {
	t.lt.Release(from, to, face, tag, buf)
}

func (t *tcpTransport) Allocs() int64 { return t.lt.Allocs() }

// Send delivers locally over the channel fabric, or encodes the frame onto
// the stream to the receiver's owner. A remotely sent pack buffer goes
// straight back into the local pool — its bytes now live in the stream's
// replay ring — so the sender side allocates nothing in steady state.
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

// send encodes f into the stream's replay ring and writes it, waiting out
// a reconnect (or performing none of its own: the reader goroutine owns
// redialing) and retrying after transient write failures.
func (s *tcpStream) send(f *wireFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.Seq = s.sendSeq
	slot := &s.ring[s.sendSeq%ringSize]
	*slot = appendFrame((*slot)[:0], f)
	s.sendSeq++
	for {
		if s.closed {
			return
		}
		if s.dead != nil {
			panic(&TransportError{Peer: s.peer, Op: "send", Err: s.dead})
		}
		if s.conn == nil {
			s.waitUpLocked()
			continue
		}
		c := s.conn
		_ = c.SetWriteDeadline(time.Now().Add(s.t.cfg.IOTimeout))
		if _, err := c.Write(*slot); err == nil {
			return
		} else {
			s.dropLocked(c, err)
		}
	}
}

// dropLocked records that c failed: if it is still the live conn the
// stream goes down (starting the retry window); either way c is closed,
// which wakes any goroutine blocked on it.
func (s *tcpStream) dropLocked(c net.Conn, err error) {
	if s.conn == c {
		s.conn, s.br = nil, nil
		if s.downSince.IsZero() {
			s.downSince = time.Now()
		}
	}
	_ = c.Close()
	_ = err
	s.cond.Broadcast()
}

// waitUpLocked blocks until the stream has a live conn again, is closed,
// or the retry window expires (marking the stream dead).
func (s *tcpStream) waitUpLocked() {
	for s.conn == nil && s.dead == nil && !s.closed {
		remaining := s.t.cfg.RetryWindow - time.Since(s.downSince)
		if remaining <= 0 {
			s.dead = fmt.Errorf("peer unreachable for %v", s.t.cfg.RetryWindow)
			s.cond.Broadcast()
			return
		}
		tm := time.AfterFunc(remaining, s.cond.Broadcast)
		s.cond.Wait()
		tm.Stop()
	}
}

// readLoop is the per-stream demultiplexer: it decodes inbound data frames
// and feeds them into the channel fabric's mailboxes, reconnecting (dialer
// side) or awaiting the peer's reconnect (acceptor side) after failures.
func (t *tcpTransport) readLoop(s *tcpStream) {
	defer t.readersWG.Done()
	var f wireFrame
	for {
		c, br := s.ensureConn()
		if c == nil {
			return // closed or dead
		}
		if err := t.readOne(s, c, br, &f); err != nil {
			s.mu.Lock()
			s.dropLocked(c, err)
			s.mu.Unlock()
		}
	}
}

// ensureConn returns the live conn, redialing on the dialer side and
// waiting for the accept loop on the acceptor side. Returns nil when the
// stream is closed or dead.
func (s *tcpStream) ensureConn() (net.Conn, *bufio.Reader) {
	s.mu.Lock()
	for {
		if s.closed || s.dead != nil {
			s.mu.Unlock()
			return nil, nil
		}
		if s.conn != nil {
			c, br := s.conn, s.br
			s.mu.Unlock()
			return c, br
		}
		if !s.dialer {
			s.waitUpLocked()
			continue
		}
		if time.Since(s.downSince) > s.t.cfg.RetryWindow {
			s.dead = fmt.Errorf("peer unreachable for %v", s.t.cfg.RetryWindow)
			s.cond.Broadcast()
			s.mu.Unlock()
			return nil, nil
		}
		s.mu.Unlock()
		if err := s.t.dialStream(s); err != nil {
			time.Sleep(50 * time.Millisecond)
		}
		s.mu.Lock()
	}
}

// readOne reads and dispatches one frame. The first byte may wait
// indefinitely (an idle peer is computing); once it arrives the rest of
// the frame must land within IOTimeout. Replayed duplicates (seq below the
// next expected) are discarded; a gap means the peer could not replay far
// enough back and is unrecoverable. Every halo round carries at least one
// cell, so a zero-length data frame is a protocol violation.
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
	s.mu.Lock()
	expect := s.recvSeq
	s.mu.Unlock()
	if f.Seq < expect {
		_, err := br.Discard(n * 8)
		return err
	}
	if f.Seq > expect {
		return fmt.Errorf("sequence gap: got %d want %d", f.Seq, expect)
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
	s.mu.Lock()
	s.recvSeq = f.Seq + 1
	s.mu.Unlock()
	_ = c.SetReadDeadline(time.Time{})
	t.lt.Send(int(f.From), to, face, tag, buf)
	return nil
}

// helloPayload builds the handshake payload: the grid topology and
// checkpoint version (both must match the peer's exactly) plus the next
// sequence number we expect to receive, which tells a reconnecting peer
// where to start replaying.
func (t *tcpTransport) helloPayload(nextRecv uint64) []float64 {
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
		float64(nextRecv),
	}
}

// checkHello validates a peer's handshake payload against ours.
func (t *tcpTransport) checkHello(p []float64) error {
	if len(p) != helloFloats {
		return fmt.Errorf("hello payload %d floats, want %d", len(p), helloFloats)
	}
	want := t.helloPayload(0)
	for i := 0; i < helloFloats-1; i++ {
		if p[i] != want[i] {
			return fmt.Errorf("topology mismatch: hello field %d is %v, want %v", i, p[i], want[i])
		}
	}
	return nil
}

// dialUntil dials a stream's peer, retrying refused connections until the
// deadline (peers start at different times).
func (t *tcpTransport) dialUntil(s *tcpStream, deadline time.Time) error {
	for {
		err := t.dialStream(s)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: tcp: connecting to proc %d (%s): %w", s.peer, t.cfg.Peers[s.peer], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dialStream establishes (or re-establishes) a dialer-side stream: dial,
// hello/helloAck exchange, replay of frames the peer missed, install.
func (t *tcpTransport) dialStream(s *tcpStream) error {
	c, err := net.DialTimeout("tcp", t.cfg.Peers[s.peer], t.cfg.IOTimeout)
	if err != nil {
		return err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	s.mu.Lock()
	myNext := s.recvSeq
	s.mu.Unlock()
	hello := &wireFrame{
		Kind: kindHello, Tag: byte(s.tag),
		From: int32(t.cfg.Proc), To: int32(s.peer),
		Payload: t.helloPayload(myNext),
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	if _, err := c.Write(appendFrame(nil, hello)); err != nil {
		_ = c.Close()
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
	var ack wireFrame
	n, err := readFrameHeader(br, t.maxFloats, &ack)
	if err != nil {
		_ = c.Close()
		return err
	}
	if ack.Kind != kindHelloAck || n != 1 {
		_ = c.Close()
		return fmt.Errorf("bad handshake reply (kind %d)", ack.Kind)
	}
	var scratch []byte
	pay := make([]float64, 1)
	if err := readFramePayload(br, pay, &scratch); err != nil {
		_ = c.Close()
		return err
	}
	_ = c.SetReadDeadline(time.Time{})
	peerNext := uint64(pay[0])

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.dead != nil {
		_ = c.Close()
		return nil
	}
	if err := s.replayLocked(c, peerNext); err != nil {
		_ = c.Close()
		return err
	}
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.conn, s.br = c, br
	if !s.downSince.IsZero() {
		s.t.reconnects.Add(1)
	}
	s.downSince = time.Time{}
	s.cond.Broadcast()
	return nil
}

// replayLocked resends the ring frames the peer has not received. A gap
// wider than the ring is unrecoverable: the stream is marked dead.
func (s *tcpStream) replayLocked(c net.Conn, peerNext uint64) error {
	if peerNext > s.sendSeq {
		return fmt.Errorf("peer expects seq %d beyond our %d", peerNext, s.sendSeq)
	}
	if s.sendSeq-peerNext > ringSize {
		s.dead = fmt.Errorf("peer lost %d frames, replay ring holds %d", s.sendSeq-peerNext, ringSize)
		s.cond.Broadcast()
		return s.dead
	}
	for q := peerNext; q < s.sendSeq; q++ {
		_ = c.SetWriteDeadline(time.Now().Add(s.t.cfg.IOTimeout))
		if _, err := c.Write(s.ring[q%ringSize]); err != nil {
			return err
		}
		s.t.replayed.Add(1)
	}
	return nil
}

// acceptLoop accepts inbound connections for the transport's lifetime:
// initial stream establishment and dialer-side reconnects both land here.
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
	peerNext := uint64(payload[helloFloats-1])

	if f.Tag == ctrlTag {
		ack := &wireFrame{Kind: kindHelloAck, Tag: ctrlTag, From: int32(t.cfg.Proc), To: f.From, Payload: []float64{0}}
		_ = c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
		if _, err := c.Write(appendFrame(nil, ack)); err != nil {
			_ = c.Close()
			return
		}
		t.ctrlMu.Lock()
		t.ctrl[peer] = &ctrlConn{c: c, br: br}
		t.ctrlMu.Unlock()
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
	s.acceptConn(c, br, peerNext)
}

// acceptConn completes the acceptor side of a handshake: ack with our next
// expected seq, replay what the peer missed, install the conn.
func (s *tcpStream) acceptConn(c net.Conn, br *bufio.Reader, peerNext uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.dead != nil {
		_ = c.Close()
		return
	}
	ack := &wireFrame{
		Kind: kindHelloAck, Tag: byte(s.tag),
		From: int32(s.t.cfg.Proc), To: int32(s.peer),
		Payload: []float64{float64(s.recvSeq)},
	}
	_ = c.SetWriteDeadline(time.Now().Add(s.t.cfg.IOTimeout))
	if _, err := c.Write(appendFrame(nil, ack)); err != nil {
		_ = c.Close()
		return
	}
	if err := s.replayLocked(c, peerNext); err != nil {
		_ = c.Close()
		return
	}
	if s.conn != nil {
		_ = s.conn.Close() // wakes the reader off the stale conn
	}
	s.conn, s.br = c, br
	if !s.downSince.IsZero() {
		s.t.reconnects.Add(1)
	}
	s.downSince = time.Time{}
	s.cond.Broadcast()
}

// dialCtrlUntil establishes the control stream to the root.
func (t *tcpTransport) dialCtrlUntil(deadline time.Time) error {
	for {
		err := t.dialCtrl()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("comm: tcp: control stream to proc 0 (%s): %w", t.cfg.Peers[0], err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (t *tcpTransport) dialCtrl() error {
	c, err := net.DialTimeout("tcp", t.cfg.Peers[0], t.cfg.IOTimeout)
	if err != nil {
		return err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	hello := &wireFrame{
		Kind: kindHello, Tag: ctrlTag,
		From: int32(t.cfg.Proc), To: 0,
		Payload: t.helloPayload(0),
	}
	_ = c.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	if _, err := c.Write(appendFrame(nil, hello)); err != nil {
		_ = c.Close()
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
	var ack wireFrame
	n, err := readFrameHeader(br, t.maxFloats, &ack)
	if err != nil {
		_ = c.Close()
		return err
	}
	if ack.Kind != kindHelloAck {
		_ = c.Close()
		return fmt.Errorf("bad control handshake reply (kind %d)", ack.Kind)
	}
	if _, err := br.Discard(n * 8); err != nil {
		_ = c.Close()
		return err
	}
	_ = c.SetReadDeadline(time.Time{})
	t.ctrlMu.Lock()
	t.ctrl[0] = &ctrlConn{c: c, br: br}
	t.ctrlMu.Unlock()
	return nil
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
			s.closed = true
			if s.conn != nil {
				_ = s.conn.Close()
				s.conn, s.br = nil, nil
			}
			s.cond.Broadcast()
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

// breakStream hard-closes the live connection of one data stream without
// marking it down — a test hook simulating a network fault. The next read
// or write on the stream fails and triggers reconnect-and-replay.
func (t *tcpTransport) breakStream(peer int, tag Tag) {
	s := t.streams[peer][int(tag)]
	s.mu.Lock()
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.mu.Unlock()
}
