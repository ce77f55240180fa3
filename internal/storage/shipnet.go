package storage

// This file pushes the log-shipping seam over a socket: a ShipServer
// serves one TailSource to any number of remote followers over plain
// net.Conn transports, and a RemoteTailSource satisfies the full
// TailSource contract on the client side — so ltree.OpenFollower works
// unchanged against a remote leader, and the follower==leader
// differential property test runs verbatim over net.Pipe.
//
// Wire format: every message is one frame built by frameRecord — the
// exact CRC-32C framing WAL segments use (length u32 LE, crc u32 LE,
// kind u64 LE, payload), with the sequence-number slot carrying the
// frame kind instead. A torn or corrupt frame is a connection error
// (the transport has no "longest durable prefix" to fall back to; the
// client redials and resumes from its applied position).
//
// Exchanges are request/response over a single connection, serialized
// client-side; the server additionally pushes frameNotify (durability
// broadcast: seq) and frameClosed (leader WAL closed) at any point.
// Lease traffic (frameRetain/Advance/Release) is fire-and-forget:
// per-connection write ordering guarantees a registration written
// before a read request is processed before it, which preserves
// TailLatest's register-then-read bootstrap invariant over the wire.
//
// Reconnection: every client exchange redials with exponential backoff
// (bounded by RemoteOptions) and re-registers live leases at their
// current floors before re-issuing the request from the same resume
// point. If the leader truncated past the resume point during the
// outage (the re-registered lease came too late), the replay reports
// the gap as ErrCorruptWAL — loud, terminal, re-seed the follower.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// wireProto is the protocol version exchanged in the hello handshake; a
// peer speaking any other version is refused.
const wireProto = 2

// Frame kinds. Client→server: hello, latest, replay, lease ops.
// Server→client: helloOK, latestOK, err, rec, replayEnd, notify, closed.
const (
	frameHello uint64 = iota + 1
	frameLatest
	frameReplay
	frameRetain
	frameAdvance
	frameRelease
	frameHelloOK
	frameLatestOK
	frameErr
	frameRec
	frameReplayEnd
	frameNotify
	frameClosed
)

// frameErr codes, mapped back to the sentinel errors the in-process
// TailSource surface returns.
const (
	ecNoVersion uint64 = iota + 1
	ecCorrupt
	ecClosed
	ecOther
)

// wirePageMax bounds one server-side replay page; wirePage is what the
// client asks for per request (matching the Tailer's fill window, so a
// fill normally consumes exactly one page).
const (
	wirePageMax = 1024
	wirePage    = fillWindow
)

// errPageFull bounds one server replay sweep (same trick as errFillFull).
var errPageFull = errors.New("storage: shipnet: page full")

// errTransport marks a retryable transport failure inside an exchange:
// the client redials and repeats the request from its resume point.
var errTransport = errors.New("storage: shipnet: transport error")

// ErrRemoteReadOnly reports a write on a RemoteTailSource: followers
// only read; writes belong to the leader.
var ErrRemoteReadOnly = errors.New("storage: remote tail source is read-only (writes belong to the leader)")

// wireFrame is one decoded frame: its kind, the uvarint fields the kind
// leads with (wireFields), and the raw rest of the payload — a snapshot,
// a record payload or an error message.
type wireFrame struct {
	kind uint64
	f    [3]uint64
	rest []byte
}

// wireFields is how many uvarint fields each frame kind leads with.
var wireFields = [...]int{
	frameHello: 1, frameLatest: 0, frameReplay: 2, frameRetain: 2,
	frameAdvance: 2, frameRelease: 1,
	frameHelloOK: 2, frameLatestOK: 1, frameErr: 1, frameRec: 1,
	frameReplayEnd: 1, frameNotify: 1, frameClosed: 0,
}

// readWireFrame reads, verifies and decodes one frame. Any malformation —
// torn, oversized, a CRC mismatch, an unknown kind, a payload too short
// for its kind's fields — is a connection error: there is no durable
// prefix to trust on a stream.
func readWireFrame(r io.Reader) (wireFrame, error) {
	var head [recordHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return wireFrame{}, err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	crc := binary.LittleEndian.Uint32(head[4:8])
	fr := wireFrame{kind: binary.LittleEndian.Uint64(head[8:16])}
	if length > maxRecord {
		return fr, fmt.Errorf("storage: shipnet: frame claims %d bytes", length)
	}
	payload, err := readPayload(r, int(length))
	if err != nil {
		return fr, err
	}
	if crc32.Update(crc32.Checksum(head[8:16], crcTable), crcTable, payload) != crc {
		return fr, errors.New("storage: shipnet: frame CRC mismatch")
	}
	if fr.kind == 0 || fr.kind >= uint64(len(wireFields)) {
		return fr, fmt.Errorf("storage: shipnet: unknown frame kind %d", fr.kind)
	}
	d := dec{b: payload}
	for i := range wireFields[fr.kind] {
		fr.f[i] = d.uvarint()
	}
	if d.err != nil {
		return fr, fmt.Errorf("storage: shipnet: malformed frame %d: %v", fr.kind, d.err)
	}
	fr.rest = d.b
	return fr, nil
}

// decodeErrFrame maps a frameErr back to the sentinel the server-side
// call returned.
func decodeErrFrame(fr wireFrame) error {
	msg := string(fr.rest)
	switch fr.f[0] {
	case ecNoVersion:
		return fmt.Errorf("%w (remote: %s)", ErrNoVersion, msg)
	case ecCorrupt:
		return fmt.Errorf("%w (remote: %s)", ErrCorruptWAL, msg)
	case ecClosed:
		return fmt.Errorf("%w (remote: %s)", ErrSourceClosed, msg)
	}
	return fmt.Errorf("storage: shipnet: remote error: %s", msg)
}

// ------------------------------------------------------------- server

// ShipServer serves one TailSource to remote followers. Serve runs an
// accept loop over a listener; ServeConn serves a single transport
// (net.Pipe in tests). Every connection gets catch-up + live-tail
// replay, lease registration (released on disconnect, so a vanished
// client can never hold back truncation forever), durability pushes,
// and a frameClosed push when the leader's WAL closes.
type ShipServer struct {
	src TailSource

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewShipServer wraps a WAL backend for remote shipping. It fails if
// the backend lacks the tail capability set (the built-in WAL has it).
func NewShipServer(w WALBackend) (*ShipServer, error) {
	src, ok := w.(TailSource)
	if !ok {
		return nil, fmt.Errorf("storage: %T cannot be served remotely (needs Seq/AppendWatch/Retain; the built-in WAL backend has them)", w)
	}
	return &ShipServer{
		src:   src,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts and serves connections until the listener fails or the
// server is closed. It returns nil on Close, the accept error otherwise.
func (s *ShipServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("storage: shipnet: server is closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn serves one transport until it fails or the server closes;
// it blocks, owns conn, and releases every lease the connection
// registered on the way out.
func (s *ShipServer) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	h := &shipConn{src: s.src, conn: conn, leases: make(map[uint64]Lease)}
	h.serve()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the accept loops, severs every connection (releasing
// their leases) and waits for Serve-spawned handlers to drain.
func (s *ShipServer) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// shipConn is one served connection: a handler goroutine processes
// requests sequentially; a notifier goroutine pushes durability
// broadcasts. Writes from both are serialized by wm.
type shipConn struct {
	src    TailSource
	conn   net.Conn
	br     *bufio.Reader
	wm     sync.Mutex
	leases map[uint64]Lease // handler-goroutine only
	cur    TailPos          // per-conn byte cursor (posReplayer sources)
	done   chan struct{}
}

func (h *shipConn) write(kind uint64, payload []byte) error {
	h.wm.Lock()
	defer h.wm.Unlock()
	_, err := h.conn.Write(frameRecord(kind, payload))
	return err
}

func (h *shipConn) writeErr(code uint64, msg string) error {
	p := make([]byte, 0, len(msg)+binary.MaxVarintLen64)
	p = binary.AppendUvarint(p, code)
	p = append(p, msg...)
	return h.write(frameErr, p)
}

// writeCallErr reports a server-side call failure to the client, mapped
// to the sentinel codes. The connection stays up — the error belongs to
// the request, not the transport.
func (h *shipConn) writeCallErr(err error) error {
	code := ecOther
	switch {
	case errors.Is(err, ErrNoVersion):
		code = ecNoVersion
	case errors.Is(err, ErrCorruptWAL):
		code = ecCorrupt
	case errors.Is(err, ErrSourceClosed):
		code = ecClosed
	}
	return h.writeErr(code, err.Error())
}

func (h *shipConn) serve() {
	defer h.conn.Close()
	defer func() {
		for _, l := range h.leases {
			l.Release()
		}
	}()
	h.br = bufio.NewReader(h.conn)
	h.done = make(chan struct{})
	defer close(h.done)

	// Handshake before anything is served.
	fr, err := readWireFrame(h.br)
	if err != nil || fr.kind != frameHello {
		return
	}
	if proto := fr.f[0]; proto != wireProto {
		h.writeErr(ecOther, fmt.Sprintf("unsupported protocol %d (want %d)", proto, wireProto))
		return
	}
	var hello []byte
	hello = binary.AppendUvarint(hello, wireProto)
	hello = binary.AppendUvarint(hello, h.src.Seq())
	if h.write(frameHelloOK, hello) != nil {
		return
	}

	go h.notify()

	for {
		fr, err := readWireFrame(h.br)
		if err != nil {
			return
		}
		if h.handle(fr) != nil {
			return
		}
	}
}

// notify pushes seq whenever the source's durability broadcast fires,
// and frameClosed once the source is closed for good.
func (h *shipConn) notify() {
	var lastSeq uint64
	sent := false
	for {
		// The watch is grabbed BEFORE reading the state it covers —
		// the standard lost-wakeup ordering.
		ch := h.src.AppendWatch()
		if ch == nil {
			h.write(frameClosed, nil)
			return
		}
		if seq := h.src.Seq(); !sent || seq != lastSeq {
			if h.write(frameNotify, binary.AppendUvarint(nil, seq)) != nil {
				return
			}
			lastSeq, sent = seq, true
		}
		select {
		case <-ch:
		case <-h.done:
			return
		}
	}
}

// handle processes one request frame. A returned error drops the
// connection (protocol violation or dead transport); request-level
// failures are reported in-band via frameErr.
func (h *shipConn) handle(fr wireFrame) error {
	switch fr.kind {
	case frameLatest:
		v, snap, err := h.src.Latest()
		if err != nil {
			return h.writeCallErr(err)
		}
		p := make([]byte, 0, len(snap)+binary.MaxVarintLen64)
		p = binary.AppendUvarint(p, v)
		p = append(p, snap...)
		return h.write(frameLatestOK, p)
	case frameReplay:
		return h.replay(fr.f[0], int(fr.f[1]))
	case frameRetain:
		id, seq := fr.f[0], fr.f[1]
		if old, ok := h.leases[id]; ok {
			old.Release()
		}
		h.leases[id] = h.src.Retain(seq)
		return nil
	case frameAdvance:
		if l, ok := h.leases[fr.f[0]]; ok {
			l.Advance(fr.f[1])
		}
		return nil
	case frameRelease:
		if l, ok := h.leases[fr.f[0]]; ok {
			l.Release()
			delete(h.leases, fr.f[0])
		}
		return nil
	default:
		return fmt.Errorf("storage: shipnet: unexpected frame kind %d", fr.kind)
	}
}

// replay serves one page: up to max records after since, then a
// frameReplayEnd carrying the post-scan source seq.
// The page is collected before any frame is written, so no WAL
// internals are held while blocked on a slow client.
func (h *shipConn) replay(since uint64, max int) error {
	if max <= 0 || max > wirePageMax {
		max = wirePageMax
	}
	var page []shipRec
	collect := func(seq uint64, payload []byte) error {
		if len(page) >= max {
			return errPageFull
		}
		page = append(page, shipRec{seq: seq, payload: append([]byte(nil), payload...)})
		return nil
	}
	var err error
	if pr, ok := h.src.(posReplayer); ok {
		// Byte-accurate resume when the client continues where the last
		// page ended (ReplayFromPos never re-covers a delivered record,
		// so cur.Seq is exactly the last shipped seq).
		if h.cur.Seq != since {
			h.cur = TailPos{Seq: since}
		}
		h.cur, err = pr.ReplayFromPos(h.cur, collect)
	} else {
		err = h.src.ReplaySince(since, collect)
	}
	if err != nil && !errors.Is(err, errPageFull) {
		return h.writeCallErr(err)
	}
	srcSeq := h.src.Seq()
	for _, rec := range page {
		p := make([]byte, 0, len(rec.payload)+binary.MaxVarintLen64)
		p = binary.AppendUvarint(p, rec.seq)
		p = append(p, rec.payload...)
		if werr := h.write(frameRec, p); werr != nil {
			return werr
		}
	}
	return h.write(frameReplayEnd, binary.AppendUvarint(nil, srcSeq))
}

// ------------------------------------------------------------- client

// DialFunc opens one transport to the leader (net.Dial, net.Pipe…).
type DialFunc func() (net.Conn, error)

// RemoteOptions tunes the client's reconnect behavior.
type RemoteOptions struct {
	// DialBackoff is the delay before the first redial; it doubles per
	// attempt up to MaxBackoff. Default 25ms.
	DialBackoff time.Duration
	// MaxBackoff caps the redial delay. Default 1s.
	MaxBackoff time.Duration
	// DialAttempts bounds dials per exchange before the exchange fails
	// (which is terminal for an attached follower). Default 5.
	DialAttempts int
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.DialBackoff <= 0 {
		o.DialBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 5
	}
	return o
}

// RemoteTailSource is a TailSource over a ShipServer connection:
// ltree.OpenFollower attaches to it exactly as to an in-process WAL.
// Reads (Latest, ReplaySince) are request/response exchanges with
// redial+resume; Seq serves a notify-maintained cache;
// AppendWatch is the local edge of the server's durability broadcast.
// The write half of the WALBackend surface returns ErrRemoteReadOnly.
type RemoteTailSource struct {
	dial DialFunc
	opt  RemoteOptions

	reqMu sync.Mutex // serializes exchanges; acquired before mu
	wm    sync.Mutex // serializes raw conn writes

	mu        sync.Mutex
	conn      net.Conn
	resp      chan wireFrame
	seq       uint64
	watch     chan struct{}
	srcClosed bool // server pushed frameClosed: leader WAL is gone
	closed    bool // Close ran
	leases    map[uint64]*remoteLease
	nextLease uint64
	carry     []shipRec // page remainder after a windowed fn stopped early

	done chan struct{} // closed by Close; aborts backoff sleeps
}

// OpenRemoteTail dials the leader and performs the hello handshake; the
// returned source is ready for OpenFollower. The dial function is kept
// for reconnection.
func OpenRemoteTail(dial DialFunc, opt RemoteOptions) (*RemoteTailSource, error) {
	r := &RemoteTailSource{
		dial:      dial,
		opt:       opt.withDefaults(),
		leases:    make(map[uint64]*remoteLease),
		nextLease: 1,
		done:      make(chan struct{}),
	}
	r.reqMu.Lock()
	err := r.ensureConn()
	r.reqMu.Unlock()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// notifyLocked wakes every AppendWatch waiter. Caller holds r.mu.
func (r *RemoteTailSource) notifyLocked() {
	if r.watch != nil {
		close(r.watch)
		r.watch = nil
	}
}

// writeFrame writes one frame to conn under the write mutex.
func (r *RemoteTailSource) writeFrame(conn net.Conn, kind uint64, payload []byte) error {
	r.wm.Lock()
	defer r.wm.Unlock()
	_, err := conn.Write(frameRecord(kind, payload))
	return err
}

// send is writeFrame for fire-and-forget traffic: a failure is ignored
// (the dead connection surfaces on the next exchange, which re-registers
// leases on reconnect).
func (r *RemoteTailSource) send(conn net.Conn, kind uint64, payload []byte) {
	_ = r.writeFrame(conn, kind, payload)
}

// dropConn retires a failed connection and wakes parked tailers so
// their next sweep redials.
func (r *RemoteTailSource) dropConn(conn net.Conn) {
	conn.Close()
	r.mu.Lock()
	if r.conn == conn {
		r.conn = nil
		r.notifyLocked()
	}
	r.mu.Unlock()
}

// clientHello runs the handshake on a fresh transport and returns the
// server's seq at accept time.
func clientHello(conn net.Conn, br *bufio.Reader) (seq uint64, err error) {
	if _, err = conn.Write(frameRecord(frameHello, binary.AppendUvarint(nil, wireProto))); err != nil {
		return 0, err
	}
	fr, err := readWireFrame(br)
	if err != nil {
		return 0, err
	}
	if fr.kind == frameErr {
		return 0, decodeErrFrame(fr)
	}
	if fr.kind != frameHelloOK {
		return 0, fmt.Errorf("storage: shipnet: handshake got frame %d", fr.kind)
	}
	if proto := fr.f[0]; proto != wireProto {
		return 0, fmt.Errorf("storage: shipnet: server speaks protocol %d (want %d)", proto, wireProto)
	}
	return fr.f[1], nil
}

// ensureConn (re)establishes the connection with backoff, bounded by
// DialAttempts. On success the reader goroutine is running and every
// live lease has been re-registered at its current floor. Caller holds
// reqMu.
func (r *RemoteTailSource) ensureConn() error {
	r.mu.Lock()
	if r.closed || r.srcClosed {
		r.mu.Unlock()
		return ErrSourceClosed
	}
	if r.conn != nil {
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()

	backoff := r.opt.DialBackoff
	var lastErr error
	for attempt := 0; attempt < r.opt.DialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-r.done:
				return ErrSourceClosed
			}
			backoff *= 2
			if backoff > r.opt.MaxBackoff {
				backoff = r.opt.MaxBackoff
			}
		}
		conn, err := r.dial()
		if err != nil {
			lastErr = err
			continue
		}
		br := bufio.NewReader(conn)
		seq, err := clientHello(conn, br)
		if err != nil {
			conn.Close()
			if errors.Is(err, ErrSourceClosed) {
				return err
			}
			lastErr = err
			continue
		}
		resp := make(chan wireFrame, 8)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return ErrSourceClosed
		}
		r.conn = conn
		r.resp = resp
		if seq > r.seq {
			r.seq = seq
		}
		type reg struct {
			l         *remoteLease
			id, floor uint64
		}
		var regs []reg
		for id, l := range r.leases {
			regs = append(regs, reg{l, id, l.flr.Load()})
		}
		r.notifyLocked()
		r.mu.Unlock()
		go r.read(conn, br, resp)
		// Re-register live leases before the caller's request goes out
		// (per-conn write order makes the server process them first). A
		// lease released while we were snapshotting would leak server-
		// side until disconnect; the recheck keeps it tight.
		for _, g := range regs {
			var p []byte
			p = binary.AppendUvarint(p, g.id)
			p = binary.AppendUvarint(p, g.floor)
			r.send(conn, frameRetain, p)
			if g.l.rel.Load() {
				var q []byte
				q = binary.AppendUvarint(q, g.id)
				r.send(conn, frameRelease, q)
			}
		}
		return nil
	}
	return fmt.Errorf("storage: remote tail: leader unreachable after %d attempts: %w (%w)", r.opt.DialAttempts, lastErr, errTransport)
}

// read is the per-connection reader: it routes pushes (notify/closed)
// into the cache and everything else to the exchange in flight. A
// dedicated reader is mandatory — net.Pipe is fully synchronous, so
// server pushes would deadlock a client that only reads inside
// exchanges.
func (r *RemoteTailSource) read(conn net.Conn, br *bufio.Reader, resp chan wireFrame) {
	for {
		fr, err := readWireFrame(br)
		if err != nil {
			r.dropConn(conn)
			close(resp)
			return
		}
		switch fr.kind {
		case frameNotify:
			r.mu.Lock()
			if r.conn == conn {
				if seq := fr.f[0]; seq > r.seq {
					r.seq = seq
				}
				r.notifyLocked()
			}
			r.mu.Unlock()
		case frameClosed:
			r.mu.Lock()
			r.srcClosed = true
			if r.conn == conn {
				r.conn = nil
			}
			r.notifyLocked()
			r.mu.Unlock()
			conn.Close()
			close(resp)
			return
		default:
			select {
			case resp <- fr:
			case <-r.done:
				r.dropConn(conn)
				close(resp)
				return
			}
		}
	}
}

// ----------------------------------------------- TailSource: reads

// Seq returns the cached last-appended sequence number (maintained by
// hello, notify and replay-end frames; monotone, possibly lagging).
func (r *RemoteTailSource) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// AppendWatch implements TailSource: nil once the source is closed
// (locally or leader-side); an already-closed channel while
// disconnected, so a parked tailer re-sweeps — and thereby redials —
// instead of waiting on a broadcast that can never arrive.
func (r *RemoteTailSource) AppendWatch() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.srcClosed {
		return nil
	}
	if r.conn == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if r.watch == nil {
		r.watch = make(chan struct{})
	}
	return r.watch
}

// Retain implements TailSource: the lease is tracked locally (for
// re-registration on reconnect) and registered server-side.
func (r *RemoteTailSource) Retain(seq uint64) Lease {
	r.mu.Lock()
	id := r.nextLease
	r.nextLease++
	l := &remoteLease{r: r, id: id}
	l.flr.Store(seq)
	r.leases[id] = l
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		var p []byte
		p = binary.AppendUvarint(p, id)
		p = binary.AppendUvarint(p, seq)
		r.send(conn, frameRetain, p)
	}
	return l
}

// remoteLease mirrors a server-side lease: the floor is tracked locally
// so a reconnect can re-register at the exact point reached.
type remoteLease struct {
	r   *RemoteTailSource
	id  uint64
	flr atomic.Uint64
	rel atomic.Bool
}

// Advance implements Lease.
func (l *remoteLease) Advance(seq uint64) {
	for {
		cur := l.flr.Load()
		if seq <= cur {
			return
		}
		if l.flr.CompareAndSwap(cur, seq) {
			break
		}
	}
	if l.rel.Load() {
		return
	}
	l.r.mu.Lock()
	conn := l.r.conn
	l.r.mu.Unlock()
	if conn != nil {
		var p []byte
		p = binary.AppendUvarint(p, l.id)
		p = binary.AppendUvarint(p, seq)
		l.r.send(conn, frameAdvance, p)
	}
}

// Release implements Lease. Idempotent.
func (l *remoteLease) Release() {
	if l.rel.Swap(true) {
		return
	}
	l.r.mu.Lock()
	delete(l.r.leases, l.id)
	conn := l.r.conn
	l.r.mu.Unlock()
	if conn != nil {
		var p []byte
		p = binary.AppendUvarint(p, l.id)
		l.r.send(conn, frameRelease, p)
	}
}

// Latest implements WALBackend: a request/response exchange with redial.
func (r *RemoteTailSource) Latest() (uint64, []byte, error) {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()
	var lastErr error = fmt.Errorf("storage: shipnet: no attempt ran (%w)", errTransport)
	for tries := 0; tries < r.opt.DialAttempts; tries++ {
		if err := r.ensureConn(); err != nil {
			return 0, nil, err
		}
		r.mu.Lock()
		conn, resp := r.conn, r.resp
		r.mu.Unlock()
		if conn == nil {
			continue
		}
		if err := r.writeFrame(conn, frameLatest, nil); err != nil {
			lastErr = err
			r.dropConn(conn)
			continue
		}
		f, open := <-resp
		if !open {
			lastErr = errors.New("storage: shipnet: connection lost awaiting latest")
			continue
		}
		switch f.kind {
		case frameLatestOK:
			return f.f[0], f.rest, nil
		case frameErr:
			return 0, nil, decodeErrFrame(f)
		default:
			lastErr = fmt.Errorf("storage: shipnet: unexpected frame %d", f.kind)
			r.dropConn(conn)
		}
	}
	return 0, nil, fmt.Errorf("storage: remote tail: latest failed: %w (%w)", lastErr, errTransport)
}

// ReplaySince implements WALBackend over paged fetches: each page is
// collected whole (so the reader never stalls mid-exchange), the seq
// cache is updated from the page's post-scan seq, and only then are
// records delivered — a windowed consumer that stops early leaves the
// remainder in the carry, served first on the next contiguous call.
// Reconnection is per page: a lost connection repeats the page from the
// last delivered record.
func (r *RemoteTailSource) ReplaySince(since uint64, fn func(seq uint64, payload []byte) error) error {
	r.reqMu.Lock()
	defer r.reqMu.Unlock()

	r.mu.Lock()
	carry := r.carry
	r.carry = nil
	r.mu.Unlock()
	if len(carry) > 0 && carry[0].seq == since+1 {
		for i, rec := range carry {
			if err := fn(rec.seq, rec.payload); err != nil {
				r.mu.Lock()
				r.carry = carry[i:]
				r.mu.Unlock()
				return err
			}
			since = rec.seq
		}
	}

	for {
		page, srcSeq, err := r.fetchPage(since, wirePage)
		if err != nil {
			return err
		}
		r.mu.Lock()
		if srcSeq > r.seq {
			r.seq = srcSeq
		}
		r.mu.Unlock()
		for i, rec := range page {
			if err := fn(rec.seq, rec.payload); err != nil {
				r.mu.Lock()
				r.carry = page[i:]
				r.mu.Unlock()
				return err
			}
			since = rec.seq
		}
		if len(page) < wirePage {
			return nil // short page: the durable end at scan time
		}
	}
}

// fetchPage runs one frameReplay exchange with transport-level retry.
func (r *RemoteTailSource) fetchPage(since uint64, max int) ([]shipRec, uint64, error) {
	var lastErr error = fmt.Errorf("storage: shipnet: no attempt ran (%w)", errTransport)
	for tries := 0; tries < r.opt.DialAttempts; tries++ {
		if err := r.ensureConn(); err != nil {
			return nil, 0, err
		}
		page, srcSeq, err := r.tryPage(since, max)
		if err == nil {
			return page, srcSeq, nil
		}
		if !errors.Is(err, errTransport) {
			return nil, 0, err
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("storage: remote tail: replay failed: %w", lastErr)
}

// tryPage issues one frameReplay and collects the response stream.
// Transport failures are wrapped with errTransport (retryable);
// anything else is the request's real outcome.
func (r *RemoteTailSource) tryPage(since uint64, max int) ([]shipRec, uint64, error) {
	r.mu.Lock()
	conn, resp := r.conn, r.resp
	r.mu.Unlock()
	if conn == nil {
		return nil, 0, fmt.Errorf("storage: shipnet: not connected (%w)", errTransport)
	}
	var req []byte
	req = binary.AppendUvarint(req, since)
	req = binary.AppendUvarint(req, uint64(max))
	if err := r.writeFrame(conn, frameReplay, req); err != nil {
		r.dropConn(conn)
		return nil, 0, fmt.Errorf("storage: shipnet: %v (%w)", err, errTransport)
	}
	var page []shipRec
	for {
		f, open := <-resp
		if !open {
			// Lost mid-page: discard the partial page, repeat from the
			// same resume point on a fresh connection.
			return nil, 0, fmt.Errorf("storage: shipnet: connection lost mid-page (%w)", errTransport)
		}
		switch f.kind {
		case frameRec:
			page = append(page, shipRec{seq: f.f[0], payload: f.rest})
		case frameReplayEnd:
			return page, f.f[0], nil
		case frameErr:
			return nil, 0, decodeErrFrame(f)
		default:
			r.dropConn(conn)
			return nil, 0, fmt.Errorf("storage: shipnet: unexpected frame %d (%w)", f.kind, errTransport)
		}
	}
}

// ----------------------------------------- WALBackend: write half

// AppendBatch implements WALBackend; remote sources are read-only.
func (r *RemoteTailSource) AppendBatch([]byte) (uint64, error) { return 0, ErrRemoteReadOnly }

// Checkpoint implements WALBackend; remote sources are read-only.
func (r *RemoteTailSource) Checkpoint([]byte) (uint64, error) { return 0, ErrRemoteReadOnly }

// Prune implements WALBackend; remote sources are read-only.
func (r *RemoteTailSource) Prune(uint64) error { return ErrRemoteReadOnly }

// Sync implements WALBackend: a no-op — this handle never appends.
func (r *RemoteTailSource) Sync() error { return nil }

// Get implements WALBackend. Only the newest checkpoint crosses the wire
// (that is all a follower bootstrap needs); historical versions stay on
// the leader.
func (r *RemoteTailSource) Get(uint64) ([]byte, error) {
	return nil, fmt.Errorf("%w: remote tail source serves only Latest", ErrNoVersion)
}

// Versions implements WALBackend; see Get.
func (r *RemoteTailSource) Versions() ([]uint64, error) {
	return nil, errors.New("storage: remote tail source does not enumerate versions")
}

// Close implements WALBackend: tears the client down. Attached tailers
// stop with ErrSourceClosed; the server releases this connection's
// leases on disconnect.
func (r *RemoteTailSource) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.conn = nil
	r.notifyLocked()
	r.mu.Unlock()
	close(r.done)
	if conn != nil {
		conn.Close()
	}
	return nil
}
