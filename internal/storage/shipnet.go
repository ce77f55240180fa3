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
// broadcast: seq + rebase count) and frameClosed (leader WAL closed)
// at any point. Lease traffic (frameRetain/Advance/Release) and
// frameMarkRebase are fire-and-forget: per-connection write ordering
// guarantees a registration written before a read request is processed
// before it, which preserves TailLatest's register-then-read bootstrap
// invariant over the wire.
//
// Rebase soundness over the wire: the server reads src.Rebases() AFTER
// scanning a replay page and ships it in frameReplayEnd; the client
// updates its cached counter from that frame before ReplaySince
// returns. The leader marks a re-base strictly before any post-repair
// append, so a page that picked up a post-repair record always carries
// the moved counter — Tailer.fill's post-sweep check then fires off
// the cache exactly as it would in-process. The cache can lag (a
// notify not yet delivered) but never run ahead of what the served
// records require, so the failure mode is a conservative stop, never
// silent divergence.
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

// wireProto is the protocol version exchanged in the hello handshake.
const wireProto = 1

// Frame kinds. Client→server: hello, latest, replay, lease ops, mark.
// Server→client: helloOK, latestOK, err, rec, replayEnd, notify, closed.
const (
	frameHello uint64 = iota + 1
	frameLatest
	frameReplay
	frameRetain
	frameAdvance
	frameRelease
	frameMarkRebase
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

// wireFrame is one decoded frame.
type wireFrame struct {
	kind    uint64
	payload []byte
}

// readWireFrame reads and verifies one frame. Any malformation is a
// connection error — there is no durable prefix to trust on a stream.
func readWireFrame(r io.Reader) (uint64, []byte, error) {
	var head [recordHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	crc := binary.LittleEndian.Uint32(head[4:8])
	kind := binary.LittleEndian.Uint64(head[8:16])
	if length > maxRecord {
		return 0, nil, fmt.Errorf("storage: shipnet: frame claims %d bytes", length)
	}
	// Chunked read, same discipline as scanRecords: a corrupt length
	// must fail after one chunk, not pre-allocate the claimed size.
	payload := make([]byte, 0, min(int(length), 1<<13))
	var chunk [1 << 13]byte
	for len(payload) < int(length) {
		want := min(int(length)-len(payload), len(chunk))
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return 0, nil, err
		}
		payload = append(payload, chunk[:want]...)
	}
	sum := crc32.Checksum(head[8:16], crcTable)
	sum = crc32.Update(sum, crcTable, payload)
	if sum != crc {
		return 0, nil, errors.New("storage: shipnet: frame CRC mismatch")
	}
	return kind, payload, nil
}

// wireReader is a tiny cursor over a frame payload.
type wireReader struct{ p []byte }

func (w *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(w.p)
	if n <= 0 {
		return 0, errors.New("storage: shipnet: malformed frame payload")
	}
	w.p = w.p[n:]
	return v, nil
}

func (w *wireReader) rest() []byte { return w.p }

// decodeErrFrame maps a frameErr payload back to the sentinel the
// server-side call returned.
func decodeErrFrame(payload []byte) error {
	wr := wireReader{payload}
	code, err := wr.uvarint()
	if err != nil {
		return err
	}
	msg := string(wr.rest())
	switch code {
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
// client can never hold back truncation forever), rebase propagation,
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
	kind, payload, err := readWireFrame(h.br)
	if err != nil || kind != frameHello {
		return
	}
	wr := wireReader{payload}
	proto, err := wr.uvarint()
	if err != nil || proto != wireProto {
		h.writeErr(ecOther, fmt.Sprintf("unsupported protocol %d (want %d)", proto, wireProto))
		return
	}
	var hello []byte
	hello = binary.AppendUvarint(hello, wireProto)
	hello = binary.AppendUvarint(hello, h.src.Seq())
	hello = binary.AppendUvarint(hello, h.src.Rebases())
	if h.write(frameHelloOK, hello) != nil {
		return
	}

	go h.notify()

	for {
		kind, payload, err := readWireFrame(h.br)
		if err != nil {
			return
		}
		if h.handle(kind, payload) != nil {
			return
		}
	}
}

// notify pushes (seq, rebases) whenever the source's durability
// broadcast fires, and frameClosed once the source is closed for good.
func (h *shipConn) notify() {
	var lastSeq, lastReb uint64
	sent := false
	for {
		// The watch is grabbed BEFORE reading the state it covers —
		// the standard lost-wakeup ordering.
		ch := h.src.AppendWatch()
		if ch == nil {
			h.write(frameClosed, nil)
			return
		}
		seq, reb := h.src.Seq(), h.src.Rebases()
		if !sent || seq != lastSeq || reb != lastReb {
			var p []byte
			p = binary.AppendUvarint(p, seq)
			p = binary.AppendUvarint(p, reb)
			if h.write(frameNotify, p) != nil {
				return
			}
			lastSeq, lastReb, sent = seq, reb, true
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
func (h *shipConn) handle(kind uint64, payload []byte) error {
	wr := wireReader{payload}
	switch kind {
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
		since, err := wr.uvarint()
		if err != nil {
			return err
		}
		max64, err := wr.uvarint()
		if err != nil {
			return err
		}
		return h.replay(since, int(max64))
	case frameRetain:
		id, err := wr.uvarint()
		if err != nil {
			return err
		}
		seq, err := wr.uvarint()
		if err != nil {
			return err
		}
		if old, ok := h.leases[id]; ok {
			old.Release()
		}
		h.leases[id] = h.src.Retain(seq)
		return nil
	case frameAdvance:
		id, err := wr.uvarint()
		if err != nil {
			return err
		}
		seq, err := wr.uvarint()
		if err != nil {
			return err
		}
		if l, ok := h.leases[id]; ok {
			l.Advance(seq)
		}
		return nil
	case frameRelease:
		id, err := wr.uvarint()
		if err != nil {
			return err
		}
		if l, ok := h.leases[id]; ok {
			l.Release()
			delete(h.leases, id)
		}
		return nil
	case frameMarkRebase:
		h.src.MarkRebased()
		return nil
	default:
		return fmt.Errorf("storage: shipnet: unexpected frame kind %d", kind)
	}
}

// replay serves one page: up to max records after since, then a
// frameReplayEnd carrying the POST-scan rebase count and source seq.
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
	// Rebases strictly AFTER the scan: a post-repair record in the page
	// implies the counter moved before its append, so the client cache
	// sees the move before its own post-sweep check runs.
	reb := h.src.Rebases()
	srcSeq := h.src.Seq()
	for _, rec := range page {
		p := make([]byte, 0, len(rec.payload)+binary.MaxVarintLen64)
		p = binary.AppendUvarint(p, rec.seq)
		p = append(p, rec.payload...)
		if werr := h.write(frameRec, p); werr != nil {
			return werr
		}
	}
	var end []byte
	end = binary.AppendUvarint(end, reb)
	end = binary.AppendUvarint(end, srcSeq)
	return h.write(frameReplayEnd, end)
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
// redial+resume; Seq/Rebases serve a notify-maintained cache;
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
	rebases   uint64
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
// server's (seq, rebases) at accept time.
func clientHello(conn net.Conn, br *bufio.Reader) (seq, rebases uint64, err error) {
	var p []byte
	p = binary.AppendUvarint(p, wireProto)
	if _, err = conn.Write(frameRecord(frameHello, p)); err != nil {
		return 0, 0, err
	}
	kind, payload, err := readWireFrame(br)
	if err != nil {
		return 0, 0, err
	}
	if kind == frameErr {
		return 0, 0, decodeErrFrame(payload)
	}
	if kind != frameHelloOK {
		return 0, 0, fmt.Errorf("storage: shipnet: handshake got frame %d", kind)
	}
	wr := wireReader{payload}
	proto, err := wr.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if proto != wireProto {
		return 0, 0, fmt.Errorf("storage: shipnet: server speaks protocol %d (want %d)", proto, wireProto)
	}
	if seq, err = wr.uvarint(); err != nil {
		return 0, 0, err
	}
	if rebases, err = wr.uvarint(); err != nil {
		return 0, 0, err
	}
	return seq, rebases, nil
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
		seq, reb, err := clientHello(conn, br)
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
		if reb > r.rebases {
			r.rebases = reb
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
		kind, payload, err := readWireFrame(br)
		if err != nil {
			r.dropConn(conn)
			close(resp)
			return
		}
		switch kind {
		case frameNotify:
			wr := wireReader{payload}
			seq, e1 := wr.uvarint()
			reb, e2 := wr.uvarint()
			if e1 != nil || e2 != nil {
				r.dropConn(conn)
				close(resp)
				return
			}
			r.mu.Lock()
			if r.conn == conn {
				if seq > r.seq {
					r.seq = seq
				}
				if reb > r.rebases {
					r.rebases = reb
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
			case resp <- wireFrame{kind, payload}:
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

// Rebases returns the cached re-base count. The cache lags at worst —
// it is updated from the post-scan count every replay — so a moved
// counter is never missed for records already delivered.
func (r *RemoteTailSource) Rebases() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rebases
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

// MarkRebased bumps the cached counter immediately (attached tailers
// must observe the move) and forwards to the leader.
func (r *RemoteTailSource) MarkRebased() {
	r.mu.Lock()
	r.rebases++
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		r.send(conn, frameMarkRebase, nil)
	}
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
			wr := wireReader{f.payload}
			v, err := wr.uvarint()
			if err != nil {
				lastErr = err
				r.dropConn(conn)
				continue
			}
			return v, wr.rest(), nil
		case frameErr:
			return 0, nil, decodeErrFrame(f.payload)
		default:
			lastErr = fmt.Errorf("storage: shipnet: unexpected frame %d", f.kind)
			r.dropConn(conn)
		}
	}
	return 0, nil, fmt.Errorf("storage: remote tail: latest failed: %w (%w)", lastErr, errTransport)
}

// ReplaySince implements WALBackend over paged fetches: each page is
// collected whole (so the reader never stalls mid-exchange), the cache
// is updated from the page's post-scan counters, and only then are
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
		page, reb, srcSeq, err := r.fetchPage(since, wirePage)
		if err != nil {
			return err
		}
		// Cache update BEFORE delivery: a consumer checking Rebases()
		// right after its window fills must see the count that covers
		// every record it buffered.
		r.mu.Lock()
		if reb > r.rebases {
			r.rebases = reb
		}
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
func (r *RemoteTailSource) fetchPage(since uint64, max int) ([]shipRec, uint64, uint64, error) {
	var lastErr error = fmt.Errorf("storage: shipnet: no attempt ran (%w)", errTransport)
	for tries := 0; tries < r.opt.DialAttempts; tries++ {
		if err := r.ensureConn(); err != nil {
			return nil, 0, 0, err
		}
		page, reb, srcSeq, err := r.tryPage(since, max)
		if err == nil {
			return page, reb, srcSeq, nil
		}
		if !errors.Is(err, errTransport) {
			return nil, 0, 0, err
		}
		lastErr = err
	}
	return nil, 0, 0, fmt.Errorf("storage: remote tail: replay failed: %w", lastErr)
}

// tryPage issues one frameReplay and collects the response stream.
// Transport failures are wrapped with errTransport (retryable);
// anything else is the request's real outcome.
func (r *RemoteTailSource) tryPage(since uint64, max int) ([]shipRec, uint64, uint64, error) {
	r.mu.Lock()
	conn, resp := r.conn, r.resp
	r.mu.Unlock()
	if conn == nil {
		return nil, 0, 0, fmt.Errorf("storage: shipnet: not connected (%w)", errTransport)
	}
	var req []byte
	req = binary.AppendUvarint(req, since)
	req = binary.AppendUvarint(req, uint64(max))
	if err := r.writeFrame(conn, frameReplay, req); err != nil {
		r.dropConn(conn)
		return nil, 0, 0, fmt.Errorf("storage: shipnet: %v (%w)", err, errTransport)
	}
	var page []shipRec
	for {
		f, open := <-resp
		if !open {
			// Lost mid-page: discard the partial page, repeat from the
			// same resume point on a fresh connection.
			return nil, 0, 0, fmt.Errorf("storage: shipnet: connection lost mid-page (%w)", errTransport)
		}
		switch f.kind {
		case frameRec:
			wr := wireReader{f.payload}
			seq, err := wr.uvarint()
			if err != nil {
				r.dropConn(conn)
				return nil, 0, 0, fmt.Errorf("storage: shipnet: %v (%w)", err, errTransport)
			}
			page = append(page, shipRec{seq: seq, payload: wr.rest()})
		case frameReplayEnd:
			wr := wireReader{f.payload}
			reb, e1 := wr.uvarint()
			srcSeq, e2 := wr.uvarint()
			if e1 != nil || e2 != nil {
				r.dropConn(conn)
				return nil, 0, 0, fmt.Errorf("storage: shipnet: malformed replay end (%w)", errTransport)
			}
			return page, reb, srcSeq, nil
		case frameErr:
			return nil, 0, 0, decodeErrFrame(f.payload)
		default:
			r.dropConn(conn)
			return nil, 0, 0, fmt.Errorf("storage: shipnet: unexpected frame %d (%w)", f.kind, errTransport)
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
