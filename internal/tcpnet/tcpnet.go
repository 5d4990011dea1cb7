// Package tcpnet implements the transport.Endpoint abstraction over real
// TCP connections, mirroring the paper's deployment: every server keeps
// TCP connections to its ring successor, clients connect to a server of
// their choice, and a broken connection is interpreted as a crash of the
// peer (the perfect failure detector of the paper's cluster model).
//
// Connections open with a session handshake (DESIGN.md §8): endpoints
// configured with a wire.Hello exchange versioned HELLOs carrying the
// wire version, lane fanout and ring-membership hash, and reject
// incompatible peers at connect time with a typed *wire.HandshakeError.
// Endpoints without a Hello are raw: they open with a bare preamble
// (magic + process id, nothing validated) and talk only to each other —
// a session endpoint refuses the bare preamble, and a raw endpoint
// cannot answer a HELLO.
//
// An endpoint holds one connection per peer, created lazily on first
// send and cached. Every ring lane's frames share it, as in the paper's
// one FIFO channel per successor; the receiver routes each ring frame
// by the lane byte in its header. Each connection has one reader and
// one writer goroutine; the bounded outbound queue gives senders the
// same backpressure semantics as the in-memory transport. Acks to
// clients travel back on the connection the client opened, so clients
// need no listener.
//
// Outbound frames are encoded at enqueue time, on the goroutine that
// produced them, into pooled refcounted wire.EncodedFrame buffers; the
// per-peer queue carries those buffers, and the writer goroutine only
// gathers them. Each wakeup drains whatever the queue already holds
// into one iovec, up to MaxBatchBytes, and hands the whole batch to the
// kernel with a single vectored write (writev), returning each buffer
// to the pool once the kernel has consumed it. Frames below a size
// cutoff are coalesced into a pooled slab entry of the same iovec
// instead, because the kernel's per-iovec cost exceeds a tiny memcpy;
// large frames ship zero-copy. Under load this amortizes the write
// syscall over dozens of frames with no intermediate copy and no
// encoding work serialized on the writer. The writer never waits on a
// timer (a flush wait cost 15–20 % at every batch size on loopback,
// EXPERIMENTS.md "batch re-tune"), but a dial-only endpoint yields
// once: when its queue runs dry it gives up the processor with
// runtime.Gosched, drains again, and only then flushes. A client's op
// goroutines each have one request out, and those that one ack burst
// woke enqueue their next requests during the yield, so the burst
// leaves in one write. An idle client pays one empty yield. Endpoints
// built by Listen never yield: their producers (one lane per ring
// link, one read loop or ack lane per ack burst) already hand over
// whole bursts, and yielding there too cost contended_mixed 10–19 % of
// its goodput and raised its write p50 8–12 % in three benchmark pairs
// (EXPERIMENTS.md, "one write per burst on the client link"). Encode
// buffers, the slab, and inbound frame bodies come from the wire
// package's buffer pool. Inbound values do not: each is copied out of
// the body into an exact-size heap slice that the GC owns, because the
// algorithm keeps values for as long as it likes. DESIGN.md §14 states
// the buffer-ownership rules end to end.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Connection preambles. Stray connections are rejected on the first
// four bytes.
const (
	// magicRaw is the raw endpoints' preamble: magic + process id, no
	// HELLO.
	magicRaw = "ATS1"
	// magicSession opens a session handshake: magic + length-prefixed
	// HELLO body, answered by a status byte + the acceptor's HELLO.
	magicSession = "ATS3"
)

// handshakeTimeout bounds each side's wait for the peer's handshake
// bytes.
const handshakeTimeout = 5 * time.Second

// Options configure a TCP endpoint.
type Options struct {
	// Hello, when set, switches the endpoint to session mode: every
	// dialed connection opens with this HELLO, accepted connections
	// must present a compatible one, and mismatches fail with a typed
	// *wire.HandshakeError. Nil makes a raw endpoint: bare preamble, no
	// validation, reachable only from other raw endpoints.
	Hello *wire.Hello
	// SendQueueCapacity bounds the per-peer outbound queue. Zero means 64.
	SendQueueCapacity int
	// InboxCapacity bounds the shared inbox. Zero means 256.
	InboxCapacity int
	// DialTimeout bounds a single connection attempt. Zero means 2s.
	DialTimeout time.Duration
	// DialRetries is the number of extra attempts after a failed dial,
	// spaced DialBackoff apart, before Send gives up. Zero means 5.
	DialRetries int
	// DialBackoff is the delay between dial attempts. Zero means 50ms.
	DialBackoff time.Duration
	// MaxBatchBytes caps how many encoded bytes the writer coalesces
	// into one flush. Zero means DefaultMaxBatchBytes. The default was
	// tuned with BenchmarkTCPEcho (see EXPERIMENTS.md): larger batches
	// stop paying off once the batch exceeds the socket buffer.
	MaxBatchBytes int
	// VectoredCutoffBytes is the hybrid egress threshold: encoded
	// frames at least this large become their own zero-copy iovec
	// entry, smaller ones are coalesced into the batch slab (the
	// kernel's per-iovec bookkeeping costs more than a tiny memcpy —
	// see EXPERIMENTS.md PR 9). Zero means DefaultVectoredCutoff;
	// negative vectorizes every frame regardless of size.
	VectoredCutoffBytes int
	// ReadBufferBytes sizes the per-connection inbound read buffer.
	// Zero means max(32 KiB, MaxBatchBytes), so one ingest slab can
	// absorb a peer's largest egress batch in one read syscall.
	ReadBufferBytes int
}

// DefaultMaxBatchBytes is the coalescing cap used when
// Options.MaxBatchBytes is zero: one socket-buffer-sized flush.
const DefaultMaxBatchBytes = 64 << 10

// DefaultVectoredCutoff is the hybrid egress threshold used when
// Options.VectoredCutoffBytes is zero. 1 KiB sits at the measured
// crossover on loopback (EXPERIMENTS.md PR 9): below it a slab memcpy
// beats the kernel's per-iovec cost, above it zero-copy wins.
const DefaultVectoredCutoff = 1 << 10

func (o Options) withDefaults() Options {
	if o.SendQueueCapacity <= 0 {
		o.SendQueueCapacity = 64
	}
	if o.InboxCapacity <= 0 {
		o.InboxCapacity = 256
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.DialRetries <= 0 {
		o.DialRetries = 5
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 50 * time.Millisecond
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = DefaultMaxBatchBytes
	}
	switch {
	case o.VectoredCutoffBytes == 0:
		o.VectoredCutoffBytes = DefaultVectoredCutoff
	case o.VectoredCutoffBytes < 0:
		o.VectoredCutoffBytes = 0 // every frame vectored
	}
	if o.ReadBufferBytes <= 0 {
		o.ReadBufferBytes = 32 << 10
		if o.MaxBatchBytes > o.ReadBufferBytes {
			o.ReadBufferBytes = o.MaxBatchBytes
		}
	}
	return o
}

// AddressBook maps server process ids to their listen addresses. Clients
// do not appear in the book; they are reached over the connections they
// themselves opened.
type AddressBook map[wire.ProcessID]string

// Endpoint is a TCP-backed transport endpoint.
type Endpoint struct {
	id    wire.ProcessID
	book  AddressBook
	opts  Options
	ln    net.Listener
	inbox chan transport.Inbound
	fails chan wire.ProcessID

	downOnce sync.Once
	down     chan struct{}

	// demux, when set, routes inbound frames to per-lane inboxes
	// instead of the shared inbox (transport.Demuxer).
	demux atomic.Pointer[transport.DemuxTable]

	mu     sync.Mutex
	peers  map[wire.ProcessID]*peer
	extras []*peer // duplicate conns from simultaneous dials: read-only
	failed map[wire.ProcessID]bool

	wg sync.WaitGroup
}

var (
	_ transport.Endpoint   = (*Endpoint)(nil)
	_ transport.Demuxer    = (*Endpoint)(nil)
	_ transport.Handshaker = (*Endpoint)(nil)
	_ transport.TrySender  = (*Endpoint)(nil)
)

// SetDemux implements transport.Demuxer: subsequent inbound frames are
// delivered to inboxes[route(frame)], with the shared inbox as the
// out-of-range fallback.
func (e *Endpoint) SetDemux(route transport.RouteFunc, inboxes []chan transport.Inbound) {
	e.demux.Store(&transport.DemuxTable{Route: route, Inboxes: inboxes})
}

// inboxFor returns the channel an inbound frame goes to.
func (e *Endpoint) inboxFor(inb *transport.Inbound) chan transport.Inbound {
	if d := e.demux.Load(); d != nil {
		return d.Target(e.inbox, inb)
	}
	return e.inbox
}

// Listen starts a server endpoint accepting connections on addr. The
// address book must contain every server, including this one (its entry
// is ignored for dialing).
func Listen(id wire.ProcessID, addr string, book AddressBook, opts Options) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	e := newEndpoint(id, book, opts)
	e.ln = ln
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// NewClient creates a dial-only endpoint (no listener) for a client
// process.
func NewClient(id wire.ProcessID, book AddressBook, opts Options) *Endpoint {
	return newEndpoint(id, book, opts)
}

func newEndpoint(id wire.ProcessID, book AddressBook, opts Options) *Endpoint {
	opts = opts.withDefaults()
	if opts.Hello != nil {
		h := *opts.Hello // private copy
		h.From = id
		opts.Hello = &h
	}
	bookCopy := make(AddressBook, len(book))
	for k, v := range book {
		bookCopy[k] = v
	}
	return &Endpoint{
		id:     id,
		book:   bookCopy,
		opts:   opts,
		inbox:  make(chan transport.Inbound, opts.InboxCapacity),
		fails:  make(chan wire.ProcessID, 64),
		down:   make(chan struct{}),
		peers:  make(map[wire.ProcessID]*peer),
		failed: make(map[wire.ProcessID]bool),
	}
}

// Addr returns the listener address ("" for client endpoints), useful
// when listening on port 0.
func (e *Endpoint) Addr() string {
	if e.ln == nil {
		return ""
	}
	return e.ln.Addr().String()
}

// ID implements transport.Endpoint.
func (e *Endpoint) ID() wire.ProcessID { return e.id }

// Inbox implements transport.Endpoint.
func (e *Endpoint) Inbox() <-chan transport.Inbound { return e.inbox }

// Failures implements transport.Endpoint.
func (e *Endpoint) Failures() <-chan wire.ProcessID { return e.fails }

// Done implements transport.Endpoint.
func (e *Endpoint) Done() <-chan struct{} { return e.down }

// Close implements transport.Endpoint: it tears down the listener and
// every connection. Peers will observe broken connections, which in this
// model is indistinguishable from a crash — exactly the paper's
// assumption.
func (e *Endpoint) Close() error {
	e.downOnce.Do(func() { close(e.down) })
	if e.ln != nil {
		_ = e.ln.Close()
	}
	e.mu.Lock()
	peers := make([]*peer, 0, len(e.peers)+len(e.extras))
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	peers = append(peers, e.extras...)
	e.peers = make(map[wire.ProcessID]*peer)
	e.extras = nil
	e.mu.Unlock()
	for _, p := range peers {
		p.shutdown()
	}
	e.wg.Wait()
	return nil
}

// Send implements transport.Endpoint: the frame travels the peer's
// link, dialing it first if none is cached.
func (e *Endpoint) Send(to wire.ProcessID, f wire.Frame) error {
	select {
	case <-e.down:
		return transport.ErrClosed
	default:
	}
	p, err := e.peerFor(to)
	if err != nil {
		return err
	}
	return e.enqueue(p, to, f)
}

// TrySend implements transport.TrySender: the frame is encoded on this
// goroutine (the ack fast path's whole point is that the producing
// goroutine does the work) and pushed onto the peer link's outbound
// queue only if the link is already established and its queue has room
// right now. It never dials — connection setup can block for seconds —
// and never waits for queue space, so it is safe on goroutines that
// must not stall on a slow client.
func (e *Endpoint) TrySend(to wire.ProcessID, f wire.Frame) bool {
	select {
	case <-e.down:
		return false
	default:
	}
	e.mu.Lock()
	p := e.peers[to]
	e.mu.Unlock()
	if p == nil {
		return false
	}
	if len(p.out) == cap(p.out) {
		return false // full right now; skip the encode work
	}
	ef, err := wire.EncodeFrame(&f)
	if err != nil {
		return false
	}
	select {
	case p.out <- ef:
		if reclaimIfClosed(p) {
			return false // link raced shutdown; caller takes the slow path
		}
		return true
	default:
		ef.Release()
		return false
	}
}

// Handshake implements transport.Handshaker: it eagerly opens (or
// reuses) the link to the peer, returning a typed
// *wire.HandshakeError when the peer's HELLO is incompatible.
func (e *Endpoint) Handshake(to wire.ProcessID) error {
	select {
	case <-e.down:
		return transport.ErrClosed
	default:
	}
	_, err := e.peerFor(to)
	return err
}

// enqueue encodes the frame on the calling goroutine and hands the
// pooled encoded buffer to the link's writer. The encode snapshots the
// frame's value bytes, so the transport holds no alias of any value
// once enqueue returns (DESIGN.md §14).
func (e *Endpoint) enqueue(p *peer, to wire.ProcessID, f wire.Frame) error {
	ef, err := wire.EncodeFrame(&f)
	if err != nil {
		return err
	}
	select {
	case p.out <- ef:
		if reclaimIfClosed(p) {
			return fmt.Errorf("%w: %d", transport.ErrPeerDown, to)
		}
		return nil
	case <-p.closed:
		ef.Release()
		return fmt.Errorf("%w: %d", transport.ErrPeerDown, to)
	case <-e.down:
		ef.Release()
		return transport.ErrClosed
	}
}

// reclaimIfClosed handles the push-vs-shutdown race: a send that lands
// in the queue buffer just as the link closes can slip in after the
// writer's final drain, stranding a pooled buffer. After a successful
// push the producer re-checks the link; if it shut down meanwhile, the
// producer pulls one queued frame back out and releases it. Between
// the writer's post-close drain and every racing producer reclaiming
// one frame each, no encoded buffer is left stranded — see the
// accounting in DESIGN.md §14.
func reclaimIfClosed(p *peer) bool {
	select {
	case <-p.closed:
		select {
		case ef := <-p.out:
			ef.Release()
		default:
		}
		return true
	default:
		return false
	}
}

// peerFor returns the cached connection to the peer, dialing and
// handshaking if necessary.
func (e *Endpoint) peerFor(to wire.ProcessID) (*peer, error) {
	e.mu.Lock()
	if p, ok := e.peers[to]; ok {
		e.mu.Unlock()
		return p, nil
	}
	if e.failed[to] {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", transport.ErrPeerDown, to)
	}
	addr, ok := e.book[to]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d not in address book", transport.ErrUnknownPeer, to)
	}

	conn, err := e.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %d at %s: %w", to, addr, err)
	}
	if err := e.dialHandshake(conn, to); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tcpnet: handshake with %d: %w", to, err)
	}
	return e.adoptConn(to, conn), nil
}

// dial attempts to connect with bounded retries.
func (e *Endpoint) dial(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt <= e.opts.DialRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(e.opts.DialBackoff):
			case <-e.down:
				return nil, transport.ErrClosed
			}
		}
		conn, err := net.DialTimeout("tcp", addr, e.opts.DialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// adoptConn registers a live connection to the peer and starts its
// reader and writer goroutines. If a connection to the peer already
// exists (simultaneous dials), the new one is still served for reading
// but the cached one keeps handling sends.
func (e *Endpoint) adoptConn(id wire.ProcessID, conn net.Conn) *peer {
	p := &peer{
		id:     id,
		conn:   conn,
		out:    make(chan *wire.EncodedFrame, e.opts.SendQueueCapacity),
		closed: make(chan struct{}),
	}
	e.mu.Lock()
	if existing, ok := e.peers[id]; ok {
		e.extras = append(e.extras, p)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(p) // serve inbound on the duplicate, never write
		return existing
	}
	e.peers[id] = p
	e.mu.Unlock()
	e.wg.Add(2)
	go e.readLoop(p)
	go e.writeLoop(p)
	return p
}

// dropPeer removes the link from the cache and reports the peer's
// failure once. In this model any broken connection means the peer
// crashed, so the first broken connection carries the news; a duplicate
// from a simultaneous dial dies on its own as its reads fail.
func (e *Endpoint) dropPeer(p *peer) {
	p.shutdown()
	e.mu.Lock()
	first := false
	cached := e.peers[p.id] == p
	if cached {
		delete(e.peers, p.id)
	}
	// failed exists to stop peerFor redialing a crashed server, and
	// peerFor only dials ids in the address book; recording anyone else
	// would grow the map by one entry per client that ever disconnected.
	// A client's only link is the one it dialed, so its departure is
	// reported by whichever of that link's two loops uncaches it.
	if _, dialable := e.book[p.id]; !dialable {
		first = cached
	} else if !e.failed[p.id] {
		e.failed[p.id] = true
		first = true
	}
	e.mu.Unlock()
	select {
	case <-e.down:
		return // local teardown; peers are not "crashed"
	default:
	}
	if first {
		select {
		case e.fails <- p.id:
		case <-e.down:
		}
	}
}

// acceptLoop accepts inbound connections and registers them after the
// handshake identifies the peer.
func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.down:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		id, err := e.acceptHandshake(conn)
		if err != nil {
			_ = conn.Close()
			continue
		}
		e.adoptConn(id, conn)
	}
}

// readLoop decodes frames from the connection into the inbox (or, when
// a demux is installed, straight into the owning lane's inbox). The
// Reader's body buffer comes from the shared pool and goes back when
// the connection dies; every decoded value is copied out of it into an
// exact-size heap slice, because the algorithm retains values (pending
// entries, stored registers, queued forwards) long past the next read.
// The GC owns those slices, so nothing downstream has to give them back.
func (e *Endpoint) readLoop(p *peer) {
	defer e.wg.Done()
	r := wire.NewReaderSize(p.conn, e.opts.ReadBufferBytes)
	defer r.Close()
	for {
		f, err := r.ReadFrame()
		if err != nil {
			e.dropPeer(p)
			return
		}
		inb := transport.Inbound{From: p.id, Frame: f}
		ch := e.inboxFor(&inb)
		if ch == nil {
			continue // routed to RouteDrop: discard
		}
		select {
		case ch <- inb:
		case <-e.down:
			e.dropPeer(p)
			return
		}
	}
}

// writeLoop drains queued encoded frames onto the connection. Each
// wakeup gathers the first frame plus whatever else the queue holds
// into one iovec batch, up to MaxBatchBytes, and flushes it with a
// single vectored write. When the loop exits the link is closed (every exit path runs
// through shutdown), so the deferred drain releases whatever producers
// managed to queue; racing late pushes reclaim themselves
// (reclaimIfClosed).
func (e *Endpoint) writeLoop(p *peer) {
	defer e.wg.Done()
	w := newEgressWriter(p.conn, e.opts.VectoredCutoffBytes)
	defer w.close()
	defer drainOut(p)
	for {
		select {
		case ef := <-p.out:
			if err := e.writeBatch(p, w, ef); err != nil {
				e.dropPeer(p)
				return
			}
		case <-p.closed:
			return
		case <-e.down:
			e.dropPeer(p)
			return
		}
	}
}

// drainOut releases encoded frames stranded in a closed link's queue.
func drainOut(p *peer) {
	for {
		select {
		case ef := <-p.out:
			ef.Release()
		default:
			return
		}
	}
}

// writeBatch gathers first plus whatever is already queued and flushes
// the batch with one vectored write when the queue runs dry or the
// batch reaches MaxBatchBytes. A dial-only endpoint yields once the
// first time the queue runs dry and drains again before it flushes, so
// the requests its op goroutines are about to enqueue share the write;
// a Listen endpoint flushes at once (see the package doc for both
// measurements). Frames arrive already encoded, so the only per-frame
// work here is an iovec append (or a slab memcpy below the cutoff) —
// the writer goroutine no longer serializes the encoding of every
// producer behind one scratch buffer.
func (e *Endpoint) writeBatch(p *peer, w *egressWriter, first *wire.EncodedFrame) error {
	w.add(first)
	yielded := e.ln != nil // only a dial-only endpoint yields
	for w.batched < e.opts.MaxBatchBytes {
		select {
		case ef := <-p.out:
			w.add(ef)
		default:
			if yielded {
				return w.flush()
			}
			yielded = true
			runtime.Gosched()
		}
	}
	return w.flush()
}

// peer is one live TCP connection with its outbound queue of encoded
// frames.
type peer struct {
	id     wire.ProcessID
	conn   net.Conn
	out    chan *wire.EncodedFrame
	once   sync.Once
	closed chan struct{}
}

// shutdown closes the connection and releases blocked senders.
func (p *peer) shutdown() {
	p.once.Do(func() {
		close(p.closed)
		_ = p.conn.Close()
	})
}

// dialHandshake opens the dialer's side of the handshake on a fresh
// connection. Raw endpoints (no Hello) send the bare preamble and
// expect no reply. Session endpoints send their HELLO, then read the
// acceptor's status and HELLO; an incompatible peer yields a typed
// *wire.HandshakeError.
func (e *Endpoint) dialHandshake(conn net.Conn, to wire.ProcessID) error {
	if e.opts.Hello == nil {
		var buf [8]byte
		copy(buf[:4], magicRaw)
		binary.BigEndian.PutUint32(buf[4:], uint32(e.id))
		_, err := conn.Write(buf[:])
		return err
	}
	// Assemble magic + length + HELLO in one pooled buffer and one
	// write: the whole preamble leaves in a single segment instead of
	// trickling out (and allocating) per field.
	buf := wire.GetBuffer()
	b := append((*buf)[:0], magicSession...)
	b = append(b, byte(wire.HelloWireSize()))
	b = wire.AppendHello(b, e.opts.Hello)
	*buf = b
	_, err := conn.Write(b)
	wire.PutBuffer(buf)
	if err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		return fmt.Errorf("tcpnet: reading handshake reply: %w", err)
	}
	remote, err := readHelloBody(conn)
	if err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	// The compatibility check is symmetric, so validating the
	// acceptor's HELLO locally reproduces its verdict as a typed error.
	if err := e.opts.Hello.CheckCompatible(&remote); err != nil {
		return err
	}
	if status[0] != 0 {
		return fmt.Errorf("tcpnet: peer rejected handshake (status %d)", status[0])
	}
	// The HELLO asserts the peer's identity: an address-book entry
	// pointing at the wrong host would otherwise bind this link to the
	// wrong ring position (frames attributed to, and routed as if
	// from, the wrong server).
	if remote.From != to {
		return fmt.Errorf("tcpnet: dialed %d but peer identifies as %d", to, remote.From)
	}
	return nil
}

// acceptHandshake runs the acceptor's side of the handshake, returning
// the id of the peer the connection serves. Both preambles are
// recognized, and each is admitted only by its own kind of endpoint:
// the bare preamble by a raw endpoint (a session endpoint refuses it
// with the same typed wire-version error any other version skew gets),
// the HELLO by a session endpoint, which validates it and answers with
// a status byte plus its own HELLO, so the dialer learns the local
// configuration either way.
func (e *Endpoint) acceptHandshake(conn net.Conn) (wire.ProcessID, error) {
	if err := conn.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return wire.NoProcess, err
	}
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return wire.NoProcess, err
	}
	switch string(magic[:]) {
	case magicRaw:
		if e.opts.Hello != nil {
			// The bare preamble carries no version; report it as 0.
			return wire.NoProcess, &wire.HandshakeError{Field: "wire version", Local: uint64(e.opts.Hello.Version)}
		}
		var buf [4]byte
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return wire.NoProcess, err
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return wire.NoProcess, err
		}
		id := wire.ProcessID(binary.BigEndian.Uint32(buf[:]))
		if id == wire.NoProcess {
			return wire.NoProcess, errors.New("tcpnet: handshake with zero process id")
		}
		return id, nil
	case magicSession:
		if e.opts.Hello == nil {
			// A raw endpoint cannot answer a session handshake; the
			// dialer sees the close and reports the failure.
			return wire.NoProcess, errors.New("tcpnet: session handshake on raw endpoint")
		}
		remote, err := readHelloBody(conn)
		if err != nil {
			return wire.NoProcess, err
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return wire.NoProcess, err
		}
		cerr := e.opts.Hello.CheckCompatible(&remote)
		status := byte(0)
		if cerr != nil {
			status = 1
		}
		// Status + length + HELLO assembled in one pooled buffer, one
		// write — the dialer's single read deadline covers one segment.
		buf := wire.GetBuffer()
		b := append((*buf)[:0], status, byte(wire.HelloWireSize()))
		b = wire.AppendHello(b, e.opts.Hello)
		*buf = b
		_, werr := conn.Write(b)
		wire.PutBuffer(buf)
		if werr != nil {
			return wire.NoProcess, werr
		}
		if cerr != nil {
			return wire.NoProcess, cerr
		}
		return remote.From, nil
	default:
		return wire.NoProcess, fmt.Errorf("tcpnet: bad handshake magic %q", magic[:])
	}
}

// readHelloBody consumes a length-prefixed HELLO body from the
// connection (the read deadline is the caller's).
func readHelloBody(conn net.Conn) (wire.Hello, error) {
	var n [1]byte
	if _, err := io.ReadFull(conn, n[:]); err != nil {
		return wire.Hello{}, fmt.Errorf("tcpnet: reading hello length: %w", err)
	}
	// The length prefix is one byte, so a stack buffer always fits and
	// the handshake reads without allocating (DecodeHello copies).
	var body [255]byte
	if _, err := io.ReadFull(conn, body[:n[0]]); err != nil {
		return wire.Hello{}, fmt.Errorf("tcpnet: reading hello body: %w", err)
	}
	return wire.DecodeHello(body[:n[0]])
}
