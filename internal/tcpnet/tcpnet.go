// Package tcpnet implements the transport.Endpoint abstraction over real
// TCP connections, mirroring the paper's deployment: every server keeps
// TCP connections to its ring successor, clients connect to a server of
// their choice, and a broken connection is interpreted as a crash of the
// peer (the perfect failure detector of the paper's cluster model).
//
// Connections open with a session handshake (DESIGN.md §8): endpoints
// configured with a wire.Hello exchange versioned HELLOs carrying the
// wire version, lane fanout, ring-membership hash, and capabilities,
// and reject incompatible peers at connect time with a typed
// *wire.HandshakeError. When both ends negotiate wire.CapLaneLinks,
// each ring lane gets its own dedicated connection to the successor
// (transport.LaneSender), pinned to its lane at handshake time, so
// lanes stop head-of-line-blocking each other on one shared socket and
// the receiver demultiplexes by negotiated lane instead of trusting the
// frame header. Endpoints without a Hello are raw: they open with a bare
// preamble (magic + process id, nothing validated) and talk only to
// each other — a session endpoint refuses the bare preamble, and a raw
// endpoint cannot answer a HELLO.
//
// Connections are created lazily on first send and cached. Each
// connection has one reader and one writer goroutine; the bounded
// outbound queue gives senders the same backpressure semantics as the
// in-memory transport. Acks to clients travel back on the connection the
// client opened, so clients need no listener.
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
// encoding work serialized on the writer. The writer never waits for
// stragglers, so an idle connection flushes every frame immediately
// (a flush wait cost 15–20 % at every batch size on loopback,
// EXPERIMENTS.md "batch re-tune"). Encode buffers, the slab,
// and inbound frame bodies come from the wire package's buffer pool,
// keeping the per-message path allocation-free in steady state.
// DESIGN.md §14 states the buffer-ownership rules end to end.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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

// laneGeneral is the link lane of connections not pinned to a ring
// lane: client connections, control traffic, and every connection of a
// raw or lane-unaware peer.
const laneGeneral = -1

// Options configure a TCP endpoint.
type Options struct {
	// Hello, when set, switches the endpoint to session mode: every
	// dialed connection opens with this HELLO (its Link field rewritten
	// per connection), accepted connections must present a compatible
	// one, and mismatches fail with a typed *wire.HandshakeError. Nil
	// makes a raw endpoint: bare preamble, no validation, no per-lane
	// links, reachable only from other raw endpoints.
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

// linkKey identifies one logical link: a peer process and the ring lane
// the connection is pinned to (laneGeneral when unpinned).
type linkKey struct {
	id   wire.ProcessID
	lane int
}

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
	peers  map[linkKey]*peer
	extras []*peer // duplicate conns from simultaneous dials: read-only
	failed map[wire.ProcessID]bool
	// caps records each peer's capability bitmap as learned from its
	// HELLO (either direction); a present entry with zero caps is a raw
	// or capability-less peer. SendLane consults it to decide between
	// the lane link and the general link.
	caps map[wire.ProcessID]uint32

	wg sync.WaitGroup
}

var (
	_ transport.Endpoint   = (*Endpoint)(nil)
	_ transport.Demuxer    = (*Endpoint)(nil)
	_ transport.LaneSender = (*Endpoint)(nil)
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
		h := *opts.Hello // private copy; Link is rewritten per connection
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
		peers:  make(map[linkKey]*peer),
		failed: make(map[wire.ProcessID]bool),
		caps:   make(map[wire.ProcessID]uint32),
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
	e.peers = make(map[linkKey]*peer)
	e.extras = nil
	e.mu.Unlock()
	for _, p := range peers {
		p.shutdown()
	}
	e.wg.Wait()
	return nil
}

// Send implements transport.Endpoint: the frame travels the general
// (unpinned) link to the peer.
func (e *Endpoint) Send(to wire.ProcessID, f wire.Frame) error {
	return e.send(to, laneGeneral, f)
}

// SendLane implements transport.LaneSender: the frame travels the
// dedicated connection of the given ring lane when the session with the
// peer negotiated wire.CapLaneLinks, and the general link otherwise
// (raw peers, lane-unaware peers). The first SendLane to a peer may
// open the general link just to learn the peer's capabilities; in
// steady state an established lane link costs one lock acquisition,
// the same as a plain Send.
func (e *Endpoint) SendLane(to wire.ProcessID, lane int, f wire.Frame) error {
	if lane < 0 || e.opts.Hello == nil || e.opts.Hello.Capabilities&wire.CapLaneLinks == 0 {
		return e.send(to, laneGeneral, f)
	}
	select {
	case <-e.down:
		return transport.ErrClosed
	default:
	}
	// Fast path: an established lane link proves the capability was
	// negotiated, so skip the caps lookup.
	e.mu.Lock()
	p, live := e.peers[linkKey{id: to, lane: lane}]
	caps, known := e.caps[to]
	e.mu.Unlock()
	if live {
		return e.enqueue(p, to, f)
	}
	if !known {
		if _, err := e.peerFor(to, laneGeneral); err != nil {
			return err
		}
		caps = e.peerCaps(to)
	}
	if caps&wire.CapLaneLinks == 0 {
		lane = laneGeneral
	}
	return e.send(to, lane, f)
}

// TrySend implements transport.TrySender: the frame is encoded on this
// goroutine (the ack fast path's whole point is that the producing
// goroutine does the work) and pushed onto the general link's outbound
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
	p := e.peers[linkKey{id: to, lane: laneGeneral}]
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
// reuses) the general link to the peer, returning a typed
// *wire.HandshakeError when the peer's HELLO is incompatible.
func (e *Endpoint) Handshake(to wire.ProcessID) error {
	select {
	case <-e.down:
		return transport.ErrClosed
	default:
	}
	_, err := e.peerFor(to, laneGeneral)
	return err
}

// send queues the frame on the link's outbound queue.
func (e *Endpoint) send(to wire.ProcessID, lane int, f wire.Frame) error {
	select {
	case <-e.down:
		return transport.ErrClosed
	default:
	}
	p, err := e.peerFor(to, lane)
	if err != nil {
		return err
	}
	return e.enqueue(p, to, f)
}

// enqueue encodes the frame on the calling goroutine and hands the
// pooled encoded buffer to the link's writer. The encode snapshots the
// frame's value bytes, so any pooled value the frame aliases is free
// the moment enqueue returns — the §10 alias lifetime now ends at a
// point the producer can see, instead of at some later encode on the
// writer goroutine (DESIGN.md §14).
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

// peerCaps returns the peer's capability bitmap; zero until a handshake
// with it has completed in either direction.
func (e *Endpoint) peerCaps(to wire.ProcessID) uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.caps[to]
}

// recordCaps remembers the peer's capability bitmap.
func (e *Endpoint) recordCaps(id wire.ProcessID, caps uint32) {
	e.mu.Lock()
	e.caps[id] = caps
	e.mu.Unlock()
}

// peerFor returns the cached connection for the link, dialing and
// handshaking if necessary.
func (e *Endpoint) peerFor(to wire.ProcessID, lane int) (*peer, error) {
	key := linkKey{id: to, lane: lane}
	e.mu.Lock()
	if p, ok := e.peers[key]; ok {
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
	if err := e.dialHandshake(conn, to, lane); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("tcpnet: handshake with %d: %w", to, err)
	}
	return e.adoptConn(key, conn), nil
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

// adoptConn registers a live connection for the link and starts its
// reader and writer goroutines. If a connection for the link already
// exists (simultaneous dials), the new one is still served for reading
// but the cached one keeps handling sends.
func (e *Endpoint) adoptConn(key linkKey, conn net.Conn) *peer {
	p := &peer{
		key:    key,
		conn:   conn,
		out:    make(chan *wire.EncodedFrame, e.opts.SendQueueCapacity),
		closed: make(chan struct{}),
	}
	e.mu.Lock()
	if existing, ok := e.peers[key]; ok {
		e.extras = append(e.extras, p)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(p) // serve inbound on the duplicate, never write
		return existing
	}
	e.peers[key] = p
	e.mu.Unlock()
	e.wg.Add(2)
	go e.readLoop(p)
	go e.writeLoop(p)
	return p
}

// dropPeer removes the link from the cache and reports the peer's
// failure once. In this model any broken connection means the peer
// crashed, so the first broken link carries the news; the peer's other
// links die on their own as their reads and writes fail.
func (e *Endpoint) dropPeer(p *peer) {
	p.shutdown()
	e.mu.Lock()
	first := false
	cached := e.peers[p.key] == p
	if cached {
		delete(e.peers, p.key)
	}
	// Drop the learned capabilities with the peer's last link, so the
	// caps map never outgrows the live peer set (client churn would
	// otherwise accumulate one entry per client ever connected).
	lastLink := true
	for k := range e.peers {
		if k.id == p.key.id {
			lastLink = false
			break
		}
	}
	if lastLink {
		delete(e.caps, p.key.id)
	}
	// failed exists to stop peerFor redialing a crashed server, and
	// peerFor only dials ids in the address book; recording anyone else
	// would grow the map by one entry per client that ever disconnected.
	// A client's only link is the one it dialed, so its departure is
	// reported by whichever of that link's two loops uncaches it.
	if _, dialable := e.book[p.key.id]; !dialable {
		first = cached
	} else if !e.failed[p.key.id] {
		e.failed[p.key.id] = true
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
		case e.fails <- p.key.id:
		case <-e.down:
		}
	}
}

// acceptLoop accepts inbound connections and registers them after the
// handshake identifies the peer and the link's lane.
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
		key, err := e.acceptHandshake(conn)
		if err != nil {
			_ = conn.Close()
			continue
		}
		e.adoptConn(key, conn)
	}
}

// readLoop decodes frames from the connection into the inbox (or, when
// a demux is installed, straight into the owning lane's inbox). The
// Reader's body buffer comes from the shared pool and goes back when
// the connection dies. A demuxed endpoint belongs to a lane server that
// honors the pooled-value retire contract, so its frames copy values
// into pooled owned buffers (the algorithm retains values indefinitely,
// so they must outlive the body buffer) and the server returns each
// buffer when it retires the value; endpoints without a demux (clients,
// raw transport users) keep exact-size allocations, since their
// consumers never retire and a pooled copy would just waste a
// pool-sized buffer per message.
func (e *Endpoint) readLoop(p *peer) {
	defer e.wg.Done()
	r := wire.NewReaderSize(p.conn, e.opts.ReadBufferBytes)
	defer r.Close()
	pooled := false
	for {
		if !pooled && e.demux.Load() != nil {
			r.PoolValues()
			pooled = true
		}
		f, err := r.ReadFrame()
		if err != nil {
			e.dropPeer(p)
			return
		}
		inb := transport.Inbound{From: p.key.id, Frame: f, LinkLane: p.key.lane + 1}
		ch := e.inboxFor(&inb)
		if ch == nil {
			// Routed to RouteDrop: discard, returning pooled buffers.
			inb.Frame.Retire()
			continue
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
// the batch with one vectored write the moment the queue runs dry or
// the batch reaches MaxBatchBytes. Frames arrive already encoded, so
// the only per-frame work here is an iovec append (or a slab memcpy
// below the cutoff) — the writer goroutine no longer serializes the
// encoding of every producer behind one scratch buffer.
func (e *Endpoint) writeBatch(p *peer, w *egressWriter, first *wire.EncodedFrame) error {
	w.add(first)
	for w.batched < e.opts.MaxBatchBytes {
		select {
		case ef := <-p.out:
			w.add(ef)
		default:
			return w.flush()
		}
	}
	return w.flush()
}

// peer is one live TCP connection with its outbound queue of encoded
// frames.
type peer struct {
	key    linkKey
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
// expect no reply. Session
// endpoints send their HELLO — pinned to the link's lane — then read
// the acceptor's status and HELLO; an incompatible peer yields a typed
// *wire.HandshakeError.
func (e *Endpoint) dialHandshake(conn net.Conn, to wire.ProcessID, lane int) error {
	if e.opts.Hello == nil {
		var buf [8]byte
		copy(buf[:4], magicRaw)
		binary.BigEndian.PutUint32(buf[4:], uint32(e.id))
		_, err := conn.Write(buf[:])
		return err
	}
	h := *e.opts.Hello
	h.Link = wire.LinkGeneral
	if lane >= 0 {
		h.Link = uint16(lane)
	}
	// Assemble magic + length + HELLO in one pooled buffer and one
	// write: the whole preamble leaves in a single segment instead of
	// trickling out (and allocating) per field.
	buf := wire.GetBuffer()
	b := append((*buf)[:0], magicSession...)
	b = append(b, byte(wire.HelloWireSize()))
	b = wire.AppendHello(b, &h)
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
	e.recordCaps(to, remote.Capabilities)
	return nil
}

// acceptHandshake runs the acceptor's side of the handshake, returning
// the link key the connection serves. Both preambles are recognized,
// and each is admitted only by its own kind of endpoint: the bare
// preamble by a raw endpoint (a session endpoint refuses it with the
// same typed wire-version error any other version skew gets), the
// HELLO by a session endpoint, which validates it and answers with a
// status byte plus its own HELLO, so the dialer learns the local
// configuration either way.
func (e *Endpoint) acceptHandshake(conn net.Conn) (linkKey, error) {
	if err := conn.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return linkKey{}, err
	}
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return linkKey{}, err
	}
	switch string(magic[:]) {
	case magicRaw:
		if e.opts.Hello != nil {
			// The bare preamble carries no version; report it as 0.
			return linkKey{}, &wire.HandshakeError{Field: "wire version", Local: uint64(e.opts.Hello.Version)}
		}
		var buf [4]byte
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			return linkKey{}, err
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return linkKey{}, err
		}
		id := wire.ProcessID(binary.BigEndian.Uint32(buf[:]))
		if id == wire.NoProcess {
			return linkKey{}, errors.New("tcpnet: handshake with zero process id")
		}
		e.recordCaps(id, 0)
		return linkKey{id: id, lane: laneGeneral}, nil
	case magicSession:
		if e.opts.Hello == nil {
			// A raw endpoint cannot answer a session handshake; the
			// dialer sees the close and reports the failure.
			return linkKey{}, errors.New("tcpnet: session handshake on raw endpoint")
		}
		remote, err := readHelloBody(conn)
		if err != nil {
			return linkKey{}, err
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return linkKey{}, err
		}
		cerr := e.opts.Hello.CheckCompatible(&remote)
		// A pinned link must name a lane this endpoint actually has.
		// After a passed compatibility check this only catches peers
		// that dodge the lane check by declaring Lanes=0 yet pin a
		// link anyway — honoring the pin would hand them an arbitrary
		// real lane's demux slot.
		if cerr == nil && remote.Link != wire.LinkGeneral &&
			(remote.Lanes == 0 || e.opts.Hello.Lanes == 0 || remote.Link >= e.opts.Hello.Lanes) {
			cerr = fmt.Errorf("tcpnet: link pinned to lane %d outside local fanout %d",
				remote.Link, e.opts.Hello.Lanes)
		}
		reply := *e.opts.Hello
		reply.Link = remote.Link // confirm the lane the dialer asked for
		status := byte(0)
		if cerr != nil {
			status = 1
		}
		// Status + length + HELLO assembled in one pooled buffer, one
		// write — the dialer's single read deadline covers one segment.
		buf := wire.GetBuffer()
		b := append((*buf)[:0], status, byte(wire.HelloWireSize()))
		b = wire.AppendHello(b, &reply)
		*buf = b
		_, werr := conn.Write(b)
		wire.PutBuffer(buf)
		if werr != nil {
			return linkKey{}, werr
		}
		if cerr != nil {
			return linkKey{}, cerr
		}
		lane := laneGeneral
		if remote.Link != wire.LinkGeneral {
			lane = int(remote.Link)
		}
		e.recordCaps(remote.From, remote.Capabilities)
		return linkKey{id: remote.From, lane: lane}, nil
	default:
		return linkKey{}, fmt.Errorf("tcpnet: bad handshake magic %q", magic[:])
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
