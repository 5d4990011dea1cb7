// Package client provides the client side of the atomic storage: a Client
// issues read and write operations against any server of the ring,
// correlates acknowledgements, and — as prescribed by the paper — re-issues
// a request to another server when the contacted server does not answer
// in time ("clients do not directly detect the failure of a server, but
// when their request times out, they simply re-send it to another
// server"). Any number of operations may be issued concurrently from one
// Client; each is matched to its ack by a request id.
//
// A Client runs no goroutine of its own. New installs a route on the
// endpoint (transport.Demuxer), so each ack is handed to its waiting
// operation on the transport goroutine that delivered it — tcpnet's
// read loop, or under memnet the sending server's goroutine — and then
// dropped; nothing ever reaches the endpoint's Inbox. That saves one
// goroutine hand-off per ack, and with it one scheduler wake-up.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client errors.
var (
	// ErrClosed is returned for operations on a closed client.
	ErrClosed = errors.New("client: closed")
	// ErrExhausted is returned when every attempt timed out.
	ErrExhausted = errors.New("client: all servers timed out")
)

// Policy selects which server serves the next request.
type Policy uint8

// Server-selection policies.
const (
	// PolicyRoundRobin spreads requests over all servers, the paper's
	// load-generation setup.
	PolicyRoundRobin Policy = iota + 1
	// PolicyPinned always contacts Servers[0] first (falls over on
	// timeout like the others). Useful to drive a chosen server.
	PolicyPinned
)

// Options configure a Client.
type Options struct {
	// Servers lists the ring members the client may contact. Required.
	Servers []wire.ProcessID
	// Policy selects the server-selection policy; zero means round-robin.
	Policy Policy
	// AttemptTimeout bounds a single request attempt before the client
	// re-sends to another server. Zero means 2s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds the number of servers tried per operation.
	// Zero means one attempt per configured server, twice around.
	MaxAttempts int
	// RetryBackoff is the base delay inserted before a failover retry.
	// It grows exponentially with the client's consecutive-failure
	// streak (which spans operations), is jittered into [d/2, d] to
	// de-synchronize clients hammering the same dead server, is capped
	// by RetryBackoffMax, and resets on any success. Zero means 2ms;
	// negative disables backoff (retries fire immediately, the
	// pre-backoff behavior some latency-sensitive tests rely on).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the grown backoff delay. Zero means 250ms.
	RetryBackoffMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.Policy == 0 {
		o.Policy = PolicyRoundRobin
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2 * len(o.Servers)
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 2 * time.Millisecond
	} else if o.RetryBackoff < 0 {
		o.RetryBackoff = 0 // disabled
	}
	if o.RetryBackoffMax <= 0 {
		o.RetryBackoffMax = 250 * time.Millisecond
	}
	return o
}

// result is the outcome of one operation, delivered by deliver on the
// transport's goroutine.
type result struct {
	value []byte
	tag   tag.Tag
}

// Client issues atomic reads and writes over a transport endpoint.
type Client struct {
	ep   transport.Endpoint
	opts Options

	mu         sync.Mutex
	nextReq    uint64
	rrIndex    int
	rng        *rand.Rand
	inflight   map[uint64]chan result
	failStreak int // consecutive failed attempts, spans operations

	// sleep, when non-nil, replaces the real backoff wait (test hook).
	sleep func(time.Duration)

	stopOnce sync.Once
	stopc    chan struct{}
}

// New creates a client over the endpoint and installs its ack route
// there. The endpoint must implement transport.Demuxer (both tcpnet and
// memnet do), must serve no other Client, and must not have sent a
// request yet, so no ack can be waiting in its Inbox.
func New(ep transport.Endpoint, opts Options) (*Client, error) {
	if len(opts.Servers) == 0 {
		return nil, errors.New("client: no servers configured")
	}
	d, ok := ep.(transport.Demuxer)
	if !ok {
		return nil, fmt.Errorf("client: endpoint %T cannot route inbound frames (no transport.Demuxer)", ep)
	}
	opts = opts.withDefaults()
	c := &Client{
		ep:   ep,
		opts: opts,
		// Seeding the backoff jitter from the process id keeps replays
		// deterministic while still de-synchronizing distinct clients.
		rng:      rand.New(rand.NewSource(int64(ep.ID()))),
		inflight: make(map[uint64]chan result),
		stopc:    make(chan struct{}),
	}
	d.SetDemux(c.deliver, nil)
	return c, nil
}

// Close fails every pending operation with ErrClosed. It does not close
// the endpoint; the caller owns it, and acks it still delivers are
// dropped.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stopc) })
	c.mu.Lock()
	for id, ch := range c.inflight {
		close(ch)
		delete(c.inflight, id)
	}
	c.mu.Unlock()
	return nil
}

// Write stores value in the given object, returning the tag the write was
// ordered at. It blocks until the write is acknowledged (meaning every
// available server stores the value) or ctx/attempts run out.
func (c *Client) Write(ctx context.Context, object wire.ObjectID, value []byte) (tag.Tag, error) {
	t, _, err := c.WriteDetailed(ctx, object, value)
	return t, err
}

// WriteDetailed is Write plus the number of attempts made. When attempts
// is greater than one, earlier timed-out attempts may have taken effect
// without an acknowledgement (each re-send is a fresh write of the same
// value); linearizability validation must treat those as incomplete
// ghost writes.
func (c *Client) WriteDetailed(ctx context.Context, object wire.ObjectID, value []byte) (tag.Tag, int, error) {
	env := wire.Envelope{
		Kind:   wire.KindWriteRequest,
		Object: object,
		// memnet hands frames over by reference, so without this copy
		// the servers would store the caller's buffer, which the caller
		// may reuse once Write returns.
		Value: append([]byte(nil), value...),
	}
	res, attempts, err := c.do(ctx, env)
	if err != nil {
		return tag.Zero, attempts, err
	}
	return res.tag, attempts, nil
}

// Read returns the current value of the object and the tag it was written
// at. A zero tag with a nil value means the object was never written.
func (c *Client) Read(ctx context.Context, object wire.ObjectID) ([]byte, tag.Tag, error) {
	env := wire.Envelope{
		Kind:   wire.KindReadRequest,
		Object: object,
	}
	res, _, err := c.do(ctx, env)
	if err != nil {
		return nil, tag.Zero, err
	}
	return res.value, res.tag, nil
}

// do runs one operation with per-attempt timeout and server failover,
// returning the number of attempts made.
func (c *Client) do(ctx context.Context, env wire.Envelope) (result, int, error) {
	var lastErr error = ErrExhausted
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		select {
		case <-ctx.Done():
			return result{}, attempt, ctx.Err()
		case <-c.stopc:
			return result{}, attempt, ErrClosed
		default:
		}
		server := c.pickServer(attempt)
		res, err := c.attempt(ctx, server, env)
		if err == nil {
			c.mu.Lock()
			c.failStreak = 0
			c.mu.Unlock()
			return res, attempt + 1, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return result{}, attempt + 1, ctx.Err()
		}
		if errors.Is(err, ErrClosed) {
			return result{}, attempt + 1, err
		}
		d := c.nextBackoff()
		if d > 0 && attempt+1 < c.opts.MaxAttempts {
			if err := c.backoffWait(ctx, d); err != nil {
				return result{}, attempt + 1, err
			}
		}
	}
	return result{}, c.opts.MaxAttempts, fmt.Errorf("%w (last: %v)", ErrExhausted, lastErr)
}

// attempt sends the request to one server and waits for its ack.
func (c *Client) attempt(ctx context.Context, server wire.ProcessID, env wire.Envelope) (result, error) {
	reqID, ch := c.register()
	defer c.unregister(reqID)
	env.ReqID = reqID

	if err := c.ep.Send(server, wire.NewFrame(env)); err != nil {
		return result{}, fmt.Errorf("client: send to %d: %w", server, err)
	}
	timer := time.NewTimer(c.opts.AttemptTimeout)
	defer timer.Stop()
	select {
	case res, ok := <-ch:
		if !ok {
			return result{}, ErrClosed
		}
		return res, nil
	case <-timer.C:
		return result{}, fmt.Errorf("client: server %d timed out", server)
	case <-ctx.Done():
		return result{}, ctx.Err()
	case <-c.stopc:
		return result{}, ErrClosed
	}
}

// nextBackoff records one more failed attempt and returns the jittered
// delay to wait before the next one: the base backoff doubled per prior
// consecutive failure, capped, then drawn uniformly from [d/2, d].
// Returns 0 when backoff is disabled.
func (c *Client) nextBackoff() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failStreak++
	base := c.opts.RetryBackoff
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < c.failStreak && d < c.opts.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.RetryBackoffMax {
		d = c.opts.RetryBackoffMax
	}
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
}

// backoffWait sleeps for d, honoring cancellation and Close.
func (c *Client) backoffWait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		c.sleep(d)
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.stopc:
		return ErrClosed
	}
}

// register allocates a request id and its reply channel.
func (c *Client) register() (uint64, chan result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextReq++
	id := c.nextReq
	ch := make(chan result, 1)
	c.inflight[id] = ch
	return id, ch
}

// unregister forgets a request id (late acks are dropped).
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, id)
}

// pickServer applies the selection policy; retries always move to the
// next server so a dead one is skipped.
func (c *Client) pickServer(attempt int) wire.ProcessID {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.opts.Servers)
	switch c.opts.Policy {
	case PolicyPinned:
		return c.opts.Servers[attempt%n]
	default: // PolicyRoundRobin
		// Advance by exactly one per attempt so retries cycle through
		// every server (a stride of two could ping-pong between two
		// crashed servers forever).
		c.rrIndex++
		return c.opts.Servers[c.rrIndex%n]
	}
}

// deliver is the endpoint's route (transport.RouteFunc): it hands an
// ack to its waiting operation and drops every frame. It runs on the
// delivering goroutine — under memnet that is the sending server's — so
// it never blocks: one short critical section and a send that gives up
// when the slot is taken. The send happens under c.mu because Close
// closes the waiting channels under it; without the lock an ack racing
// Close could send on a closed channel.
func (c *Client) deliver(in *transport.Inbound) int {
	env := &in.Frame.Env
	if env.Kind != wire.KindWriteAck && env.Kind != wire.KindReadAck {
		return transport.RouteDrop
	}
	c.mu.Lock()
	if ch := c.inflight[env.ReqID]; ch != nil { // nil: a late ack after a retry
		select {
		case ch <- result{value: env.Value, tag: env.Tag}:
		default: // duplicate ack
		}
	}
	c.mu.Unlock()
	return transport.RouteDrop
}
