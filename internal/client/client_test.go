package client

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wire"
)

// echoServer acks every request immediately with a fixed tag, optionally
// dropping the first k requests (to exercise retries).
type echoServer struct {
	ep   *transport.MemEndpoint
	drop int

	mu      sync.Mutex
	served  int
	dropped int
	stopc   chan struct{}
	wg      sync.WaitGroup
}

func startEchoServer(t *testing.T, net *transport.MemNetwork, id wire.ProcessID, drop int) *echoServer {
	t.Helper()
	ep, err := net.Register(id)
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{ep: ep, drop: drop, stopc: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	t.Cleanup(func() {
		close(s.stopc)
		s.wg.Wait()
		_ = ep.Close()
	})
	return s
}

func (s *echoServer) loop() {
	defer s.wg.Done()
	for {
		select {
		case in := <-s.ep.Inbox():
			env := in.Frame.Env
			s.mu.Lock()
			if s.dropped < s.drop {
				s.dropped++
				s.mu.Unlock()
				continue
			}
			s.served++
			s.mu.Unlock()
			ack := wire.Envelope{ReqID: env.ReqID, Tag: tag.Tag{TS: 1, ID: uint32(s.ep.ID())}}
			switch env.Kind {
			case wire.KindWriteRequest:
				ack.Kind = wire.KindWriteAck
			case wire.KindReadRequest:
				ack.Kind = wire.KindReadAck
				ack.Value = []byte("stored")
			default:
				continue
			}
			_ = s.ep.Send(in.From, wire.NewFrame(ack))
		case <-s.stopc:
			return
		}
	}
}

func (s *echoServer) servedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

func newTestClient(t *testing.T, net *transport.MemNetwork, opts Options) *Client {
	t.Helper()
	ep, err := net.Register(999)
	if err != nil {
		t.Fatal(err)
	}
	if opts.AttemptTimeout == 0 {
		opts.AttemptTimeout = 200 * time.Millisecond
	}
	cl, err := New(ep, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cl.Close()
		_ = ep.Close()
	})
	return cl
}

func TestClientWriteAndRead(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	startEchoServer(t, net, 1, 0)
	cl := newTestClient(t, net, Options{Servers: []wire.ProcessID{1}})
	ctx := context.Background()

	wt, err := cl.Write(ctx, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if wt.IsZero() {
		t.Fatal("zero write tag")
	}
	v, rt, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "stored" || rt.IsZero() {
		t.Fatalf("read %q tag %s", v, rt)
	}
}

func TestClientRetriesAfterTimeout(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	srv := startEchoServer(t, net, 1, 2) // drop the first two requests
	cl := newTestClient(t, net, Options{
		Servers:        []wire.ProcessID{1},
		AttemptTimeout: 100 * time.Millisecond,
		MaxAttempts:    5,
	})
	_, attempts, err := cl.WriteDetailed(context.Background(), 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if srv.servedCount() != 1 {
		t.Fatalf("served = %d", srv.servedCount())
	}
}

func TestClientFailsOverToNextServer(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	// Server 1 never answers (not even registered); server 2 answers.
	startEchoServer(t, net, 2, 0)
	cl := newTestClient(t, net, Options{
		Servers:        []wire.ProcessID{1, 2},
		Policy:         PolicyPinned,
		AttemptTimeout: 100 * time.Millisecond,
	})
	if _, err := cl.Write(context.Background(), 0, []byte("x")); err != nil {
		t.Fatalf("failover write: %v", err)
	}
}

func TestClientRoundRobinCyclesThroughAllServers(t *testing.T) {
	// Only the last of four servers is alive: every operation must
	// still succeed within one cycle of retries.
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	startEchoServer(t, net, 4, 0)
	cl := newTestClient(t, net, Options{
		Servers:        []wire.ProcessID{1, 2, 3, 4},
		AttemptTimeout: 50 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		if _, err := cl.Write(context.Background(), 0, []byte("x")); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestClientExhaustsAttempts(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	cl := newTestClient(t, net, Options{
		Servers:        []wire.ProcessID{1}, // never registered
		AttemptTimeout: 30 * time.Millisecond,
		MaxAttempts:    2,
	})
	_, err := cl.Write(context.Background(), 0, []byte("x"))
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestClientRespectsContext(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	// A registered but silent server keeps the attempt pending until
	// the context fires.
	if _, err := net.Register(1); err != nil {
		t.Fatal(err)
	}
	cl := newTestClient(t, net, Options{
		Servers:        []wire.ProcessID{1},
		AttemptTimeout: 10 * time.Second,
		MaxAttempts:    100,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Write(ctx, 0, []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("context deadline not honored promptly")
	}
}

func TestClientConcurrentOperations(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	startEchoServer(t, net, 1, 0)
	cl := newTestClient(t, net, Options{Servers: []wire.ProcessID{1}, AttemptTimeout: 2 * time.Second})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cl.Read(context.Background(), 0)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientCloseUnblocksOperations(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	// A registered but silent server: attempts block on the timeout.
	if _, err := net.Register(1); err != nil {
		t.Fatal(err)
	}
	ep, err := net.Register(999)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(ep, Options{
		Servers:        []wire.ProcessID{1},
		AttemptTimeout: 10 * time.Second,
		MaxAttempts:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Write(context.Background(), 0, []byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = cl.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the pending operation")
	}
	_ = ep.Close()
}

func TestClientOptionsValidation(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	ep, err := net.Register(999)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	if _, err := New(ep, Options{}); err == nil {
		t.Fatal("client without servers accepted")
	}
}

// TestClientBackoffFlappingServer drives the client against a flapping
// deployment: every server down (attempts fail fast with ErrPeerDown),
// then one heals, then the primary stays dead. The recorded backoff
// delays must grow exponentially from the base, stay inside the jitter
// window [d/2, d], respect the cap, carry the failure streak across
// operations, and reset to the base after a success.
func TestClientBackoffFlappingServer(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	for _, id := range []wire.ProcessID{1, 2} {
		if _, err := net.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	net.Crash(1)
	net.Crash(2)

	const (
		base = time.Millisecond
		cap  = 8 * time.Millisecond
	)
	cl := newTestClient(t, net, Options{
		Servers:         []wire.ProcessID{1, 2},
		Policy:          PolicyPinned,
		AttemptTimeout:  50 * time.Millisecond,
		MaxAttempts:     6,
		RetryBackoff:    base,
		RetryBackoffMax: cap,
	})
	var mu sync.Mutex
	var delays []time.Duration
	cl.sleep = func(d time.Duration) {
		mu.Lock()
		delays = append(delays, d)
		mu.Unlock()
	}
	take := func() []time.Duration {
		mu.Lock()
		defer mu.Unlock()
		out := delays
		delays = nil
		return out
	}
	inWindow := func(got, unjittered time.Duration) bool {
		return got >= unjittered/2 && got <= unjittered
	}

	ctx := context.Background()

	// Phase 1: both servers dead. Six attempts mean five backoffs whose
	// un-jittered envelope doubles from the base and clips at the cap.
	if _, err := cl.Write(ctx, 1, []byte("x")); !errors.Is(err, ErrExhausted) {
		t.Fatalf("write against dead ring: %v, want ErrExhausted", err)
	}
	got := take()
	envelope := []time.Duration{base, 2 * base, 4 * base, cap, cap}
	if len(got) != len(envelope) {
		t.Fatalf("recorded %d backoffs (%v), want %d", len(got), got, len(envelope))
	}
	for i, d := range got {
		if !inWindow(d, envelope[i]) {
			t.Fatalf("backoff %d = %v, want within [%v, %v]", i, d, envelope[i]/2, envelope[i])
		}
	}

	// Phase 2: server 2 heals. The streak carried over from phase 1, so
	// the single backoff (after the dead-primary attempt) sits at the
	// cap — then the success resets it.
	startEchoServer(t, net, 2, 0)
	if _, err := cl.Write(ctx, 1, []byte("y")); err != nil {
		t.Fatalf("write with one healed server: %v", err)
	}
	got = take()
	if len(got) != 1 || !inWindow(got[0], cap) {
		t.Fatalf("carried-streak backoff = %v, want one delay within [%v, %v]", got, cap/2, cap)
	}

	// Phase 3: primary still dead, but the last success reset the
	// streak: the next backoff is back at the base.
	if _, err := cl.Write(ctx, 1, []byte("z")); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
	got = take()
	if len(got) != 1 || !inWindow(got[0], base) {
		t.Fatalf("post-reset backoff = %v, want one delay within [%v, %v]", got, base/2, base)
	}
}

// TestClientBackoffJitterDiffersAcrossClients pins the jitter's purpose:
// two clients with the same failure streak against the same dead server
// must not sleep the same durations, or they retry in lockstep.
func TestClientBackoffJitterDiffersAcrossClients(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	if _, err := net.Register(1); err != nil {
		t.Fatal(err)
	}
	net.Crash(1)
	record := func(id wire.ProcessID) []time.Duration {
		ep, err := net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = ep.Close() }()
		cl, err := New(ep, Options{
			Servers:         []wire.ProcessID{1},
			AttemptTimeout:  50 * time.Millisecond,
			MaxAttempts:     6,
			RetryBackoff:    time.Millisecond,
			RetryBackoffMax: 8 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = cl.Close() }()
		var delays []time.Duration
		cl.sleep = func(d time.Duration) { delays = append(delays, d) }
		if _, err := cl.Write(context.Background(), 0, []byte("x")); !errors.Is(err, ErrExhausted) {
			t.Fatalf("client %d: err = %v, want ErrExhausted", id, err)
		}
		return delays
	}
	a, b := record(100), record(101)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("recorded %d and %d backoffs, want 5 each", len(a), len(b))
	}
	if slices.Equal(a, b) {
		t.Fatalf("clients 100 and 101 drew identical backoffs %v", a)
	}
}

// TestClientBackoffDisabled pins the opt-out: a negative RetryBackoff
// retries immediately, never touching the sleep hook.
func TestClientBackoffDisabled(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	cl := newTestClient(t, net, Options{
		Servers:        []wire.ProcessID{1}, // never registered
		AttemptTimeout: 30 * time.Millisecond,
		MaxAttempts:    3,
		RetryBackoff:   -1,
	})
	cl.sleep = func(d time.Duration) {
		t.Errorf("backoff slept %v with backoff disabled", d)
	}
	if _, err := cl.Write(context.Background(), 0, []byte("x")); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

// TestClientNewStartsNoGoroutine: acks are delivered on the transport's
// goroutine, so a client owns no goroutine of its own.
func TestClientNewStartsNoGoroutine(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	ep, err := net.Register(999)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	before := runtime.NumGoroutine()
	cl, err := New(ep, Options{Servers: []wire.ProcessID{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
}

// plainEndpoint hides every method but transport.Endpoint's.
type plainEndpoint struct{ transport.Endpoint }

func TestClientNewRequiresDemuxer(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	ep, err := net.Register(999)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.Close() }()
	if _, err := New(plainEndpoint{ep}, Options{Servers: []wire.ProcessID{1}}); err == nil {
		t.Fatal("endpoint without a demux accepted")
	}
}

// TestClientCloseRacingAcks closes clients while a server floods them
// with acks, each sent four times. The route sends on an operation's
// channel while Close closes those channels; run under -race, a send
// that escaped the client's lock would panic or be reported.
func TestClientCloseRacingAcks(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{})
	srv, err := net.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() {
		defer srvWG.Done()
		for {
			select {
			case in := <-srv.Inbox():
				ack := wire.NewFrame(wire.Envelope{Kind: wire.KindWriteAck, ReqID: in.Frame.Env.ReqID, Tag: tag.Tag{TS: 1, ID: 1}})
				for range 4 {
					_ = srv.Send(in.From, ack)
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		srvWG.Wait()
		_ = srv.Close()
	}()

	for round := range 20 {
		ep, err := net.Register(wire.ProcessID(1000 + round))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := New(ep, Options{Servers: []wire.ProcessID{1}, AttemptTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := cl.Write(context.Background(), 0, []byte("x")); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("write: %v", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		_ = cl.Close()
		wg.Wait()
		_ = ep.Close()
	}
}

// TestClientDropsStrayFrames: non-ack frames, acks for unknown request
// ids, duplicate acks and late acks are all dropped on the delivering
// goroutine, so a non-blocking send to the client never fails for want
// of inbox room — even far past the inbox's capacity — and the pending
// operation completes with the first ack it was sent.
func TestClientDropsStrayFrames(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkOptions{InboxCapacity: 4})
	srv, err := net.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl := newTestClient(t, net, Options{Servers: []wire.ProcessID{1}, AttemptTimeout: 5 * time.Second})

	type outcome struct {
		tag tag.Tag
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		tg, err := cl.Write(context.Background(), 0, []byte("x"))
		done <- outcome{tg, err}
	}()
	var req wire.Envelope
	select {
	case in := <-srv.Inbox():
		req = in.Frame.Env
	case <-time.After(5 * time.Second):
		t.Fatal("no request arrived")
	}
	send := func(env wire.Envelope) {
		t.Helper()
		if !srv.TrySend(999, wire.NewFrame(env)) {
			t.Fatalf("non-blocking send of %v (req %d) refused", env.Kind, env.ReqID)
		}
	}
	for i := range 100 {
		send(wire.Envelope{Kind: wire.KindWriteRequest, ReqID: req.ReqID})
		send(wire.Envelope{Kind: wire.KindReadAck, ReqID: req.ReqID + 1 + uint64(i)})
	}
	send(wire.Envelope{Kind: wire.KindWriteAck, ReqID: req.ReqID, Tag: tag.Tag{TS: 5, ID: 1}})
	send(wire.Envelope{Kind: wire.KindWriteAck, ReqID: req.ReqID, Tag: tag.Tag{TS: 6, ID: 1}})
	select {
	case o := <-done:
		if o.err != nil || o.tag != (tag.Tag{TS: 5, ID: 1}) {
			t.Fatalf("write = %v, %v; want the first ack's tag 5.1", o.tag, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never completed")
	}
	send(wire.Envelope{Kind: wire.KindWriteAck, ReqID: req.ReqID, Tag: tag.Tag{TS: 7, ID: 1}})
	if n := len(cl.ep.Inbox()); n != 0 {
		t.Fatalf("%d frames reached the client endpoint's inbox", n)
	}
}
