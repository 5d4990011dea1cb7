package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tag"
	"repro/internal/transport"
	"repro/internal/wire"
)

// newCluster starts n server endpoints on loopback and returns them with
// a shared address book.
func newCluster(t *testing.T, n int) ([]*Endpoint, AddressBook) {
	return newClusterOpts(t, n, Options{})
}

// newClusterOpts is newCluster with explicit endpoint options.
func newClusterOpts(t *testing.T, n int, opts Options) ([]*Endpoint, AddressBook) {
	t.Helper()
	book := make(AddressBook)
	eps := make([]*Endpoint, n)
	for i := 0; i < n; i++ {
		id := wire.ProcessID(i + 1)
		ep, err := Listen(id, "127.0.0.1:0", book, opts)
		if err != nil {
			t.Fatalf("listen %d: %v", id, err)
		}
		eps[i] = ep
		book[id] = ep.Addr()
		t.Cleanup(func() { _ = ep.Close() })
	}
	// Every endpoint got a copy of the book at creation time; rebuild
	// them now that all addresses are known.
	for i, ep := range eps {
		_ = ep.Close()
		id := wire.ProcessID(i + 1)
		ep2, err := Listen(id, book[id], book, opts)
		if err != nil {
			t.Fatalf("relisten %d: %v", id, err)
		}
		eps[i] = ep2
		t.Cleanup(func() { _ = ep2.Close() })
	}
	return eps, book
}

func frame(req uint64) wire.Frame {
	return wire.NewFrame(wire.Envelope{Kind: wire.KindReadRequest, ReqID: req})
}

func recvOne(t *testing.T, ep *Endpoint) transport.Inbound {
	t.Helper()
	select {
	case in := <-ep.Inbox():
		return in
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a frame")
		return transport.Inbound{}
	}
}

func TestServerToServerRoundTrip(t *testing.T) {
	eps, _ := newCluster(t, 2)
	if err := eps[0].Send(2, frame(7)); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, eps[1])
	if in.From != 1 || in.Frame.Env.ReqID != 7 {
		t.Fatalf("got %+v", in)
	}
	// Reply travels back over the same connection pair.
	if err := eps[1].Send(1, frame(8)); err != nil {
		t.Fatal(err)
	}
	in = recvOne(t, eps[0])
	if in.From != 2 || in.Frame.Env.ReqID != 8 {
		t.Fatalf("got %+v", in)
	}
}

func TestClientRequestReply(t *testing.T) {
	eps, book := newCluster(t, 1)
	cl := NewClient(100, book, Options{})
	t.Cleanup(func() { _ = cl.Close() })

	if err := cl.Send(1, frame(1)); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, eps[0])
	if in.From != 100 {
		t.Fatalf("server saw sender %d", in.From)
	}
	// The server replies to the client without the client being in the
	// address book: the inbound connection is reused.
	if err := eps[0].Send(100, frame(2)); err != nil {
		t.Fatal(err)
	}
	in = recvOne(t, cl)
	if in.From != 1 || in.Frame.Env.ReqID != 2 {
		t.Fatalf("client got %+v", in)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	_, book := newCluster(t, 1)
	cl := NewClient(100, book, Options{})
	t.Cleanup(func() { _ = cl.Close() })
	err := cl.Send(55, frame(1))
	if !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestPeerCloseIsDetectedAsFailure(t *testing.T) {
	eps, _ := newCluster(t, 2)
	// Establish the connection first.
	if err := eps[0].Send(2, frame(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, eps[1])

	// Closing endpoint 2 models its crash: endpoint 1 must detect it.
	_ = eps[1].Close()
	select {
	case id := <-eps[0].Failures():
		if id != 2 {
			t.Fatalf("failure notice for %d, want 2", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no failure notice after peer close")
	}
	// Further sends to the failed peer report it down.
	var err error
	for i := 0; i < 50; i++ {
		if err = eps[0].Send(2, frame(2)); err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err == nil {
		t.Fatal("send to crashed peer kept succeeding")
	}
}

// TestClientChurnKeepsFailureBookBounded connects and closes a thousand
// distinct client ids against one server: each departure is reported,
// but only ids the server could ever dial (its address book) may be
// remembered as failed — and remembering those still reports a crashed
// server exactly once.
func TestClientChurnKeepsFailureBookBounded(t *testing.T) {
	eps, book := newCluster(t, 2)
	srv := eps[0]
	const clients = 1000
	for i := 0; i < clients; i++ {
		id := wire.ProcessID(5000 + i)
		cl := NewClient(id, book, Options{})
		if err := cl.Send(1, frame(uint64(i))); err != nil {
			t.Fatalf("client %d send: %v", id, err)
		}
		recvOne(t, srv)
		_ = cl.Close()
		select {
		case got := <-srv.Failures():
			if got != id {
				t.Fatalf("failure notice for %d, want departed client %d", got, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d's departure never reported", id)
		}
	}

	if err := srv.Send(2, frame(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, eps[1])
	_ = eps[1].Close()
	select {
	case got := <-srv.Failures():
		if got != 2 {
			t.Fatalf("failure notice for %d, want crashed server 2", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server crash never reported")
	}
	// Both loops of the broken link run dropPeer; only one may report.
	select {
	case got := <-srv.Failures():
		t.Fatalf("second failure notice (%d) for one crash", got)
	case <-time.After(50 * time.Millisecond):
	}
	srv.mu.Lock()
	remembered, live := len(srv.failed), len(srv.peers)
	srv.mu.Unlock()
	if remembered > len(book) {
		t.Fatalf("failed map holds %d ids after %d client departures, book has %d", remembered, clients, len(book))
	}
	if live != 0 {
		t.Fatalf("%d link entries outlive their peers", live)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	eps, _ := newCluster(t, 2)
	val := make([]byte, 1<<20)
	for i := range val {
		val[i] = byte(i)
	}
	env := wire.Envelope{Kind: wire.KindWriteRequest, ReqID: 9, Value: val}
	if err := eps[0].Send(2, wire.NewFrame(env)); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, eps[1])
	if len(in.Frame.Env.Value) != len(val) {
		t.Fatalf("payload size %d, want %d", len(in.Frame.Env.Value), len(val))
	}
	for i := 0; i < len(val); i += 4099 {
		if in.Frame.Env.Value[i] != val[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestDemuxedInboundValueExactSize pins the server-side inbound path: a
// demuxed endpoint (what a server installs) delivers every value in
// its own heap slice of exactly its length, not in a shared pool buffer
// that a retained 128 B value would pin at 4 KiB.
func TestDemuxedInboundValueExactSize(t *testing.T) {
	eps, _ := newCluster(t, 2)
	lane := make(chan transport.Inbound, 1)
	eps[1].SetDemux(func(*transport.Inbound) int { return 0 }, []chan transport.Inbound{lane})
	val := make([]byte, 128)
	env := wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tagOf(1, 1), Value: val}
	if err := eps[0].Send(2, wire.NewFrame(env)); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-lane:
		if v := in.Frame.Env.Value; len(v) != 128 || cap(v) != len(v) {
			t.Fatalf("inbound value len %d cap %d, want len 128 and cap == len", len(v), cap(v))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the demuxed frame")
	}
}

func TestPiggybackFrameOverTCP(t *testing.T) {
	eps, _ := newCluster(t, 2)
	pb := wire.Envelope{Kind: wire.KindWrite, Origin: 1, Tag: tagOf(3, 1), Value: []byte("old")}
	f := wire.Frame{
		Env:       wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tagOf(4, 1), Value: []byte("new")},
		Piggyback: &pb,
	}
	if err := eps[0].Send(2, f); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, eps[1])
	if in.Frame.Piggyback == nil || string(in.Frame.Piggyback.Value) != "old" {
		t.Fatalf("piggyback lost: %+v", in.Frame)
	}

	// A train crosses whole, envelopes in order.
	const k = 5
	f.Extra = nil
	for i := 2; i < k; i++ {
		f.Extra = append(f.Extra, wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tagOf(uint64(4+i), 1), Value: []byte{byte(i)}})
	}
	if err := eps[0].Send(2, f); err != nil {
		t.Fatal(err)
	}
	in = recvOne(t, eps[1])
	if got := in.Frame.EnvelopeCount(); got != k {
		t.Fatalf("train arrived with %d envelopes, want %d", got, k)
	}
	for i, env := range in.Frame.Extra {
		if env.Tag != f.Extra[i].Tag {
			t.Fatalf("train reordered at tail slot %d: got %s, want %s", i, env.Tag, f.Extra[i].Tag)
		}
	}
}

func TestManyFramesInOrderPerPeer(t *testing.T) {
	eps, _ := newCluster(t, 2)
	const total = 500
	go func() {
		for i := 0; i < total; i++ {
			if err := eps[0].Send(2, frame(uint64(i))); err != nil {
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		in := recvOne(t, eps[1])
		if in.Frame.Env.ReqID != uint64(i) {
			t.Fatalf("frame %d arrived with req %d (TCP must be FIFO per conn)", i, in.Frame.Env.ReqID)
		}
	}
}

func TestConcurrentBidirectionalTraffic(t *testing.T) {
	eps, _ := newCluster(t, 3)
	const per = 200
	errCh := make(chan error, 6)
	for _, src := range eps {
		src := src
		go func() {
			for i := 0; i < per; i++ {
				for _, dst := range []wire.ProcessID{1, 2, 3} {
					if dst == src.ID() {
						continue
					}
					if err := src.Send(dst, frame(uint64(i))); err != nil {
						errCh <- fmt.Errorf("send %d->%d: %w", src.ID(), dst, err)
						return
					}
				}
			}
			errCh <- nil
		}()
	}
	counts := make(map[wire.ProcessID]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			allDone := true
			for _, ep := range eps {
				select {
				case <-ep.Inbox():
					counts[ep.ID()]++
				default:
				}
				if counts[ep.ID()] < 2*per {
					allDone = false
				}
			}
			if allDone {
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("incomplete delivery: %v", counts)
	}
}

func tagOf(ts uint64, id uint32) tag.Tag {
	return tag.Tag{TS: ts, ID: id}
}

// sendReceiveMany pushes `total` frames from eps[0] to eps[1] and asserts
// ordered, complete delivery — the invariant every writer variant must keep.
func sendReceiveMany(t *testing.T, eps []*Endpoint, total int) {
	t.Helper()
	go func() {
		for i := 0; i < total; i++ {
			if err := eps[0].Send(2, frame(uint64(i))); err != nil {
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		in := recvOne(t, eps[1])
		if in.Frame.Env.ReqID != uint64(i) {
			t.Fatalf("frame %d arrived with req %d", i, in.Frame.Env.ReqID)
		}
	}
}

func TestCoalescedWriterKeepsOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"tinyBatch", Options{MaxBatchBytes: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps, _ := newClusterOpts(t, 2, tc.opts)
			sendReceiveMany(t, eps, 400)
		})
	}
}

// TestCoalescedWriterMixedSizes streams frames both far below and far
// above a small batch cap over real TCP. Whether any two share a batch
// is up to the scheduler; TestEgressVectoredMixedSizes pins the
// one-batch case deterministically at the writer level.
func TestCoalescedWriterMixedSizes(t *testing.T) {
	eps, _ := newClusterOpts(t, 2, Options{MaxBatchBytes: 4096})
	vals := [][]byte{nil, make([]byte, 1), make([]byte, 1024), make([]byte, 100_000), make([]byte, 3)}
	for i, v := range vals {
		for j := range v {
			v[j] = byte(i + j)
		}
	}
	go func() {
		for i := 0; i < 100; i++ {
			v := vals[i%len(vals)]
			env := wire.Envelope{Kind: wire.KindWriteRequest, ReqID: uint64(i), Value: v}
			if err := eps[0].Send(2, wire.NewFrame(env)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		in := recvOne(t, eps[1])
		want := vals[i%len(vals)]
		if in.Frame.Env.ReqID != uint64(i) || len(in.Frame.Env.Value) != len(want) {
			t.Fatalf("frame %d: req=%d |v|=%d want |v|=%d", i, in.Frame.Env.ReqID, len(in.Frame.Env.Value), len(want))
		}
		for j := 0; j < len(want); j += 997 {
			if in.Frame.Env.Value[j] != want[j] {
				t.Fatalf("frame %d corrupted at %d", i, j)
			}
		}
	}
}

// countingConn counts Write calls. With frames below the vectored
// cutoff every flush is one slab entry, so writes counts flushes.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestClientEndpointCoalescesBurst pins the dial-only writer's yield:
// a burst of concurrent Sends leaves in fewer writes than frames. On
// one processor the writer is woken by the first Send, finds the queue
// dry, yields, and the rest of the burst queues up behind it before it
// flushes; without the yield it flushes each frame as it comes.
func TestClientEndpointCoalescesBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far := <-accepted
	defer far.Close()

	e := NewClient(100, nil, Options{})
	defer e.Close()
	cc := &countingConn{Conn: raw}
	e.adoptConn(1, cc)

	const n = 32
	start := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- e.Send(1, frame(uint64(i)))
		}()
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	r := wire.NewReaderSize(far, 32<<10)
	defer r.Close()
	for i := 0; i < n; i++ {
		if _, err := r.ReadFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	w := cc.writes.Load()
	t.Logf("%d concurrent sends left in %d writes", n, w)
	if w >= n/2 {
		t.Fatalf("%d concurrent sends left in %d writes, want fewer than %d", n, w, n/2)
	}
}
