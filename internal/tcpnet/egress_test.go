package tcpnet

import (
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// shortWriteConn forces 1-byte writes, violating the io.Writer contract
// (progress without an error). The egress flush must advance past such
// partial writes itself — net.Buffers' generic fallback does not — so
// frames stay intact byte for byte.
type shortWriteConn struct {
	net.Conn
}

func (c shortWriteConn) Write(b []byte) (int, error) {
	if len(b) > 1 {
		b = b[:1]
	}
	return c.Conn.Write(b)
}

// leakCheck asserts the global encoded-frame counter returns to its
// starting value once the endpoints under test have shut down.
func leakCheck(t *testing.T) {
	t.Helper()
	base := wire.EncodedFramesLive()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for wire.EncodedFramesLive() != base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := wire.EncodedFramesLive(); got != base {
			t.Errorf("encoded frames leaked: live = %d, started at %d", got, base)
		}
	})
}

// TestEgressShortWritePartialWrites drives the writer's manual gather
// loop over a connection that only ever accepts one byte per Write,
// with a cutoff that interleaves slab runs and zero-copy iovec entries.
// Every frame must arrive intact and in order, and every pooled encode
// buffer must return to the pool.
func TestEgressShortWritePartialWrites(t *testing.T) {
	leakCheck(t)
	e := newEndpoint(1, nil, Options{VectoredCutoffBytes: 128})
	t.Cleanup(func() { _ = e.Close() })
	near, far := net.Pipe()
	p := e.adoptConn(2, shortWriteConn{Conn: near})

	const total = 40
	small := []byte("tiny")
	big := make([]byte, 600)
	for i := range big {
		big[i] = byte(i)
	}

	type got struct {
		f   wire.Frame
		err error
	}
	results := make(chan got, total)
	go func() {
		r := wire.NewReaderSize(far, 32<<10)
		defer r.Close()
		for i := 0; i < total; i++ {
			f, err := r.ReadFrame()
			results <- got{f: f, err: err}
			if err != nil {
				return
			}
		}
	}()

	for i := 0; i < total; i++ {
		v := small
		if i%2 == 1 {
			v = big // above the cutoff: its own zero-copy iovec entry
		}
		f := wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, ReqID: uint64(i), Value: v})
		if err := e.enqueue(p, 2, f); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < total; i++ {
		select {
		case g := <-results:
			if g.err != nil {
				t.Fatalf("frame %d: read error: %v", i, g.err)
			}
			if g.f.Env.ReqID != uint64(i) {
				t.Fatalf("frame %d arrived with req %d", i, g.f.Env.ReqID)
			}
			want := small
			if i%2 == 1 {
				want = big
			}
			if len(g.f.Env.Value) != len(want) {
				t.Fatalf("frame %d: |v|=%d want %d", i, len(g.f.Env.Value), len(want))
			}
			for j := range want {
				if g.f.Env.Value[j] != want[j] {
					t.Fatalf("frame %d corrupted at byte %d", i, j)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	_ = e.Close()
	_ = far.Close()
}

// TestEgressVectoredPaths runs the ordered-delivery invariant over real
// TCP on both sides of the cutoff: the default hybrid (these frames are
// all below it: the slab path) and pure zero-copy (negative cutoff
// vectorizes every frame). Each run also proves pooled-buffer
// accounting: no encoded frame outlives its endpoints.
func TestEgressVectoredPaths(t *testing.T) {
	for name, opts := range map[string]Options{
		"hybridDefault": {},
		"allVectored":   {VectoredCutoffBytes: -1},
	} {
		t.Run(name, func(t *testing.T) {
			leakCheck(t)
			eps, _ := newClusterOpts(t, 2, opts)
			sendReceiveMany(t, eps, 300)
			for _, ep := range eps {
				_ = ep.Close()
			}
		})
	}
}

// TestEgressVectoredMixedSizes gathers six size classes, twice over,
// into one writer batch whose cutoff splits them three and three, so
// the batch crosses the slab cutoff in both directions. One flush over
// a pipe must deliver every frame intact and in order, and every pooled
// encode buffer must return to the pool.
func TestEgressVectoredMixedSizes(t *testing.T) {
	leakCheck(t)
	vals := [][]byte{nil, make([]byte, 16), make([]byte, 255), make([]byte, 257), make([]byte, 4096), make([]byte, 64<<10)}
	for i, v := range vals {
		for j := range v {
			v[j] = byte(i*31 + j)
		}
	}
	const rounds = 2
	total := rounds * len(vals)
	frames := make([]*wire.EncodedFrame, total)
	for i := range frames {
		f := wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, ReqID: uint64(i), Value: vals[i%len(vals)]})
		var err error
		if frames[i], err = wire.EncodeFrame(&f); err != nil {
			t.Fatal(err)
		}
	}
	// The first three classes go to the slab, the last three ship as
	// their own iovec entries.
	cutoff := len(frames[2].Bytes()) + 1
	if len(frames[3].Bytes()) < cutoff {
		t.Fatalf("size classes do not straddle the cutoff %d", cutoff)
	}

	near, far := net.Pipe()
	defer far.Close()
	w := newEgressWriter(near, cutoff)
	defer w.close()
	type got struct {
		f   wire.Frame
		err error
	}
	results := make(chan got, total)
	go func() {
		r := wire.NewReaderSize(far, 32<<10)
		defer r.Close()
		for i := 0; i < total; i++ {
			f, err := r.ReadFrame()
			results <- got{f: f, err: err}
			if err != nil {
				return
			}
		}
	}()

	for _, ef := range frames {
		w.add(ef)
	}
	// Per round: one slab run, then three zero-copy entries.
	if want := rounds * 4; len(w.iovArr) != want {
		t.Fatalf("batch has %d iovec entries, want %d", len(w.iovArr), want)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		g := <-results
		if g.err != nil {
			t.Fatalf("frame %d: read error: %v", i, g.err)
		}
		want := vals[i%len(vals)]
		if g.f.Env.ReqID != uint64(i) || len(g.f.Env.Value) != len(want) {
			t.Fatalf("frame %d: req=%d |v|=%d want |v|=%d", i, g.f.Env.ReqID, len(g.f.Env.Value), len(want))
		}
		for j := range want {
			if g.f.Env.Value[j] != want[j] {
				t.Fatalf("frame %d corrupted at byte %d", i, j)
			}
		}
	}
}

// sinkConn swallows writes, so the egress gate below times and counts
// the batch assembly rather than a kernel.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(b []byte) (int, error) { return len(b), nil }

// TestEgressSteadyStateNoAlloc gates the two per-frame costs of the
// egress at zero steady-state allocations, on both sides of the cutoff:
// the producer's encode into a pooled buffer (and its release), and the
// writer's gather-and-flush of a batch.
func TestEgressSteadyStateNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, payload := range []int{64, 4096} {
		f := wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, ReqID: 1, Value: make([]byte, payload)})
		if allocs := testing.AllocsPerRun(1000, func() {
			ef, err := wire.EncodeFrame(&f)
			if err != nil {
				t.Fatal(err)
			}
			ef.Release()
		}); allocs != 0 {
			t.Fatalf("%d B: enqueue-time encode allocates %.1f/op, want 0", payload, allocs)
		}

		w := newEgressWriter(sinkConn{}, DefaultVectoredCutoff)
		batch := make([]*wire.EncodedFrame, 32)
		for i := range batch {
			var err error
			if batch[i], err = wire.EncodeFrame(&f); err != nil {
				t.Fatal(err)
			}
		}
		flush := func() {
			for _, ef := range batch {
				ef.Retain() // add consumes one reference; keep ours
				w.add(ef)
			}
			if err := w.flush(); err != nil {
				t.Fatal(err)
			}
		}
		flush() // grow the iovec, pend and slab arrays to the batch's size
		if allocs := testing.AllocsPerRun(200, flush); allocs != 0 {
			t.Fatalf("%d B: batch add/flush allocates %.1f per %d-frame batch, want 0", payload, allocs, len(batch))
		}
		for _, ef := range batch {
			ef.Release()
		}
		w.close()
	}
}
