package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The layer probes time calls into each layer's public functions from
// out here, at the traced workload's value size; nothing is added to
// the program. Each probe leaves a span (one per call where a call is
// long enough to time, one per batch where it is not).

// probeSpan is one probe call or batch of n calls.
type probeSpan struct {
	name       string
	start, end int64
	n          int
}

// probeScale shrinks the probes' iteration counts for the smoke test.
type probeScale int

func (s probeScale) of(n int) int { return max(n/int(s), 8) }

// probeFrame is a client write request carrying the workload's value:
// the frame the client link carries once per write, and the payload
// every ring pre-write repeats.
func probeFrame(valueBytes int) wire.Frame {
	return wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, Object: 7, ReqID: 1, Value: make([]byte, valueBytes)})
}

// medianBatchNs times batches of n calls and returns the median
// per-call cost, so one preempted batch does not move the number.
func medianBatchNs(name string, batches, n int, spans *[]probeSpan, call func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		start := now()
		for i := 0; i < n; i++ {
			call()
		}
		end := now()
		per[b] = float64(end-start) / float64(n)
		*spans = append(*spans, probeSpan{name: name, start: start, end: end, n: n})
	}
	return median(per)
}

func probeWire(valueBytes int, scale probeScale, out map[string]float64, spans *[]probeSpan) error {
	f := probeFrame(valueBytes)
	n := scale.of(20000)

	var encErr error
	out["wire.encode_ns_per_frame"] = medianBatchNs("wire.encode", 5, n, spans, func() {
		ef, err := wire.EncodeFrame(&f)
		if err != nil {
			encErr = err
			return
		}
		ef.Release()
	})
	if encErr != nil {
		return fmt.Errorf("wire probe: %w", encErr)
	}

	buf, err := f.AppendTo(nil)
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	out["wire.frame_bytes"] = float64(len(buf))
	body := buf[4:] // past the uint32 length prefix
	var g wire.Frame
	var decErr error
	out["wire.decode_ns_per_frame"] = medianBatchNs("wire.decode", 5, n, spans, func() {
		if err := g.DecodeFrom(body); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("wire probe: %w", decErr)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		ef, err := wire.EncodeFrame(&f)
		if err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		if err := g.DecodeFrom(ef.Bytes()[4:]); err != nil {
			return fmt.Errorf("wire probe: %w", err)
		}
		ef.Release()
	}
	runtime.ReadMemStats(&after)
	out["wire.allocs_per_round_trip"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	return nil
}

// sinkConn accepts writes without moving bytes, so the egress probe
// times batch assembly and release, not the kernel.
type sinkConn struct{}

func (sinkConn) Write(b []byte) (int, error)      { return len(b), nil }
func (sinkConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (sinkConn) Close() error                     { return nil }
func (sinkConn) LocalAddr() net.Addr              { return nil }
func (sinkConn) RemoteAddr() net.Addr             { return nil }
func (sinkConn) SetDeadline(time.Time) error      { return nil }
func (sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (sinkConn) SetWriteDeadline(time.Time) error { return nil }

func probeTCPNet(valueBytes int, scale probeScale, out map[string]float64, spans *[]probeSpan) error {
	srv, err := tcpnet.Listen(1, "127.0.0.1:0", tcpnet.AddressBook{}, tcpnet.Options{})
	if err != nil {
		return fmt.Errorf("tcpnet probe: %w", err)
	}
	defer srv.Close()
	cl := tcpnet.NewClient(100, tcpnet.AddressBook{1: srv.Addr()}, tcpnet.Options{})
	defer cl.Close()
	go func() { // echo until the endpoint closes
		for {
			select {
			case in := <-srv.Inbox():
				if srv.Send(in.From, in.Frame) != nil {
					return
				}
			case <-srv.Done():
				return
			}
		}
	}()
	f := probeFrame(valueBytes)
	recv := func() error {
		select {
		case in := <-cl.Inbox():
			in.Frame.Retire()
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("tcpnet probe: echo stalled")
		}
	}

	// One frame at a time between two idle endpoints: two socket hops
	// and their wake-ups, the floor under any client operation.
	pings := scale.of(2000)
	rtts := make([]int64, 0, pings)
	for i := 0; i < pings+pings/10; i++ {
		start := now()
		if err := cl.Send(1, f); err != nil {
			return fmt.Errorf("tcpnet probe: %w", err)
		}
		if err := recv(); err != nil {
			return err
		}
		end := now()
		if i >= pings/10 { // the first tenth warms the connection up
			rtts = append(rtts, end-start)
			*spans = append(*spans, probeSpan{name: "tcpnet.echo", start: start, end: end, n: 1})
		}
	}
	slices.Sort(rtts)
	p50, _ := percentile(rtts, 0.5, 0)
	out["tcpnet.echo_rtt_p50_us"] = micros(p50)

	// Flooded: the writer coalesces, so this is the per-frame cost with
	// batching at its best.
	msgs := scale.of(30000)
	sendErr := make(chan error, 1)
	start := now()
	go func() {
		for i := 0; i < msgs; i++ {
			if err := cl.Send(1, f); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < msgs; i++ {
		if err := recv(); err != nil {
			return err
		}
	}
	end := now()
	if err := <-sendErr; err != nil {
		return fmt.Errorf("tcpnet probe: %w", err)
	}
	out["tcpnet.echo_msgs_per_s"] = float64(msgs) / (float64(end-start) / 1e9)
	*spans = append(*spans, probeSpan{name: "tcpnet.echo_flood", start: start, end: end, n: msgs})

	// The shipping writer's batch assembly over a free sink: slab copy
	// below the vectored cutoff, one iovec per frame above it.
	const batch = 32
	frames := make([]*wire.EncodedFrame, batch)
	for i := range frames {
		if frames[i], err = wire.EncodeFrame(&f); err != nil {
			return fmt.Errorf("tcpnet probe: %w", err)
		}
	}
	eb := tcpnet.NewEgressBench(sinkConn{}, true, tcpnet.DefaultVectoredCutoff)
	var flushErr error
	perBatch := medianBatchNs("tcpnet.egress", 5, scale.of(2000), spans, func() {
		if err := eb.FlushBatch(frames); err != nil {
			flushErr = err
		}
	})
	eb.Close()
	for _, ef := range frames {
		ef.Release()
	}
	if flushErr != nil {
		return fmt.Errorf("tcpnet probe: %w", flushErr)
	}
	out["tcpnet.egress_ns_per_frame"] = perBatch / batch
	return nil
}

// probeWAL times Append and the WaitLane send gate on an idle log in
// dir, which sits on the filesystem the durable workload logs to:
// what one train pays when nothing shares its fdatasync.
func probeWAL(dir string, valueBytes int, scale probeScale, out map[string]float64, spans *[]probeSpan) error {
	l, err := wal.Open(wal.Config{Dir: dir, Lanes: core.DefaultWriteLanes, Sync: wal.SyncTrain}, nil)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	l.Start()
	rec := wal.Record{Type: wal.RecPreWrite, Object: 7, Origin: 2, Flags: wal.FlagHasValue, Value: make([]byte, valueBytes)}
	n := scale.of(300)
	appends := make([]float64, 0, n)
	waits := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		rec.Tag = tag.Tag{TS: uint64(i + 1), ID: 2}
		lane := i % core.DefaultWriteLanes
		t0 := now()
		seq := l.Append(lane, &rec)
		t1 := now()
		if err := l.WaitLane(lane, seq, nil); err != nil {
			_ = l.Close()
			return fmt.Errorf("wal probe: %w", err)
		}
		t2 := now()
		appends = append(appends, float64(t1-t0))
		waits = append(waits, t2-t1)
		*spans = append(*spans, probeSpan{name: "wal.append_sync", start: t0, end: t2, n: 1})
	}
	if err := l.Close(); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	slices.Sort(waits)
	p50, _ := percentile(waits, 0.5, 0)
	out["wal.append_ns"] = median(appends)
	out["wal.sync_wait_p50_us"] = micros(p50)
	return nil
}
