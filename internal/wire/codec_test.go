package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tag"
)

func sampleEnvelopes() []Envelope {
	return []Envelope{
		{Kind: KindWriteRequest, Object: 0, ReqID: 42, Value: []byte("payload")},
		{Kind: KindWriteAck, ReqID: 42, Tag: tag.Tag{TS: 10, ID: 2}},
		{Kind: KindReadRequest, Object: 3, ReqID: 7},
		{Kind: KindReadAck, ReqID: 7, Tag: tag.Tag{TS: 10, ID: 2}, Value: []byte{0, 1, 2, 255}},
		{Kind: KindPreWrite, Object: 1, Origin: 4, Epoch: 2, Tag: tag.Tag{TS: 99, ID: 4}, Value: bytes.Repeat([]byte("x"), 1024)},
		{Kind: KindWrite, Origin: 5, Tag: tag.Tag{TS: 100, ID: 5}},
		{Kind: KindCrash, Origin: 6, Epoch: 3},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		f := NewFrame(env)
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("encode %v: %v", &env, err)
		}
		got, err := DecodeFrameBody(buf[4:])
		if err != nil {
			t.Fatalf("decode %v: %v", &env, err)
		}
		if !reflect.DeepEqual(normalize(f), normalize(got)) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
		}
	}
}

// normalize maps empty and nil values to nil so DeepEqual compares
// semantic content.
func normalize(f Frame) Frame {
	if len(f.Env.Value) == 0 {
		f.Env.Value = nil
	}
	if f.Piggyback != nil && len(f.Piggyback.Value) == 0 {
		pb := *f.Piggyback
		pb.Value = nil
		f.Piggyback = &pb
	}
	return f
}

func TestPiggybackFrameRoundTrip(t *testing.T) {
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 4, ID: 2}, Value: []byte("old")}
	f := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 3, Tag: tag.Tag{TS: 5, ID: 3}, Value: []byte("new")},
		Piggyback: &pb,
	}
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrameBody(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Piggyback == nil {
		t.Fatal("piggyback lost in round trip")
	}
	if !reflect.DeepEqual(normalize(f), normalize(got)) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	prop := func(kindSel uint8, obj uint32, ts uint64, id, origin, epoch uint32, reqID uint64, val []byte) bool {
		kinds := []Kind{KindWriteRequest, KindWriteAck, KindReadRequest,
			KindReadAck, KindPreWrite, KindWrite, KindCrash}
		env := Envelope{
			Kind:   kinds[int(kindSel)%len(kinds)],
			Object: ObjectID(obj),
			Tag:    tag.Tag{TS: ts, ID: id},
			Origin: ProcessID(origin),
			Epoch:  epoch,
			ReqID:  reqID,
			Value:  val,
		}
		f := NewFrame(env)
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			return false
		}
		got, err := DecodeFrameBody(buf[4:])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(f), normalize(got))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	envs := sampleEnvelopes()
	for _, env := range envs {
		f := NewFrame(env)
		if err := w.WriteFrame(&f); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := range envs {
		got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := normalize(NewFrame(envs[i]))
		if !reflect.DeepEqual(want, normalize(got)) {
			t.Fatalf("frame %d mismatch:\n in: %+v\nout: %+v", i, want, got)
		}
	}
	if _, err := r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := NewFrame(Envelope{Kind: KindWriteRequest, ReqID: 1, Value: []byte("hello")})
	if err := w.WriteFrame(&f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 3, 5, len(full) - 1} {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadFrame(); err == nil {
			t.Errorf("cut=%d: expected error on truncated stream", cut)
		}
	}
}

func TestReaderRejectsHugeFrame(t *testing.T) {
	var raw [4]byte
	raw[0] = 0xFF
	raw[1] = 0xFF
	raw[2] = 0xFF
	raw[3] = 0xFF
	r := NewReader(bytes.NewReader(raw[:]))
	if _, err := r.ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeFrameBodyCorruption(t *testing.T) {
	f := NewFrame(Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 1, ID: 1}, Value: []byte("v")})
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	body := buf[4:]

	t.Run("empty body", func(t *testing.T) {
		if _, err := DecodeFrameBody(nil); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad count", func(t *testing.T) {
		for _, count := range []byte{0, MaxFrameEnvelopes + 1} {
			bad := append([]byte(nil), body...)
			bad[0] = count | frameV2Bit
			if _, err := DecodeFrameBody(bad); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("count %d: err = %v", count, err)
			}
		}
	})
	t.Run("lane-less v1 header", func(t *testing.T) {
		// The seed's header: plain count byte, no lane byte.
		v1 := append([]byte{body[0] &^ frameV2Bit}, body[2:]...)
		if _, err := DecodeFrameBody(v1); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad kind", func(t *testing.T) {
		bad := append([]byte(nil), body...)
		bad[2] = 200 // first envelope's kind byte (after count and lane)
		if _, err := DecodeFrameBody(bad); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("v2 header without lane byte", func(t *testing.T) {
		if _, err := DecodeFrameBody([]byte{1 | frameV2Bit}); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), body...), 0xAB)
		if _, err := DecodeFrameBody(bad); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := DecodeFrameBody(body[:5]); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestLaneRoundTrip pins the v2 header: the lane survives the round trip
// on both decode paths, for single and piggybacked frames.
func TestLaneRoundTrip(t *testing.T) {
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 4, ID: 2}, Flags: FlagValueElided}
	for _, f := range []Frame{
		{Env: Envelope{Kind: KindPreWrite, Origin: 3, Tag: tag.Tag{TS: 5, ID: 3}, Value: []byte("v")}, Lane: 7},
		{Env: Envelope{Kind: KindPreWrite, Origin: 3, Tag: tag.Tag{TS: 5, ID: 3}, Value: []byte("v")}, Piggyback: &pb, Lane: 255},
	} {
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrameBody(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		if got.Lane != f.Lane {
			t.Fatalf("lane = %d, want %d", got.Lane, f.Lane)
		}
		var aliased Frame
		if err := aliased.DecodeFrom(buf[4:]); err != nil {
			t.Fatal(err)
		}
		if aliased.Lane != f.Lane {
			t.Fatalf("aliased lane = %d, want %d", aliased.Lane, f.Lane)
		}
	}
}

// TestDecodedValuesExactSize pins the owning decode paths (the one
// the transports' readers use): every value comes back in its own heap
// slice of exactly its length, so a retained value pins only its own
// bytes and no shared buffer, and it does not alias the input.
func TestDecodedValuesExactSize(t *testing.T) {
	val := bytes.Repeat([]byte{'v'}, 128)
	f := trainFrame(5, 0)
	f.Env.Value = val
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, got Frame) {
		t.Helper()
		if !bytes.Equal(got.Env.Value, val) {
			t.Fatalf("%s: value = %q", path, got.Env.Value)
		}
		for i, env := range got.Envelopes() {
			if cap(env.Value) != len(env.Value) {
				t.Fatalf("%s: envelope %d value len %d cap %d, want cap == len",
					path, i, len(env.Value), cap(env.Value))
			}
		}
	}
	body, err := DecodeFrameBody(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	check("DecodeFrameBody", body)
	buf[frameHeaderSize+envelopeHeaderSize] ^= 0xff // first value byte
	if body.Env.Value[0] != 'v' {
		t.Fatal("decoded value aliases the input body")
	}
	buf[frameHeaderSize+envelopeHeaderSize] ^= 0xff

	r := NewReader(bytes.NewReader(buf))
	defer r.Close()
	read, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	check("Reader", read)
}

func TestAppendToMatchesAppendFrame(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		f := NewFrame(env)
		want, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		buf := GetBuffer()
		got, err := f.AppendTo(*buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("AppendTo mismatch for %v", &env)
		}
		*buf = got
		PutBuffer(buf)
	}
}

func TestDecodeFromAliasesInput(t *testing.T) {
	f := NewFrame(Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 1, ID: 1}, Value: []byte("aaaa")})
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	var dec Frame
	if err := dec.DecodeFrom(buf[4:]); err != nil {
		t.Fatal(err)
	}
	if string(dec.Env.Value) != "aaaa" {
		t.Fatalf("value = %q", dec.Env.Value)
	}
	// Zero-copy contract: mutating the input buffer must show through.
	copy(buf[len(buf)-4:], "bbbb")
	if string(dec.Env.Value) != "bbbb" {
		t.Fatalf("DecodeFrom copied the value; want aliasing (got %q)", dec.Env.Value)
	}
	// DecodeFrameBody, by contrast, must own its memory.
	owned, err := DecodeFrameBody(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	copy(buf[len(buf)-4:], "cccc")
	if string(owned.Env.Value) != "bbbb" {
		t.Fatalf("DecodeFrameBody aliased the input (got %q)", owned.Env.Value)
	}
}

func TestDecodeFromReuseClearsState(t *testing.T) {
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 4, ID: 2}}
	withPB := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 3, Tag: tag.Tag{TS: 5, ID: 3}, Value: []byte("new")},
		Piggyback: &pb,
	}
	plain := NewFrame(Envelope{Kind: KindReadRequest, Object: 9, ReqID: 77})

	buf1, err := AppendFrame(nil, &withPB)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := AppendFrame(nil, &plain)
	if err != nil {
		t.Fatal(err)
	}

	var dec Frame
	if err := dec.DecodeFrom(buf1[4:]); err != nil {
		t.Fatal(err)
	}
	if dec.Piggyback == nil {
		t.Fatal("piggyback lost")
	}
	// Re-decoding a piggyback-free frame into the same Frame must not
	// leak the previous piggyback or value.
	if err := dec.DecodeFrom(buf2[4:]); err != nil {
		t.Fatal(err)
	}
	if dec.Piggyback != nil {
		t.Fatal("stale piggyback after reuse")
	}
	if dec.Env.Value != nil || dec.Env.ReqID != 77 || dec.Env.Object != 9 {
		t.Fatalf("stale envelope state after reuse: %+v", dec.Env)
	}
}

func TestEncodeDecodeSteadyStateAllocs(t *testing.T) {
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 9, ID: 2}, Flags: FlagValueElided}
	f := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 10, ID: 1}, Value: bytes.Repeat([]byte("x"), 1024)},
		Piggyback: &pb,
	}
	var (
		buf []byte
		dec Frame
	)
	// Warm up once so buf and dec.Piggyback are allocated.
	var err error
	if buf, err = f.AppendTo(buf[:0]); err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeFrom(buf[4:]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = f.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeFrom(buf[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state codec round trip allocates %.1f/op, want 0", allocs)
	}
}

func TestBufferPoolRoundTrip(t *testing.T) {
	b := GetBuffer()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer not reset: len=%d", len(*b))
	}
	*b = append(*b, make([]byte, 8192)...)
	PutBuffer(b)
	// Oversized buffers are dropped rather than pinned.
	huge := make([]byte, 0, maxPooledBuffer+1)
	PutBuffer(&huge)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Fatalf("reused buffer not reset: len=%d", len(*b2))
	}
	PutBuffer(b2)
}

func TestDecodeFromErrorClearsFrame(t *testing.T) {
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 4, ID: 2}}
	good := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 3, Tag: tag.Tag{TS: 5, ID: 3}, Value: []byte("live")},
		Piggyback: &pb,
	}
	buf, err := AppendFrame(nil, &good)
	if err != nil {
		t.Fatal(err)
	}
	var dec Frame
	if err := dec.DecodeFrom(buf[4:]); err != nil {
		t.Fatal(err)
	}
	// A failed decode must leave no stale state: not the old piggyback,
	// not a Value aliasing the previous (possibly recycled) buffer.
	for name, bad := range map[string][]byte{
		"empty":           nil,
		"badCount":        {9},
		"truncatedHeader": {1, 0x01, 0x00},
		"truncatedValue":  append(append([]byte{1}, buf[5:5+envelopeHeaderSize]...), 0x01),
	} {
		if err := dec.DecodeFrom(buf[4:]); err != nil { // reload live state
			t.Fatal(err)
		}
		if err := dec.DecodeFrom(bad); err == nil {
			t.Fatalf("%s: decode unexpectedly succeeded", name)
		}
		if dec.Piggyback != nil || dec.Env.Value != nil || dec.Env.Kind != 0 {
			t.Fatalf("%s: stale frame state after failed decode: %+v", name, dec)
		}
	}
}

// trainFrame builds a K-envelope train: a pre-write with a value, an
// elided write piggyback, and K-2 further ring envelopes in the tail.
func trainFrame(k int, lane uint8) Frame {
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 9, ID: 2}, Flags: FlagValueElided}
	f := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 10, ID: 1}, Value: []byte("head")},
		Piggyback: &pb,
		Lane:      lane,
	}
	for i := 2; i < k; i++ {
		kind := KindPreWrite
		var val []byte
		if i%2 == 0 {
			kind = KindWrite
		} else {
			val = []byte{byte(i)}
		}
		f.Extra = append(f.Extra, Envelope{
			Kind: kind, Origin: ProcessID(1 + i%3),
			Tag: tag.Tag{TS: uint64(20 + i), ID: uint32(1 + i%3)}, Value: val,
		})
	}
	return f
}

// TestTrainFrameRoundTrip pins the v4 wire shape: trains of 3 and more
// envelopes survive both decode paths with order, lane, and values
// intact.
func TestTrainFrameRoundTrip(t *testing.T) {
	for _, k := range []int{3, 4, 8, MaxFrameEnvelopes} {
		f := trainFrame(k, 5)
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}
		got, err := DecodeFrameBody(buf[4:])
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if got.Lane != 5 || got.EnvelopeCount() != k {
			t.Fatalf("k=%d: lane %d count %d", k, got.Lane, got.EnvelopeCount())
		}
		want, have := f.Envelopes(), got.Envelopes()
		for i := range want {
			if !reflect.DeepEqual(normalizeEnv(want[i]), normalizeEnv(have[i])) {
				t.Fatalf("k=%d: envelope %d mismatch:\n in: %+v\nout: %+v", k, i, want[i], have[i])
			}
		}
		var aliased Frame
		if err := aliased.DecodeFrom(buf[4:]); err != nil {
			t.Fatalf("k=%d: aliasing decode: %v", k, err)
		}
		if aliased.EnvelopeCount() != k || aliased.Lane != 5 {
			t.Fatalf("k=%d: aliasing decode lost shape", k)
		}
		re, err := aliased.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, re) {
			t.Fatalf("k=%d: aliasing re-encode mismatch", k)
		}
	}
}

func normalizeEnv(e Envelope) Envelope {
	if len(e.Value) == 0 {
		e.Value = nil
	}
	return e
}

// TestTrainCountBounds rejects trains beyond MaxFrameEnvelopes on both
// ends, and train counts without the v2+ header bit.
func TestTrainCountBounds(t *testing.T) {
	over := trainFrame(MaxFrameEnvelopes+1, 0)
	if _, err := AppendFrame(nil, &over); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode over-long train: %v, want ErrFrameTooLarge", err)
	}
	f := trainFrame(3, 0)
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(nil), buf[4:]...)
	body[0] = (MaxFrameEnvelopes + 1) | frameV2Bit
	if _, err := DecodeFrameBody(body); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("decode count %d: %v, want ErrCorruptFrame", MaxFrameEnvelopes+1, err)
	}
	// A v1 header (no v2 bit, no lane byte) never carries a train.
	v1 := append([]byte{3}, buf[6:]...)
	if _, err := DecodeFrameBody(v1); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("v1 train count: %v, want ErrCorruptFrame", err)
	}
}

// TestTrainDecodeReuseClearsTail re-decoding a shorter frame into a
// *Frame that previously held a train must not leak stale tail
// envelopes.
func TestTrainDecodeReuseClearsTail(t *testing.T) {
	train := trainFrame(6, 1)
	tbuf, err := AppendFrame(nil, &train)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewFrame(Envelope{Kind: KindReadRequest, Object: 9, ReqID: 77})
	pbuf, err := AppendFrame(nil, &plain)
	if err != nil {
		t.Fatal(err)
	}
	var dec Frame
	if err := dec.DecodeFrom(tbuf[4:]); err != nil {
		t.Fatal(err)
	}
	if len(dec.Extra) != 4 {
		t.Fatalf("extra = %d, want 4", len(dec.Extra))
	}
	if err := dec.DecodeFrom(pbuf[4:]); err != nil {
		t.Fatal(err)
	}
	if len(dec.Extra) != 0 || dec.Piggyback != nil || dec.Env.ReqID != 77 {
		t.Fatalf("stale train state after reuse: %+v", dec)
	}
	// A failed decode clears the tail too.
	if err := dec.DecodeFrom(tbuf[4:]); err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeFrom([]byte{9}); err == nil {
		t.Fatal("corrupt decode succeeded")
	}
	if len(dec.Extra) != 0 || dec.Piggyback != nil {
		t.Fatalf("stale train state after failed decode: %+v", dec)
	}
}

// TestTrainSteadyStateAllocs pins the 0-alloc contract for the train
// hot path: encoding into a reused buffer and alias-decoding into a
// reused Frame allocates nothing once warmed up.
func TestTrainSteadyStateAllocs(t *testing.T) {
	f := trainFrame(8, 2)
	var (
		buf []byte
		dec Frame
	)
	var err error
	if buf, err = f.AppendTo(buf[:0]); err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeFrom(buf[4:]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = f.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeFrom(buf[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state train round trip allocates %.1f/op, want 0", allocs)
	}
}

// TestTrainTailByteBound pins the v4 size contract: the total value
// bytes of a train's tail (beyond the classic pair) are bounded by
// MaxTrainValueBytes on both encode and decode, so MaxFrameSize — the
// reader's allocation guard — stays near the v3 bound instead of
// growing MaxFrameEnvelopes-fold.
func TestTrainTailByteBound(t *testing.T) {
	big := make([]byte, MaxTrainValueBytes/2+1)
	pb := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 1, ID: 2}, Flags: FlagValueElided}
	f := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 2, ID: 1}, Value: []byte("v")},
		Piggyback: &pb,
		Extra: []Envelope{
			{Kind: KindPreWrite, Origin: 2, Tag: tag.Tag{TS: 3, ID: 2}, Value: big},
			{Kind: KindPreWrite, Origin: 3, Tag: tag.Tag{TS: 4, ID: 3}, Value: big},
		},
	}
	if _, err := AppendFrame(nil, &f); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode over-budget tail: %v, want ErrFrameTooLarge", err)
	}
	// Just under the budget passes and round-trips.
	f.Extra = f.Extra[:1]
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatalf("encode in-budget tail: %v", err)
	}
	if len(buf) > MaxFrameSize {
		t.Fatalf("legal frame of %d bytes exceeds MaxFrameSize %d", len(buf), MaxFrameSize)
	}
	if _, err := DecodeFrameBody(buf[4:]); err != nil {
		t.Fatalf("decode in-budget tail: %v", err)
	}
	// The classic pair keeps its v3 headroom: two full-size values.
	full := make([]byte, MaxValueSize)
	pb2 := Envelope{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 1, ID: 2}, Value: full}
	classic := Frame{
		Env:       Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 2, ID: 1}, Value: full},
		Piggyback: &pb2,
	}
	cbuf, err := AppendFrame(nil, &classic)
	if err != nil {
		t.Fatalf("encode classic max frame: %v", err)
	}
	if len(cbuf) > MaxFrameSize {
		t.Fatalf("classic max frame of %d bytes exceeds MaxFrameSize %d", len(cbuf), MaxFrameSize)
	}
}
