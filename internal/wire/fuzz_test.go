package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/tag"
)

// FuzzDecodeFrameBody throws arbitrary bytes at the decoder: it must
// never panic, never over-allocate, and must round-trip anything it
// accepts.
func FuzzDecodeFrameBody(f *testing.F) {
	// Seed with valid frames of each kind.
	for _, env := range []Envelope{
		{Kind: KindWriteRequest, ReqID: 1, Value: []byte("v")},
		{Kind: KindPreWrite, Origin: 2, Tag: tag.Tag{TS: 3, ID: 2}, Value: []byte("payload")},
		{Kind: KindWrite, Origin: 2, Tag: tag.Tag{TS: 3, ID: 2}, Flags: FlagValueElided},
		{Kind: KindCrash, Origin: 4, Epoch: 1},
	} {
		frame := NewFrame(env)
		buf, err := AppendFrame(nil, &frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
	}
	pb := Envelope{Kind: KindWrite, Origin: 1, Tag: tag.Tag{TS: 9, ID: 1}}
	withPB := Frame{Env: Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 10, ID: 1}, Value: []byte("x")}, Piggyback: &pb}
	buf, err := AppendFrame(nil, &withPB)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf[4:])
	// Train frames: a full train and one at the envelope-count bound.
	for _, k := range []int{4, MaxFrameEnvelopes} {
		train := trainFrame(k, 3)
		tbuf, err := AppendFrame(nil, &train)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tbuf[4:])
	}
	// A reject path: the same body under the seed's lane-less v1 header.
	f.Add(append([]byte{buf[4] &^ frameV2Bit}, buf[6:]...))

	f.Fuzz(func(t *testing.T, body []byte) {
		frame, err := DecodeFrameBody(body)
		if err != nil {
			// The aliasing decoder must agree on what it rejects.
			var af Frame
			if aerr := af.DecodeFrom(body); aerr == nil {
				t.Fatalf("DecodeFrom accepted a body DecodeFrameBody rejected (%v)", err)
			}
			return // rejected input is fine; panics are not
		}
		// Anything accepted must re-encode and decode to the same frame.
		out, err := AppendFrame(nil, &frame)
		if err != nil {
			t.Fatalf("accepted frame failed to encode: %v", err)
		}
		again, err := DecodeFrameBody(out[4:])
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		b1, err := AppendFrame(nil, &again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, b1) {
			t.Fatal("decode/encode not idempotent")
		}

		// The pooled path must agree byte for byte with the allocating
		// path: AppendTo into a pooled buffer, then the aliasing
		// DecodeFrom, then AppendTo again.
		pooled := GetBuffer()
		defer PutBuffer(pooled)
		enc, err := frame.AppendTo((*pooled)[:0])
		if err != nil {
			t.Fatalf("AppendTo failed where AppendFrame succeeded: %v", err)
		}
		*pooled = enc
		if !bytes.Equal(out, enc) {
			t.Fatal("AppendTo and AppendFrame disagree")
		}
		var aliased Frame
		if err := aliased.DecodeFrom(enc[4:]); err != nil {
			t.Fatalf("DecodeFrom rejected a valid body: %v", err)
		}
		enc2, err := aliased.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, enc2) {
			t.Fatal("aliasing decode lost information")
		}

		// Buffer reuse must not corrupt a frame decoded into the same
		// *Frame earlier: re-decode a second body into `aliased` from a
		// different buffer and check it no longer references enc.
		other := NewFrame(Envelope{Kind: KindReadRequest, Object: 1, ReqID: 99})
		obuf, err := AppendFrame(nil, &other)
		if err != nil {
			t.Fatal(err)
		}
		if err := aliased.DecodeFrom(obuf[4:]); err != nil {
			t.Fatal(err)
		}
		for i := range enc {
			enc[i] = 0xFF // scribble over the old buffer
		}
		reenc, err := aliased.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		oagain, err := DecodeFrameBody(reenc[4:])
		if err != nil || oagain.Env.ReqID != 99 || oagain.Env.Kind != KindReadRequest {
			t.Fatalf("reused Frame still references the old buffer: %+v (err=%v)", oagain, err)
		}
	})
}

// FuzzDecodeHello throws arbitrary bytes at the session-handshake
// decoder: it must never panic, and anything it accepts must re-encode
// to a prefix-equal body and decode back to the same Hello (trailing
// bytes are forward-compatibility padding and are dropped).
func FuzzDecodeHello(f *testing.F) {
	seed := func(h Hello) {
		f.Add(AppendHello(nil, &h))
	}
	// The accept paths.
	seed(Hello{Version: HelloVersion, From: 1, Lanes: 1, MembershipHash: MembershipHash([]ProcessID{1, 2, 3})})
	seed(Hello{Version: HelloVersion, From: 2, Lanes: 1, MembershipHash: MembershipHash([]ProcessID{1, 2, 3})})
	seed(Hello{Version: HelloVersion, From: 100}) // lane-unaware client
	// The reject paths: wrong wire version, wrong lane count (an older
	// server binary started with four lanes), wrong membership hash —
	// all decode fine (rejection happens in CheckCompatible) — plus
	// structurally corrupt bodies.
	seed(Hello{Version: HelloVersion + 1, From: 1, Lanes: 1, MembershipHash: 7})
	seed(Hello{Version: HelloVersion, From: 1, Lanes: 4, MembershipHash: 7})
	seed(Hello{Version: HelloVersion, From: 1, Lanes: 1, MembershipHash: 8})
	f.Add([]byte{})                      // truncated
	f.Add(make([]byte, HelloWireSize())) // zero process id
	// A 22-byte v4 body (version, id, lanes, link, hash, capabilities):
	// it decodes, and CheckCompatible refuses it by version.
	v4 := []byte{0, 4, 0, 0, 0, 1, 0, 4, 0xFF, 0xFF}
	v4 = binary.BigEndian.AppendUint64(v4, MembershipHash([]ProcessID{1, 2, 3}))
	f.Add(binary.BigEndian.AppendUint32(v4, 1))

	f.Fuzz(func(t *testing.T, body []byte) {
		h, err := DecodeHello(body)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if h.From == NoProcess {
			t.Fatal("decoder accepted a zero process id")
		}
		out := AppendHello(nil, &h)
		if len(body) < len(out) || !bytes.Equal(body[:len(out)], out) {
			t.Fatalf("re-encode mismatch: in %x, out %x", body, out)
		}
		again, err := DecodeHello(out)
		if err != nil {
			t.Fatalf("re-encoded hello rejected: %v", err)
		}
		if again != h {
			t.Fatalf("decode/encode not idempotent: %+v vs %+v", again, h)
		}

		// CheckCompatible must be total and symmetric in verdict on
		// anything the decoder accepts.
		local := Hello{Version: HelloVersion, From: 1, Lanes: 1,
			MembershipHash: MembershipHash([]ProcessID{1, 2, 3})}
		lr, rl := local.CheckCompatible(&h), h.CheckCompatible(&local)
		if (lr == nil) != (rl == nil) {
			t.Fatalf("asymmetric verdict: %v vs %v", lr, rl)
		}
	})
}
