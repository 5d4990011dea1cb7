package wire

import (
	"errors"
	"testing"
)

func validHello() Hello {
	return Hello{
		Version:        HelloVersion,
		From:           7,
		Lanes:          1,
		MembershipHash: MembershipHash([]ProcessID{1, 2, 3}),
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := validHello()
	buf := AppendHello(nil, &h)
	if len(buf) != HelloWireSize() {
		t.Fatalf("encoded %d bytes, want %d", len(buf), HelloWireSize())
	}
	got, err := DecodeHello(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestHelloDecodeForwardCompatible(t *testing.T) {
	// A future version may extend the body; trailing bytes must be
	// ignored, not rejected.
	h := validHello()
	buf := AppendHello(nil, &h)
	buf = append(buf, 0xAA, 0xBB)
	got, err := DecodeHello(buf)
	if err != nil {
		t.Fatalf("decode with trailer: %v", err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
}

func TestHelloDecodeRejects(t *testing.T) {
	short := AppendHello(nil, &Hello{Version: HelloVersion, From: 1})
	for name, body := range map[string][]byte{
		"empty":     nil,
		"truncated": short[:HelloWireSize()-1],
		"zero id":   AppendHello(nil, &Hello{Version: HelloVersion, From: NoProcess}),
	} {
		if _, err := DecodeHello(body); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func TestMembershipHash(t *testing.T) {
	a := MembershipHash([]ProcessID{1, 2, 3})
	if a == 0 {
		t.Fatal("hash of a real membership must be nonzero") // 0 means "skip check"
	}
	if b := MembershipHash([]ProcessID{1, 2, 3}); b != a {
		t.Fatal("hash is not deterministic")
	}
	if MembershipHash([]ProcessID{1, 3, 2}) == a {
		t.Fatal("ring order must affect the hash")
	}
	if MembershipHash([]ProcessID{1, 2, 3, 4}) == a {
		t.Fatal("membership must affect the hash")
	}
}

func TestCheckCompatible(t *testing.T) {
	base := validHello()
	if err := base.CheckCompatible(&base); err != nil {
		t.Fatalf("self-compatible hello rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Hello)
		field  string
	}{
		{"wire version", func(h *Hello) { h.Version = HelloVersion + 1 }, "wire version"},
		{"lanes", func(h *Hello) { h.Lanes = 4 }, "lanes"},
		{"membership", func(h *Hello) { h.MembershipHash = 99 }, "membership"},
	}
	for _, tc := range cases {
		remote := validHello()
		tc.mutate(&remote)
		err := base.CheckCompatible(&remote)
		var herr *HandshakeError
		if !errors.As(err, &herr) {
			t.Fatalf("%s: got %v, want *HandshakeError", tc.name, err)
		}
		if herr.Field != tc.field {
			t.Fatalf("%s: field %q, want %q", tc.name, herr.Field, tc.field)
		}
		// Symmetry: both ends reach the same verdict, which is what
		// lets the dialer reconstruct the acceptor's rejection.
		if rerr := remote.CheckCompatible(&base); rerr == nil {
			t.Fatalf("%s: check is asymmetric", tc.name)
		}
	}

	// Zero Lanes / MembershipHash opt out of their checks (clients).
	client := Hello{Version: HelloVersion, From: 100}
	if err := base.CheckCompatible(&client); err != nil {
		t.Fatalf("lane-unaware client rejected: %v", err)
	}
	if err := client.CheckCompatible(&base); err != nil {
		t.Fatalf("client rejects server: %v", err)
	}
}
