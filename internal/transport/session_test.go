package transport

import (
	"errors"
	"testing"

	"repro/internal/wire"
)

func serverHello(id wire.ProcessID, lanes uint16, members []wire.ProcessID) wire.Hello {
	return wire.Hello{
		Version:        wire.HelloVersion,
		From:           id,
		Lanes:          lanes,
		Link:           wire.LinkGeneral,
		MembershipHash: wire.MembershipHash(members),
		Capabilities:   wire.CapLaneLinks,
	}
}

// TestMemSessionMismatch pins the fail-fast contract on the in-memory
// transport: two servers configured with different WriteLanes (or
// different memberships, or wire versions — a v3 build, or a
// session-less endpoint, which has none) cannot exchange a single frame
// — both Handshake and Send surface a typed *wire.HandshakeError.
func TestMemSessionMismatch(t *testing.T) {
	members := []wire.ProcessID{1, 2}
	v3 := serverHello(2, 4, members)
	v3.Version = 3
	for name, tc := range map[string]struct {
		other *wire.Hello // nil registers a session-less endpoint
		field string
	}{
		"lanes":       {ptr(serverHello(2, 8, members)), "lanes"},
		"membership":  {ptr(serverHello(2, 4, []wire.ProcessID{1, 2, 3})), "membership"},
		"version":     {&v3, "wire version"},
		"sessionless": {nil, "wire version"},
	} {
		t.Run(name, func(t *testing.T) {
			net := NewMemNetwork(MemNetworkOptions{})
			a, err := net.RegisterSession(serverHello(1, 4, members))
			if err != nil {
				t.Fatal(err)
			}
			var b *MemEndpoint
			if tc.other != nil {
				b, err = net.RegisterSession(*tc.other)
			} else {
				b, err = net.Register(2)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = a.Close(); _ = b.Close() }()

			var herr *wire.HandshakeError
			if err := a.Handshake(2); !errors.As(err, &herr) || herr.Field != tc.field {
				t.Fatalf("Handshake: got %v, want *wire.HandshakeError on %s", err, tc.field)
			}
			if err := b.Send(1, newFrame(9)); !errors.As(err, &herr) || herr.Field != tc.field {
				t.Fatalf("reverse Send: got %v, want *wire.HandshakeError on %s", err, tc.field)
			}
			if err := a.Send(2, newFrame(1)); !errors.As(err, &herr) {
				t.Fatalf("Send: got %v, want *wire.HandshakeError", err)
			}
			if err := a.SendLane(2, 1, newFrame(2)); !errors.As(err, &herr) {
				t.Fatalf("SendLane: got %v, want *wire.HandshakeError", err)
			}
			select {
			case in := <-b.Inbox():
				t.Fatalf("frame leaked through an incompatible session: %+v", in)
			case in := <-a.Inbox():
				t.Fatalf("frame leaked through an incompatible session: %+v", in)
			default:
			}
		})
	}
}

func ptr(h wire.Hello) *wire.Hello { return &h }

// TestMemSessionCompatible verifies the accept paths: matched servers,
// and lane-unaware clients against any server.
func TestMemSessionCompatible(t *testing.T) {
	members := []wire.ProcessID{1, 2}
	net := NewMemNetwork(MemNetworkOptions{})
	a, err := net.RegisterSession(serverHello(1, 4, members))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.RegisterSession(serverHello(2, 4, members))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := net.RegisterSession(wire.Hello{
		Version: wire.HelloVersion, From: 100, Link: wire.LinkGeneral,
		MembershipHash: wire.MembershipHash(members),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close(); _ = b.Close(); _ = cl.Close() }()

	if err := a.Handshake(2); err != nil {
		t.Fatalf("server-server handshake: %v", err)
	}
	if err := cl.Handshake(1); err != nil {
		t.Fatalf("client-server handshake: %v", err)
	}
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	if in := <-b.Inbox(); in.From != 1 {
		t.Fatalf("frame from %d, want 1", in.From)
	}
}

// TestMemSendLaneTagsLink verifies per-lane links: SendLane delivers
// the frame with the lane as the link's negotiated lane, Send leaves
// the frame unpinned, and a peer without CapLaneLinks degrades to the
// general link.
func TestMemSendLaneTagsLink(t *testing.T) {
	members := []wire.ProcessID{1, 2}
	net := NewMemNetwork(MemNetworkOptions{})
	a, err := net.RegisterSession(serverHello(1, 4, members))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.RegisterSession(serverHello(2, 4, members))
	if err != nil {
		t.Fatal(err)
	}

	if err := a.SendLane(2, 3, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	in := <-b.Inbox()
	if lane, ok := in.NegotiatedLane(); !ok || lane != 3 {
		t.Fatalf("negotiated lane (%d,%v), want (3,true)", lane, ok)
	}
	if err := a.Send(2, newFrame(2)); err != nil {
		t.Fatal(err)
	}
	in = <-b.Inbox()
	if _, ok := in.NegotiatedLane(); ok {
		t.Fatal("plain Send delivered lane-pinned")
	}

	// A peer without the capability gets general-link delivery even
	// through SendLane.
	noCaps := serverHello(3, 4, members)
	noCaps.Capabilities = 0
	c, err := net.RegisterSession(noCaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendLane(3, 2, newFrame(3)); err != nil {
		t.Fatal(err)
	}
	in = <-c.Inbox()
	if _, ok := in.NegotiatedLane(); ok {
		t.Fatal("lane link negotiated without CapLaneLinks")
	}
	_ = a.Close()
	_ = b.Close()
	_ = c.Close()
}
