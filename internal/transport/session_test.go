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
		MembershipHash: wire.MembershipHash(members),
	}
}

// TestMemSessionMismatch pins the fail-fast contract on the in-memory
// transport: two servers asserting different lane counts (a one-lane
// server and an older build started with four), or different
// memberships, or wire versions — a v3 build, or a
// session-less endpoint, which has none) cannot exchange a single frame
// — both Handshake and Send surface a typed *wire.HandshakeError.
func TestMemSessionMismatch(t *testing.T) {
	members := []wire.ProcessID{1, 2}
	v3 := serverHello(2, 1, members)
	v3.Version = 3
	for name, tc := range map[string]struct {
		other *wire.Hello // nil registers a session-less endpoint
		field string
	}{
		"lanes":       {ptr(serverHello(2, 4, members)), "lanes"},
		"membership":  {ptr(serverHello(2, 1, []wire.ProcessID{1, 2, 3})), "membership"},
		"version":     {&v3, "wire version"},
		"sessionless": {nil, "wire version"},
	} {
		t.Run(name, func(t *testing.T) {
			net := NewMemNetwork(MemNetworkOptions{})
			a, err := net.RegisterSession(serverHello(1, 1, members))
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
	a, err := net.RegisterSession(serverHello(1, 1, members))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.RegisterSession(serverHello(2, 1, members))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := net.RegisterSession(wire.Hello{
		Version: wire.HelloVersion, From: 100,
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
