package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func newFrame(req uint64) wire.Frame {
	return wire.NewFrame(wire.Envelope{Kind: wire.KindReadRequest, ReqID: req})
}

func TestRegisterValidation(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	if _, err := n.Register(wire.NoProcess); err == nil {
		t.Error("registering NoProcess should fail")
	}
	if _, err := n.Register(1); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := n.Register(1); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestSendReceive(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	if err := a.Send(2, newFrame(7)); err != nil {
		t.Fatal(err)
	}
	got := <-b.Inbox()
	if got.From != 1 || got.Frame.Env.ReqID != 7 {
		t.Fatalf("received %+v", got)
	}
}

func TestSelfSend(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if err := a.Send(1, newFrame(3)); err != nil {
		t.Fatal(err)
	}
	got := <-a.Inbox()
	if got.From != 1 || got.Frame.Env.ReqID != 3 {
		t.Fatalf("received %+v", got)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if err := a.Send(42, newFrame(1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestSendAfterLocalClose(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, newFrame(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	select {
	case <-a.Done():
	default:
		t.Fatal("Done should be closed after Close")
	}
}

func TestCrashNotifiesEveryoneElse(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	c, _ := n.Register(3)
	n.Crash(2)

	for _, ep := range []*MemEndpoint{a, c} {
		select {
		case got := <-ep.Failures():
			if got != 2 {
				t.Fatalf("endpoint %d saw crash of %d, want 2", ep.ID(), got)
			}
		case <-time.After(time.Second):
			t.Fatalf("endpoint %d did not hear about the crash", ep.ID())
		}
	}
	select {
	case got := <-b.Failures():
		t.Fatalf("crashed endpoint received failure notice %d", got)
	default:
	}
}

// TestCrashSetNotifiesOnlySurvivors crashes two of three endpoints in
// one call: only the survivor hears of the crashes, once each, and
// neither victim is told of the other.
func TestCrashSetNotifiesOnlySurvivors(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	c, _ := n.Register(3)
	n.Crash(1, 2)

	heard := make(map[wire.ProcessID]bool)
	for len(heard) < 2 {
		select {
		case got := <-c.Failures():
			if heard[got] || (got != 1 && got != 2) {
				t.Fatalf("survivor heard crash of %d after %v, want 1 and 2 once each", got, heard)
			}
			heard[got] = true
		case <-time.After(time.Second):
			t.Fatalf("survivor heard only %v", heard)
		}
	}
	for _, ep := range []*MemEndpoint{a, b} {
		select {
		case got := <-ep.Failures():
			t.Fatalf("crashed endpoint %d received failure notice %d", ep.ID(), got)
		default:
		}
	}
	select {
	case got := <-c.Failures():
		t.Fatalf("survivor received extra failure notice %d", got)
	default:
	}
}

func TestSendToCrashedPeer(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	n.Crash(2)
	if err := a.Send(2, newFrame(1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestCrashUnblocksPendingSender(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{InboxCapacity: 1})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	// Fill the inbox, then start a blocked send.
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(2, newFrame(2)) }()
	time.Sleep(10 * time.Millisecond) // let the send block
	n.Crash(2)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("err = %v, want ErrPeerDown", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked sender was not released by the crash")
	}
}

func TestBackpressureBlocksUntilDrained(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{InboxCapacity: 2})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	for i := 0; i < 2; i++ {
		if err := a.Send(2, newFrame(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Send(2, newFrame(99))
	}()
	select {
	case <-done:
		t.Fatal("send should have blocked on a full inbox")
	case <-time.After(20 * time.Millisecond):
	}
	<-b.Inbox() // drain one slot
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("send did not complete after the inbox drained")
	}
}

func TestConcurrentSendersAllDelivered(t *testing.T) {
	const senders, perSender = 8, 100
	n := NewMemNetwork(MemNetworkOptions{InboxCapacity: 4})
	dst, _ := n.Register(1)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Register(wire.ProcessID(10 + s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := ep.Send(1, newFrame(uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	got := 0
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for got < senders*perSender {
			<-dst.Inbox()
			got++
		}
	}()
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d messages", got, senders*perSender)
	}
}

func TestCrashUnknownIsNoop(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	if _, err := n.Register(1); err != nil {
		t.Fatal(err)
	}
	n.Crash(42) // must not panic or notify
	n.Crash(42)
}
