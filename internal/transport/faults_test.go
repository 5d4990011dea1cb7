package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// verdictFunc adapts a function to the FaultInjector interface.
type verdictFunc func(from, to wire.ProcessID, f *wire.Frame) FaultVerdict

func (fn verdictFunc) Verdict(from, to wire.ProcessID, f *wire.Frame) FaultVerdict {
	return fn(from, to, f)
}

func TestFaultDropIsSilent(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	n.SetFaultInjector(verdictFunc(func(from, to wire.ProcessID, _ *wire.Frame) FaultVerdict {
		return FaultVerdict{Drop: from == 1 && to == 2}
	}))
	// The drop is directed: 1->2 dies, 2->1 flows.
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatalf("dropped send must still succeed: %v", err)
	}
	if err := b.Send(1, newFrame(2)); err != nil {
		t.Fatal(err)
	}
	got := <-a.Inbox()
	if got.Frame.Env.ReqID != 2 {
		t.Fatalf("received %+v", got)
	}
	select {
	case in := <-b.Inbox():
		t.Fatalf("dropped frame was delivered: %+v", in)
	case <-time.After(20 * time.Millisecond):
	}
	// Removing the injector restores the link.
	n.SetFaultInjector(nil)
	if err := a.Send(2, newFrame(3)); err != nil {
		t.Fatal(err)
	}
	if got := <-b.Inbox(); got.Frame.Env.ReqID != 3 {
		t.Fatalf("received %+v", got)
	}
}

func TestFaultDelayReorders(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	n.SetFaultInjector(verdictFunc(func(_, _ wire.ProcessID, f *wire.Frame) FaultVerdict {
		if f.Env.ReqID == 1 {
			return FaultVerdict{Delay: 60 * time.Millisecond}
		}
		return FaultVerdict{}
	}))
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, newFrame(2)); err != nil {
		t.Fatal(err)
	}
	first := <-b.Inbox()
	if first.Frame.Env.ReqID != 2 {
		t.Fatalf("undelayed frame should overtake: got req %d first", first.Frame.Env.ReqID)
	}
	second := <-b.Inbox()
	if second.Frame.Env.ReqID != 1 {
		t.Fatalf("delayed frame lost: got req %d", second.Frame.Env.ReqID)
	}
	if second.From != 1 {
		t.Fatalf("delayed delivery metadata wrong: %+v", second)
	}
}

func TestFaultDelayOrderPreservedAtEqualDelay(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	n.SetFaultInjector(verdictFunc(func(_, _ wire.ProcessID, _ *wire.Frame) FaultVerdict {
		return FaultVerdict{Delay: 10 * time.Millisecond}
	}))
	for i := uint64(1); i <= 8; i++ {
		if err := a.Send(2, newFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 8; i++ {
		got := <-b.Inbox()
		if got.Frame.Env.ReqID != i {
			t.Fatalf("equal-delay frames reordered: got %d, want %d", got.Frame.Env.ReqID, i)
		}
	}
}

func TestFaultDelayToCrashedPeerIsDropped(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	defer n.Close()
	a, _ := n.Register(1)
	_, _ = n.Register(2)
	n.SetFaultInjector(verdictFunc(func(_, _ wire.ProcessID, _ *wire.Frame) FaultVerdict {
		return FaultVerdict{Delay: 30 * time.Millisecond}
	}))
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	n.Crash(2)
	// The delayed frame's destination is gone at its deadline; delivery
	// must quietly drop it (nothing to assert beyond "no deadlock").
	time.Sleep(60 * time.Millisecond)
}

func TestFaultTrySendHonorsVerdicts(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	n.SetFaultInjector(verdictFunc(func(_, _ wire.ProcessID, f *wire.Frame) FaultVerdict {
		switch f.Env.ReqID {
		case 1:
			return FaultVerdict{Drop: true}
		case 2:
			return FaultVerdict{Delay: 10 * time.Millisecond}
		}
		return FaultVerdict{}
	}))
	if !a.TrySend(2, newFrame(1)) {
		t.Fatal("dropped TrySend must report acceptance")
	}
	if !a.TrySend(2, newFrame(2)) {
		t.Fatal("delayed TrySend must report acceptance")
	}
	got := <-b.Inbox()
	if got.Frame.Env.ReqID != 2 {
		t.Fatalf("want the delayed frame (req 2), got %d", got.Frame.Env.ReqID)
	}
	select {
	case in := <-b.Inbox():
		t.Fatalf("dropped frame was delivered: %+v", in)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestNetworkCloseRetiresParkedFrames(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	_, _ = n.Register(2)
	n.SetFaultInjector(verdictFunc(func(_, _ wire.ProcessID, _ *wire.Frame) FaultVerdict {
		return FaultVerdict{Delay: time.Hour}
	}))
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // idempotent
	// A post-close delayed send is dropped on the spot instead of
	// leaking onto a dead heap.
	if err := a.Send(2, newFrame(2)); err != nil {
		t.Fatal(err)
	}
}
