package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/atomicstore"
	"repro/internal/checker"
	"repro/internal/tag"
)

// gates holds, per register, the largest version any completed
// operation has observed. An operation reads its register's gate
// before it is sent and must come back with at least that version (a
// write: strictly more): the real-time rule of atomicity, checked on
// every operation of every workload across both connections, which
// covers the per-connection monotonicity the durability read-back
// relies on.
type gates struct {
	objs []gate
}

type gate struct {
	mu   sync.Mutex
	done tag.Tag
	_    [40]byte // one gate per cache line: hot objects are hot here too
}

func newGates(objects int) *gates { return &gates{objs: make([]gate, objects)} }

func (g *gates) floor(object uint32) tag.Tag {
	gt := &g.objs[object]
	gt.mu.Lock()
	t := gt.done
	gt.mu.Unlock()
	return t
}

func (g *gates) observe(object uint32, t tag.Tag) {
	gt := &g.objs[object]
	gt.mu.Lock()
	if t.After(gt.done) {
		gt.done = t
	}
	gt.mu.Unlock()
}

// verdict collects correctness violations; the first is kept verbatim.
type verdict struct {
	mu    sync.Mutex
	first error
	count int
}

func (v *verdict) fail(err error) {
	v.mu.Lock()
	if v.first == nil {
		v.first = err
	}
	v.count++
	v.mu.Unlock()
}

func (v *verdict) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.first == nil {
		return nil
	}
	return fmt.Errorf("%d correctness violations, first: %w", v.count, v.first)
}

// checkVersion applies the real-time rule to one completed operation.
func checkVersion(floor, got tag.Tag, write bool) error {
	if write && !got.After(floor) {
		return fmt.Errorf("write acked at %s, not after %s which completed before it started", got, floor)
	}
	if got.Less(floor) {
		return fmt.Errorf("read returned %s, older than %s which completed before it started", got, floor)
	}
	return nil
}

// history keeps the first operations of a run for checker.CheckTagged.
// Slot i of connection c belongs to that connection's op i alone, so
// recording needs no lock.
type history struct {
	perConn int
	ops     [][]checker.Op // [conn][op index]
	objects [][]uint32
}

func newHistory(total int) *history {
	h := &history{perConn: total / numConns}
	for c := 0; c < numConns; c++ {
		h.ops = append(h.ops, make([]checker.Op, h.perConn))
		h.objects = append(h.objects, make([]uint32, h.perConn))
	}
	return h
}

// record keeps op idx of connection conn if it is in the kept prefix;
// value is what the op wrote or read.
func (h *history) record(conn int, idx uint64, object uint32, value []byte, o checker.Op) {
	if h == nil || idx >= uint64(h.perConn) {
		return
	}
	o.ID, o.Value = conn*h.perConn+int(idx), payloadKey(value)
	h.ops[conn][idx] = o
	h.objects[conn][idx] = object
}

// check runs CheckTagged per register (versions are per register),
// with the set-up write of each register as its first operation. A
// kept read may have observed a write issued after its connection's
// kept prefix; such reads are left out, which is sound — removing a
// read never makes a history linearizable that was not — and the
// version gates have checked them anyway.
func (h *history) check(objects int, setup []checker.Op) error {
	byObject := make([][]checker.Op, objects)
	for o := range byObject {
		byObject[o] = append(byObject[o], setup[o])
	}
	for c := range h.ops {
		for i, o := range h.ops[c] {
			if o.Kind == 0 {
				continue // never issued: the run was shorter than the prefix
			}
			if o.Kind == checker.KindRead && !o.Incomplete {
				if id := keyID(o.Value); id.conn != setupConn && id.seq >= uint64(h.perConn) {
					continue
				}
			}
			byObject[h.objects[c][i]] = append(byObject[h.objects[c][i]], o)
		}
	}
	for o, ops := range byObject {
		if err := checker.CheckTagged(ops); err != nil {
			return fmt.Errorf("object %d: %w", o, err)
		}
	}
	return nil
}

// payloadKey is the value identity CheckTagged compares: the payload
// header names the producing write, and the filler is verified against
// it separately, so the header stands for the whole value.
func payloadKey(v []byte) string {
	if len(v) < payloadHeader {
		return string(v)
	}
	return string(v[:payloadHeader])
}

// keyID decodes the producing write from a payloadKey.
func keyID(key string) payloadID {
	if len(key) < payloadHeader {
		return payloadID{conn: setupConn}
	}
	return payloadID{
		conn: binary.LittleEndian.Uint32([]byte(key[4:8])),
		seq:  binary.LittleEndian.Uint64([]byte(key[12:20])),
	}
}

// durability is the outcome of the kill / restart / read-back check.
type durability struct {
	replay   time.Duration // restart of all three servers, WAL replay included
	replayed uint64
	torn     uint64
}

// checkDurability kills all three servers, restarts them over the same
// directories and reads every register: each must return an intact
// value at a version no older than the last one acknowledged.
func checkDurability(w *workload, st *store, nonce uint32, clientBase int) (durability, error) {
	var d durability
	closeClients(st.clients)
	st.clients = nil
	st.ring.kill()

	start := time.Now()
	if err := st.ring.restart(); err != nil {
		return d, fmt.Errorf("restart: %w", err)
	}
	d.replay = time.Since(start)
	ws := st.ring.walStats()
	d.replayed, d.torn = ws.Replayed, ws.TornTails

	clients, err := st.ring.dial(clientBase)
	if err != nil {
		return d, err
	}
	st.clients = clients
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for o := 0; o < w.objects; o++ {
		v, ver, err := clients[o%numConns].Read(ctx, atomicstore.ObjectID(o))
		if err != nil {
			return d, fmt.Errorf("read-back of object %d: %w", o, err)
		}
		if want := st.gates.floor(uint32(o)); ver.Less(want) {
			return d, fmt.Errorf("object %d came back at %s, acknowledged at %s before the crash", o, ver, want)
		}
		if _, err := checkPayload(v, uint32(o), w.valueBytes, nonce); err != nil {
			return d, fmt.Errorf("read-back of object %d: %w", o, err)
		}
	}
	return d, nil
}
