package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// op is one generated operation: which register, and whether it reads.
// Write payloads are derived from (conn, object, seq) when the op is
// issued, so the stream stays 8 bytes per op.
type op struct {
	object uint32
	read   bool
}

// streamLen is the length of a connection's op stream. A run issues
// as many ops as the store completes, so the stream is cycled; 64 Ki
// ops cover every object of every workload many times over.
const streamLen = 1 << 16

// genStream generates connection conn's op stream from the seed. The
// servers only ever see the ops, never the seed.
func genStream(w *workload, seed int64, conn, n int) []op {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 1))
	ops := make([]op, n)
	for i := range ops {
		ops[i].object = uint32(rng.Intn(w.objects))
		ops[i].read = rng.Intn(100) < w.readPct
	}
	return ops
}

// Payload layout: every value names the write that produced it, so a
// read can be checked against what was sent without a lookup table.
//
//	0..3   magic
//	4..7   conn (setupConn for the set-up writes)
//	8..11  object
//	12..19 seq, the connection's op index
//	20..23 run nonce (low seed bits)
//	24..   filler: splitmix64 of the header, repeated
const (
	payloadMagic  = 0x41534231 // "ASB1"
	payloadHeader = 24
	setupConn     = 0xFFFFFFFF
)

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func fillerWord(conn, object uint32, seq uint64, nonce uint32) uint64 {
	return splitmix64(uint64(conn)<<32 | uint64(object) ^ splitmix64(seq^uint64(nonce)<<40))
}

// fillPayload writes the payload of (conn, object, seq) into buf,
// which must be at least payloadHeader long.
func fillPayload(buf []byte, conn, object uint32, seq uint64, nonce uint32) {
	binary.LittleEndian.PutUint32(buf[0:], payloadMagic)
	binary.LittleEndian.PutUint32(buf[4:], conn)
	binary.LittleEndian.PutUint32(buf[8:], object)
	binary.LittleEndian.PutUint64(buf[12:], seq)
	binary.LittleEndian.PutUint32(buf[20:], nonce)
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], fillerWord(conn, object, seq, nonce))
	for i := payloadHeader; i < len(buf); i += 8 {
		copy(buf[i:], word[:])
	}
}

// payloadID is the identity a value decodes to.
type payloadID struct {
	conn uint32
	seq  uint64
}

// checkPayload verifies that v is intact and was produced for object
// in this run, returning which write produced it.
func checkPayload(v []byte, object uint32, size int, nonce uint32) (payloadID, error) {
	if len(v) != size {
		return payloadID{}, fmt.Errorf("value is %d bytes, want %d", len(v), size)
	}
	if m := binary.LittleEndian.Uint32(v[0:]); m != payloadMagic {
		return payloadID{}, fmt.Errorf("bad magic %#x", m)
	}
	id := payloadID{
		conn: binary.LittleEndian.Uint32(v[4:]),
		seq:  binary.LittleEndian.Uint64(v[12:]),
	}
	if o := binary.LittleEndian.Uint32(v[8:]); o != object {
		return id, fmt.Errorf("value of object %d read from object %d", o, object)
	}
	if n := binary.LittleEndian.Uint32(v[20:]); n != nonce {
		return id, fmt.Errorf("value from another run (nonce %#x)", n)
	}
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], fillerWord(id.conn, object, id.seq, nonce))
	for i := payloadHeader; i < len(v); i += 8 {
		end := min(i+8, len(v))
		if !bytes.Equal(v[i:end], word[:end-i]) {
			return id, fmt.Errorf("filler corrupt at byte %d", i)
		}
	}
	return id, nil
}
