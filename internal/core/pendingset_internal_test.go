package core

import (
	"math/rand"
	"testing"

	"repro/internal/tag"
)

// checkAgainstModel asserts the sorted pending set agrees with the map
// reference model on every observable: size, max, membership, values,
// ordering.
func checkAgainstModel(t *testing.T, p *pendingSet, model map[tag.Tag][]byte) {
	t.Helper()
	if p.size() != len(model) {
		t.Fatalf("size = %d, model has %d", p.size(), len(model))
	}
	var wantMax tag.Tag
	for mt := range model {
		wantMax = wantMax.Max(mt)
	}
	if got := p.max(); got != wantMax {
		t.Fatalf("max = %s, model says %s", got, wantMax)
	}
	prev := tag.Tag{}
	for i := range p.entries {
		e := &p.entries[i]
		if i > 0 && !prev.Less(e.tag) {
			t.Fatalf("entries not strictly sorted: %s then %s", prev, e.tag)
		}
		prev = e.tag
		mv, ok := model[e.tag]
		if !ok {
			t.Fatalf("entry %s not in model", e.tag)
		}
		if string(mv) != string(e.value) {
			t.Fatalf("entry %s = %q, model says %q", e.tag, e.value, mv)
		}
		if v, ok := p.get(e.tag); !ok || string(v) != string(mv) {
			t.Fatalf("get(%s) = (%q, %v)", e.tag, v, ok)
		}
	}
	// Absent tags stay absent.
	if _, ok := p.get(tag.Tag{TS: 1 << 40, ID: 7}); ok {
		t.Fatal("get of absent tag succeeded")
	}
}

// TestPendingSetAgainstMapModel drives random add / duplicate-add / drop
// / prefix-prune sequences against a map reference model
// (the structure the sorted slice replaced) and checks the observables
// after every operation.
func TestPendingSetAgainstMapModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p pendingSet
		model := make(map[tag.Tag][]byte)
		randTag := func() tag.Tag {
			return tag.Tag{TS: uint64(1 + rng.Intn(12)), ID: uint32(1 + rng.Intn(3))}
		}
		for op := 0; op < 600; op++ {
			switch rng.Intn(4) {
			case 0, 1: // add (duplicates: first copy must win)
				tg := randTag()
				val := []byte{byte(op), byte(op >> 8)}
				inserted := p.add(tg, val)
				if _, exists := model[tg]; exists == inserted {
					t.Fatalf("seed %d op %d: add(%s) inserted=%v but model exists=%v",
						seed, op, tg, inserted, exists)
				}
				if inserted {
					model[tg] = val
				}
			case 2: // drop exact
				tg := randTag()
				p.drop(tg)
				delete(model, tg)
			case 3: // prefix prune
				tg := randTag()
				n := p.prefixLen(tg)
				for mt := range model {
					if mt.LessEq(tg) {
						n--
						delete(model, mt)
					}
				}
				if n != 0 {
					t.Fatalf("seed %d op %d: prefixLen(%s) disagrees with model by %d", seed, op, tg, n)
				}
				p.dropPrefix(p.prefixLen(tg))
			}
			checkAgainstModel(t, &p, model)
		}
	}
}

// TestPendingSetSteadyStateNoAlloc pins the zero-churn property: once
// the backing array has grown to the working depth, add/prune cycles
// allocate nothing.
func TestPendingSetSteadyStateNoAlloc(t *testing.T) {
	var p pendingSet
	val := []byte("v")
	ts := uint64(0)
	// Warm the backing array to depth 8.
	for i := 0; i < 8; i++ {
		ts++
		p.add(tag.Tag{TS: ts, ID: 1}, val)
	}
	p.dropPrefix(p.size())
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			ts++
			p.add(tag.Tag{TS: ts, ID: 1}, val)
		}
		p.dropPrefix(p.prefixLen(tag.Tag{TS: ts, ID: 1}))
	})
	if allocs != 0 {
		t.Fatalf("steady-state add/prune allocates %.1f/op, want 0", allocs)
	}
}

// TestPendingSetPruneZeroesVacatedSlots guards against value slices
// lingering in the backing array past the logical length.
func TestPendingSetPruneZeroesVacatedSlots(t *testing.T) {
	var p pendingSet
	for i := 1; i <= 4; i++ {
		p.add(tag.Tag{TS: uint64(i), ID: 1}, []byte{byte(i)})
	}
	p.dropPrefix(p.prefixLen(tag.Tag{TS: 3, ID: 1}))
	tail := p.entries[len(p.entries):cap(p.entries)]
	for i := range tail {
		if tail[i].value != nil || !tail[i].tag.IsZero() {
			t.Fatalf("vacated slot %d not zeroed: %+v", i, tail[i])
		}
	}
}

// TestObjectStateAddPendingSkipsStaleTags pins the stale-duplicate
// guard: entries at or below the stored tag never enter the pending set
// (they could resurrect a pruned entry as a ghost barrier).
func TestObjectStateAddPendingSkipsStaleTags(t *testing.T) {
	o := newObjectState()
	o.apply(tag.Tag{TS: 5, ID: 1}, []byte("v"))
	o.addPending(tag.Tag{TS: 5, ID: 1}, []byte("dup"))
	o.addPending(tag.Tag{TS: 4, ID: 9}, []byte("old"))
	if o.pending.size() != 0 {
		t.Fatalf("stale tags entered the pending set: size=%d", o.pending.size())
	}
	o.addPending(tag.Tag{TS: 5, ID: 2}, []byte("new"))
	if o.pending.size() != 1 {
		t.Fatal("newer tag refused")
	}
}
