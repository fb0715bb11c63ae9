package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/rdf"
)

// checkStoreOps interprets data as a program of store operations, two
// bytes each — insert, delete, clear, publish, or "run the next few in
// one Batch" over a universe of 64 quads in two graphs, small enough
// that re-inserts, deletes of pending inserts and re-inserts of pending
// deletes are the common case — and checks the store against a plain
// map after every step: return values at once, and at every publish
// Len, TotalLen and all three orderings of both graphs (strictly sorted,
// hence duplicate-free, and equal to the model), and the snapshot's
// lock-free Lookup against the dictionary's for every term of the
// universe, with each term's never-interned value twin missing; each
// graph's subject table entry by entry against its SPO ordering; and
// Range for every S- and SP-bound pattern of the universe against a
// filter of the model.
func checkStoreOps(t *testing.T, data []byte) {
	st := New()
	g1 := iri("g1")
	model := map[rdf.Quad]bool{}
	quad := func(b byte) rdf.Quad {
		q := rdf.NewQuad(iri(fmt.Sprint("s", b&3)), iri(fmt.Sprint("p", b>>2&1)), rdf.NewInteger(int64(b>>3&3)), rdf.Term{})
		if b>>5&1 == 1 {
			q.G = g1
		}
		return q
	}
	// apply runs one write against b and the model.
	apply := func(step int, b *Batch, kind, arg byte) {
		q := quad(arg)
		switch kind % 8 {
		case 0, 1, 2:
			if got := b.Insert(q); got != !model[q] {
				t.Fatalf("step %d: Insert(%v) = %v with model %v", step, q, got, model[q])
			}
			model[q] = true
		case 3, 4:
			if got := b.Delete(q); got != model[q] {
				t.Fatalf("step %d: Delete(%v) = %v with model %v", step, q, got, model[q])
			}
			delete(model, q)
		case 5:
			b.Clear(q.G)
			for m := range model {
				if m.G == q.G {
					delete(model, m)
				}
			}
		}
	}
	verify := func(step int) {
		sn := st.Snapshot()
		if again := st.Snapshot(); again != sn {
			t.Fatalf("step %d: a second Snapshot without a write published again", step)
		}
		for b := 0; b < 64; b++ {
			q := quad(byte(b))
			for _, term := range [4]rdf.Term{q.S, q.P, q.O, g1} {
				id, ok := sn.Lookup(term)
				if want, wantOK := st.Dict().Lookup(term); id != want || ok != wantOK {
					t.Fatalf("step %d: snapshot Lookup(%v) = %d, %v; the dictionary says %d, %v", step, term, id, ok, want, wantOK)
				}
				if _, ok := sn.Lookup(rdf.NewLiteral(term.Value)); ok {
					t.Fatalf("step %d: the never-interned twin of %v resolves", step, term)
				}
			}
		}
		if sn.TotalLen() != len(model) {
			t.Fatalf("step %d: TotalLen = %d, model has %d", step, sn.TotalLen(), len(model))
		}
		for _, g := range []rdf.Term{{}, g1} {
			want := 0
			for m := range model {
				if m.G == g {
					want++
				}
			}
			if sn.Len(g) != want {
				t.Fatalf("step %d: Len(%v) = %d, model has %d", step, g, sn.Len(g), want)
			}
			gid, ok := sn.GraphID(g)
			if !ok {
				if want != 0 {
					t.Fatalf("step %d: graph %v missing", step, g)
				}
				continue
			}
			for o, idx := range sn.graphs[gid].idx {
				if len(idx) != want {
					t.Fatalf("step %d: graph %v ordering %d has %d triples, want %d", step, g, o, len(idx), want)
				}
				for i, tr := range idx {
					if i > 0 && cmpOrder[o](idx[i-1], tr) >= 0 {
						t.Fatalf("step %d: graph %v ordering %d not strictly sorted at %d", step, g, o, i)
					}
					if top := ID(len(sn.terms)); tr.S >= top || tr.P >= top || tr.O >= top || gid >= top {
						t.Fatalf("step %d: graph %d holds %v, beyond the snapshot's pinned table of %d terms", step, gid, tr, top)
					}
					if tt := sn.triple(tr); !model[rdf.NewQuad(tt.S, tt.P, tt.O, g)] {
						t.Fatalf("step %d: graph %v ordering %d holds %v, absent from the model", step, g, o, tt)
					}
				}
			}
			checkSubjectTable(t, step, sn.graphs[gid])
			for b := 0; b < 8; b++ {
				q := quad(byte(b))
				for _, p := range [2]rdf.Term{{}, q.P} {
					pat, ok := sn.PatternIDs(q.S, p, rdf.Term{})
					got := 0
					if ok {
						for _, tr := range sn.Range(gid, pat) {
							if tt := sn.triple(tr); tt.S != q.S || !p.IsZero() && tt.P != p || !model[rdf.NewQuad(tt.S, tt.P, tt.O, g)] {
								t.Fatalf("step %d: Range(%v, %v) in graph %v holds %v", step, q.S, p, g, tt)
							}
							got++
						}
					}
					want := 0
					for m := range model {
						if m.G == g && m.S == q.S && (p.IsZero() || m.P == p) {
							want++
						}
					}
					if got != want {
						t.Fatalf("step %d: Range(%v, %v) in graph %v has %d triples, model has %d", step, q.S, p, g, got, want)
					}
				}
			}
		}
	}
	for i := 0; i+1 < len(data); i += 2 {
		switch kind, arg := data[i], data[i+1]; kind % 8 {
		case 6:
			verify(i)
		case 7: // the next 1–4 writes in one Batch
			end := min(i+2+2*int(arg%4+1), len(data)&^1)
			st.Batch(func(b *Batch) {
				for j := i + 2; j < end; j += 2 {
					apply(j, b, data[j], data[j+1])
				}
			})
			i = end - 2
		default:
			st.Batch(func(b *Batch) { apply(i, b, kind, arg) })
		}
	}
	verify(len(data))
}

// checkSubjectTable checks g's subject table entry by entry: present
// exactly when its subjects span at most len(spo)-2 ids, and then each
// entry the first SPO position whose subject is at least its id, with
// one entry past the highest subject.
func checkSubjectTable(t *testing.T, step int, g *graph) {
	idx := g.idx[spo]
	if len(idx) == 0 || int(idx[len(idx)-1].S-idx[0].S)+2 > len(idx) {
		if g.subj != nil {
			t.Fatalf("step %d: a subject table of %d entries over %d triples", step, len(g.subj), len(idx))
		}
		return
	}
	if g.lo != idx[0].S || len(g.subj) != int(idx[len(idx)-1].S-g.lo)+2 {
		t.Fatalf("step %d: subject table from %d with %d entries over subjects %d..%d", step, g.lo, len(g.subj), idx[0].S, idx[len(idx)-1].S)
	}
	for k, pos := range g.subj {
		s := g.lo + ID(k)
		if want := sort.Search(len(idx), func(i int) bool { return idx[i].S >= s }); int(pos) != want {
			t.Fatalf("step %d: subject table entry for %d is %d, want %d", step, s, pos, want)
		}
	}
}

// TestStoreModel runs seeded random operation programs, with and
// without frequent publishes, through checkStoreOps.
func TestStoreModel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 300; round++ {
		data := make([]byte, 2*(1+rng.Intn(200)))
		rng.Read(data)
		if round%3 == 0 { // long write bursts: turn most publishes into inserts
			for i := 0; i < len(data); i += 2 {
				if data[i]%8 == 6 && rng.Intn(4) > 0 {
					data[i] = 0
				}
			}
		}
		checkStoreOps(t, data)
	}
}

func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 6, 0, 3, 1, 0, 1, 6, 0})        // insert twice, publish, delete, re-insert
	f.Add([]byte{0, 9, 3, 9, 6, 0, 0, 9, 6, 0, 3, 9, 3, 9})  // delete of a pending insert
	f.Add([]byte{0, 33, 0, 34, 6, 0, 5, 32, 0, 35, 6, 0})    // named graph, clear, insert after clear
	f.Add([]byte{7, 3, 0, 1, 0, 2, 3, 1, 5, 0, 6, 0, 0, 63}) // one batch of four writes
	// Two bursts of 16 inserts, the second with two deletes: each delta's
	// adds outnumber the ids they span, so both publishes, onto an empty
	// base and onto a loaded one, take the counting passes.
	var bulk []byte
	for b := byte(0); b < 32; b++ {
		if bulk = append(bulk, 0, b); b == 15 {
			bulk = append(bulk, 6, 0)
		}
	}
	f.Add(append(bulk, 3, 0, 3, 1, 6, 0))
	f.Fuzz(checkStoreOps)
}
