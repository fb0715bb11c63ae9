package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
)

// scanFixture builds a store with n subjects, each carrying a type, a
// value, and a label, plus one named graph, so every index (SPO, POS,
// OSP) and both graphs get exercised.
func scanFixture(n int) *Store {
	st := New()
	typ := rdf.NewIRI("http://ex/type")
	item := rdf.NewIRI("http://ex/Item")
	val := rdf.NewIRI("http://ex/value")
	g := rdf.NewIRI("http://ex/g")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s/%04d", i))
		ts = append(ts,
			rdf.NewTriple(s, typ, item),
			rdf.NewTriple(s, val, rdf.NewInteger(int64(i%7))),
		)
	}
	st.InsertTriples(rdf.Term{}, ts)
	st.InsertTriples(g, ts[:4])
	return st
}

// collectScan drains a cursor into a slice.
func collectScan(sc *Scan) []IDTriple {
	var out []IDTriple
	for {
		t, ok := sc.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// TestRangeAllPatterns checks Range, Count and the cursor against
// brute-force iteration for all eight bound/unbound combinations, on the
// default graph and a named graph: same triples, same count, and the
// emission order each pattern's index promises (S, SP, SPO and the full
// wildcard in SPO order; P and PO in POS order; O and S+O in OSP order).
func TestRangeAllPatterns(t *testing.T) {
	st := scanFixture(50)
	dict := st.Dict()
	id := func(term rdf.Term) ID {
		v, ok := dict.Lookup(term)
		if !ok {
			t.Fatalf("%v not interned", term)
		}
		return v
	}
	sid, pid, oid := id(rdf.NewIRI("http://ex/s/0003")), id(rdf.NewIRI("http://ex/value")), id(rdf.NewInteger(3))
	gid := id(rdf.NewIRI("http://ex/g"))

	cases := []struct {
		name string
		pat  IDTriple
		cmp  func(a, b IDTriple) int
	}{
		{"none", IDTriple{}, cmpSPO},
		{"S", IDTriple{S: sid}, cmpSPO},
		{"P", IDTriple{P: pid}, cmpPOS},
		{"O", IDTriple{O: oid}, cmpOSP},
		{"SP", IDTriple{S: sid, P: pid}, cmpSPO},
		{"SO", IDTriple{S: sid, O: oid}, cmpOSP},
		{"PO", IDTriple{P: pid, O: oid}, cmpPOS},
		{"SPO", IDTriple{S: sid, P: pid, O: oid}, cmpSPO},
		{"unknown id", IDTriple{S: 9999}, cmpSPO},
		{"O of type triples", IDTriple{O: id(rdf.NewIRI("http://ex/Item"))}, cmpOSP},
	}
	sn := st.Snapshot()
	for _, g := range []ID{NoID, gid} {
		all := sn.Range(g, IDTriple{})
		for _, c := range cases {
			var want []IDTriple
			for _, tr := range all {
				if (c.pat.S == NoID || tr.S == c.pat.S) && (c.pat.P == NoID || tr.P == c.pat.P) && (c.pat.O == NoID || tr.O == c.pat.O) {
					want = append(want, tr)
				}
			}
			slices.SortFunc(want, c.cmp)
			if got := sn.Range(g, c.pat); !slices.Equal(got, want) {
				t.Errorf("g=%d %s: Range = %v, want %v", g, c.name, got, want)
			}
			if got := st.Count(g, c.pat); got != len(want) {
				t.Errorf("g=%d %s: Count = %d, want %d", g, c.name, got, len(want))
			}
			if got := collectScan(st.ScanIDs(g, c.pat)); !slices.Equal(got, want) {
				t.Errorf("g=%d %s: cursor = %v, want %v", g, c.name, got, want)
			}
		}
	}
	if sn.Range(9999, IDTriple{}) != nil {
		t.Error("unknown graph must match nothing")
	}
}

// TestScanSnapshotSurvivesWrites checks a suspended cursor keeps
// reading its creation-time snapshot while a writer mutates the graph
// and a later reader publishes the write — the property the streaming
// query pipeline relies on to hold a cursor across chunk boundaries.
func TestScanSnapshotSurvivesWrites(t *testing.T) {
	st := scanFixture(20)
	pid, _ := st.Dict().Lookup(rdf.NewIRI("http://ex/value"))
	pat := IDTriple{P: pid}
	old := st.Snapshot()
	want := slices.Clone(old.Range(NoID, pat))

	sc := st.ScanIDs(NoID, pat)
	got := make([]IDTriple, 0, len(want))
	for i := 0; i < len(want)/2; i++ {
		tr, ok := sc.Next()
		if !ok {
			t.Fatal("cursor exhausted early")
		}
		got = append(got, tr)
	}
	st.InsertTriples(rdf.Term{}, []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://ex/s/zzzz"), rdf.NewIRI("http://ex/value"), rdf.NewInteger(2)),
	})
	st.Delete(rdf.NewQuad(rdf.NewIRI("http://ex/s/0000"), rdf.NewIRI("http://ex/value"), rdf.NewInteger(0), rdf.Term{}))

	// A fresh cursor publishes and sees both writes.
	fresh := st.Snapshot()
	if fresh.Epoch() != old.Epoch()+1 {
		t.Errorf("epoch = %d after one publish from %d", fresh.Epoch(), old.Epoch())
	}
	if n := len(collectScan(st.ScanIDs(NoID, pat))); n != len(want) {
		t.Fatalf("fresh scan saw %d triples, want %d (one added, one removed)", n, len(want))
	}
	if slices.Equal(fresh.Range(NoID, pat), want) {
		t.Fatal("fresh snapshot does not show the writes")
	}

	// The suspended cursor and the old snapshot are unchanged by it.
	got = append(got, collectScan(sc)...)
	if !slices.Equal(got, want) {
		t.Fatalf("suspended cursor saw %d triples after a publish, want the original %d", len(got), len(want))
	}
	if !slices.Equal(old.Range(NoID, pat), want) || old.Len(rdf.Term{}) != fresh.Len(rdf.Term{}) {
		t.Fatal("a publish changed the previous snapshot")
	}
}

// TestBlockedReaderBlocksNobody parks a Match callback mid-scan and
// checks that a writer, a publish and a second reader all complete
// meanwhile: reads hold no store lock.
func TestBlockedReaderBlocksNobody(t *testing.T) {
	st := scanFixture(20)
	before := st.Len(rdf.Term{})
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		n := 0
		st.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple) bool {
			if n++; n == 1 {
				close(parked)
				<-release
			}
			return true
		})
		done <- n
	}()
	<-parked
	finished := make(chan int)
	go func() {
		st.Insert(rdf.NewQuad(rdf.NewIRI("http://ex/s/new"), rdf.NewIRI("http://ex/value"), rdf.NewInteger(1), rdf.Term{}))
		finished <- st.Len(rdf.Term{}) // a second reader, publishing the insert
	}()
	select {
	case n := <-finished:
		if n != before+1 {
			t.Errorf("second reader saw %d triples, want %d", n, before+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a parked Match callback blocked a writer or a second reader")
	}
	close(release)
	if n := <-done; n != before {
		t.Errorf("parked reader saw %d triples, want its snapshot's %d", n, before)
	}
}

// TestMatchScanTermLevel checks that an id cursor decoded through the
// snapshot's pinned table yields what the term-level Match does, and
// that a pattern over an id no triple carries is an empty cursor.
func TestMatchScanTermLevel(t *testing.T) {
	st := scanFixture(10)
	val := rdf.NewIRI("http://ex/value")

	var want []rdf.Triple
	st.Match(rdf.Term{}, rdf.Term{}, val, rdf.Term{}, func(tr rdf.Triple) bool {
		want = append(want, tr)
		return true
	})
	sn := st.Snapshot()
	pid, _ := st.Dict().Lookup(val)
	sc := sn.ScanIDs(NoID, IDTriple{P: pid})
	for i := 0; ; i++ {
		tr, ok := sc.Next()
		if !ok {
			if i != len(want) {
				t.Fatalf("cursor ended after %d triples, want %d", i, len(want))
			}
			break
		}
		if got := rdf.NewTriple(sn.Term(tr.S), sn.Term(tr.P), sn.Term(tr.O)); i >= len(want) || got != want[i] {
			t.Fatalf("triple %d differs: %v", i, got)
		}
	}

	// An id interned after the snapshot was published matches nothing in it.
	late := st.Dict().Intern(rdf.NewIRI("http://ex/late"))
	if _, ok := sn.ScanIDs(NoID, IDTriple{P: late}).Next(); ok {
		t.Error("an id no triple carries must yield an empty cursor")
	}
	if _, ok := sn.ScanIDs(late, IDTriple{}).Next(); ok {
		t.Error("unknown graph must yield an empty cursor")
	}
}

// TestPinnedTableUnderWrites runs writers that intern fresh terms — so
// the dictionary's arrays regrow again and again — against readers that
// hold snapshots, look every term of the snapshot up in its pinned index
// and decode every id of every ordering of every graph through its
// pinned table. Under -race this is the proof that neither direction
// needs a lock: a lookup must give the term's id back, a decode must
// equal the dictionary's own (locked) answer, every id must lie inside
// the table, and the snapshot taken before any write must still decode,
// identically, after all of them — and miss every term interned since,
// which a snapshot taken after the writes resolves.
func TestPinnedTableUnderWrites(t *testing.T) {
	st := scanFixture(20)
	g := rdf.NewIRI("http://ex/g")
	decodeAll := func(sn *Snapshot) []rdf.Triple {
		for id := ID(1); int(id) < len(sn.terms); id++ {
			if got, ok := sn.Lookup(sn.terms[id]); !ok || got != id {
				t.Errorf("snapshot of %d terms looks %v up as %d, %v; want %d", len(sn.terms)-1, sn.terms[id], got, ok, id)
				return nil
			}
		}
		var out []rdf.Triple
		for _, gid := range append([]ID{NoID}, sn.NamedGraphIDs()...) {
			gr := sn.graphs[gid]
			if int(gid) >= len(sn.terms) {
				t.Errorf("graph id %d is beyond the pinned table of %d terms", gid, len(sn.terms))
				return nil
			}
			for o := range gr.idx {
				for _, tr := range gr.idx[o] {
					for _, id := range [3]ID{tr.S, tr.P, tr.O} {
						if int(id) >= len(sn.terms) {
							t.Errorf("id %d is beyond the pinned table of %d terms", id, len(sn.terms))
							return nil
						}
						if got, want := sn.Term(id), st.Dict().Term(id); got != want {
							t.Errorf("snapshot decodes id %d as %v, the dictionary as %v", id, got, want)
							return nil
						}
					}
					out = append(out, sn.triple(tr))
				}
			}
		}
		return out
	}
	first := st.Snapshot()
	want := decodeAll(first)

	const writers, readers, bursts = 2, 3, 60
	done := make(chan struct{})
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := rdf.NewIRI("http://ex/p")
			for i := 0; i < bursts; i++ {
				ts := make([]rdf.Triple, 40)
				for j := range ts {
					s := rdf.NewIRI(fmt.Sprintf("http://ex/w%d/%d/%d", w, i, j))
					ts[j] = rdf.NewTriple(s, p, rdf.NewLiteral(fmt.Sprintf("v %d %d %d", w, i, j)))
				}
				st.InsertTriples([]rdf.Term{{}, g}[i%2], ts)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
					decodeAll(st.Snapshot())
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()

	if got := decodeAll(first); !slices.Equal(got, want) {
		t.Errorf("the snapshot taken before the writes decodes differently after them")
	}
	if n, want := st.TotalLen(), first.TotalLen()+writers*bursts*40; n != want {
		t.Errorf("store holds %d triples after the writes, want %d", n, want)
	}
	last := st.Snapshot()
	if len(last.index) < 8*len(first.index) {
		t.Errorf("the index grew from %d to %d slots; the test needs three growths", len(first.index), len(last.index))
	}
	for id := ID(len(first.terms)); int(id) < len(last.terms); id++ {
		term := last.Term(id)
		if _, ok := first.Lookup(term); ok {
			t.Fatalf("%v, interned after the first snapshot, resolves in it", term)
		}
		if got, ok := last.Lookup(term); !ok || got != id {
			t.Fatalf("the last snapshot looks %v up as %d, %v; want %d", term, got, ok, id)
		}
	}
}

// checkSubjectRanges checks g.rng for every S, SP and SPO pattern over
// the ids 1..top against a filter of g's SPO ordering, and that a subject
// table, when g has one, holds at most one entry per triple.
func checkSubjectRanges(t *testing.T, name string, g *graph, top ID) {
	t.Helper()
	all := g.idx[spo]
	if g.subj != nil && len(g.subj) > len(all) {
		t.Fatalf("%s: subject table of %d entries for %d triples", name, len(g.subj), len(all))
	}
	for s := ID(1); s <= top; s++ {
		for p := NoID; p <= top; p++ {
			for o := NoID; o <= top; o++ {
				if p == NoID && o != NoID {
					continue // an OS pattern, served by OSP
				}
				pat := IDTriple{s, p, o}
				var want []IDTriple
				for _, tr := range all {
					if tr.S == s && (p == NoID || tr.P == p) && (o == NoID || tr.O == o) {
						want = append(want, tr)
					}
				}
				if got := g.rng(pat); !slices.Equal(got, want) || cap(got) != len(got) {
					t.Fatalf("%s: rng(%v) = %v (cap %d), want %v", name, pat, got, cap(got), want)
				}
				if p != NoID && o != NoID && g.has(pat) != (len(want) == 1) {
					t.Fatalf("%s: has(%v) = %v", name, pat, g.has(pat))
				}
			}
		}
	}
}

// TestSubjectTableAgainstRange checks the subject table's two arms
// against a filter of the SPO ordering (checkSubjectRanges). Random
// graphs whose subjects span no more ids than they have triples build a
// table: every S, SP and SPO pattern is checked for ids below the lowest
// subject, above the highest, interned after the publish, and for
// subjects whose last triple was deleted — the lowest one among them. A
// graph with subjects at ids 1 and 1<<20 builds none and binary-searches.
func TestSubjectTableAgainstRange(t *testing.T) {
	d := newDelta(new(graph))
	for _, tr := range []IDTriple{{1, 2, 3}, {1, 2, 4}, {1, 5, 3}, {1 << 20, 2, 3}} {
		d.insert(tr)
	}
	if sparse := d.merged(); sparse.subj != nil {
		t.Fatalf("subjects 1 and 1<<20 built a table of %d entries for %d triples", len(sparse.subj), len(sparse.idx[spo]))
	} else {
		checkSubjectRanges(t, "sparse", sparse, 6)
		for s, want := range map[ID]int{1<<20 - 1: 0, 1 << 20: 1, 1<<20 + 1: 0} {
			if got := len(sparse.rng(IDTriple{S: s})); got != want {
				t.Fatalf("sparse: rng(S %d) has %d triples, want %d", s, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	built := 0
	for trial := 0; trial < 40; trial++ {
		st := New()
		g := rdf.NewIRI("http://ex/g")
		node := func() rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/n%d", rng.Intn(12))) }
		ts := make([]rdf.Triple, 20+rng.Intn(60))
		for i := range ts {
			ts[i] = rdf.NewTriple(node(), rdf.NewIRI(fmt.Sprintf("http://ex/p%d", rng.Intn(3))), node())
		}
		st.InsertTriples(rdf.Term{}, ts)
		st.InsertTriples(g, ts[:len(ts)/3])
		// Delete every triple of the first triple's subject — the lowest
		// subject id — and of one other subject, then republish.
		for _, gone := range []rdf.Term{ts[0].S, node()} {
			for _, tr := range st.MatchAll(rdf.Term{}, gone, rdf.Term{}, rdf.Term{}) {
				st.Delete(rdf.NewQuad(tr.S, tr.P, tr.O, rdf.Term{}))
			}
		}
		sn := st.Snapshot()
		top := ID(len(sn.terms)) + 2
		gid, _ := sn.GraphID(g)
		for _, graph := range []ID{NoID, gid} {
			gr := sn.graphs[graph]
			if gr.subj != nil {
				built++
			}
			checkSubjectRanges(t, fmt.Sprintf("trial %d graph %d", trial, graph), gr, top)
		}
		later := st.Dict().Intern(rdf.NewIRI("http://ex/later"))
		if got := sn.Range(NoID, IDTriple{S: later}); len(got) != 0 {
			t.Fatalf("trial %d: an id interned after the publish has run %v", trial, got)
		}
		if got := sn.Range(ID(1<<30), IDTriple{S: 1}); got != nil {
			t.Fatalf("trial %d: a graph that does not exist has run %v", trial, got)
		}
	}
	if built < 40 {
		t.Fatalf("only %d of 80 dense graphs built a subject table", built)
	}
}
