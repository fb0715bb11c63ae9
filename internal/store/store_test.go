package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func TestDictInternLookup(t *testing.T) {
	d := NewDict()
	a := d.Intern(iri("a"))
	b := d.Intern(iri("b"))
	if a == b {
		t.Fatal("distinct terms must get distinct ids")
	}
	if a == NoID || b == NoID {
		t.Fatal("NoID must never be assigned")
	}
	if got := d.Intern(iri("a")); got != a {
		t.Fatal("re-interning must return the same id")
	}
	if got, ok := d.Lookup(iri("b")); !ok || got != b {
		t.Fatal("Lookup failed")
	}
	if _, ok := d.Lookup(iri("missing")); ok {
		t.Fatal("Lookup of unseen term must fail")
	}
	if d.Term(a) != iri("a") {
		t.Fatal("Term round trip failed")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}

	// Value twins share a hash and must still get an id each.
	twins := []rdf.Term{rdf.NewLiteral("1"), rdf.NewInteger(1), rdf.NewIRI("1"), rdf.NewBlank("1"), rdf.NewLangLiteral("1", "en")}
	for i, tw := range twins {
		if id := d.Intern(tw); id != ID(3+i) {
			t.Fatalf("twin %v interned as %d, want %d", tw, id, 3+i)
		}
	}
	for i, tw := range twins {
		if id, ok := d.Lookup(tw); !ok || id != ID(3+i) {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", tw, id, ok, 3+i)
		}
	}
	if _, ok := d.Lookup(rdf.NewTypedLiteral("1", "http://x/other")); ok {
		t.Fatal("a twin never interned must miss")
	}

	// A fresh dictionary pinned whenever it holds 2^k−1 or 2^k terms —
	// one short of half its index, and exactly half, the fullest it gets
	// before the next Intern regrows it: once many more terms have been
	// interned, each pinned table still resolves every term it holds to
	// its id and misses every later one.
	d = NewDict()
	term := func(i int) rdf.Term { return iri(fmt.Sprint("t", i)) }
	var pins []*Snapshot
	for i := 1; i <= 1<<11; i++ {
		d.Intern(term(i))
		if n := d.Len(); n&(n+1) == 0 || n&(n-1) == 0 {
			sn := d.pin(new(Snapshot))
			used := 0
			for j := range sn.index {
				if sn.index[j].Load() != 0 {
					used++
				}
			}
			if used != n || 2*n > len(sn.index) {
				t.Fatalf("at %d terms the index holds %d ids in %d slots, want %d in at least %d", n, used, len(sn.index), n, 2*n)
			}
			pins = append(pins, sn)
		}
	}
	for _, sn := range pins {
		n := len(sn.terms) - 1
		for i := 1; i <= d.Len(); i++ {
			id, ok := sn.Lookup(term(i))
			if i <= n && (!ok || id != ID(i)) || i > n && ok {
				t.Fatalf("pinned at %d terms: Lookup(t%d) = %d, %v", n, i, id, ok)
			}
		}
	}
}

func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	done := make(chan map[string]ID, 8)
	for w := 0; w < 8; w++ {
		go func() {
			seen := make(map[string]ID)
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("t%d", i%50)
				seen[k] = d.Intern(iri(k))
			}
			done <- seen
		}()
	}
	merged := make(map[string]ID)
	for w := 0; w < 8; w++ {
		for k, v := range <-done {
			if prev, ok := merged[k]; ok && prev != v {
				t.Fatalf("term %s interned with two ids", k)
			}
			merged[k] = v
		}
	}
	if d.Len() != 50 {
		t.Fatalf("Len = %d, want 50", d.Len())
	}
}

func TestStoreInsertDeleteLen(t *testing.T) {
	s := New()
	q := rdf.NewQuad(iri("s"), iri("p"), iri("o"), rdf.Term{})
	if !s.Insert(q) {
		t.Fatal("first insert must be new")
	}
	if s.Insert(q) {
		t.Fatal("duplicate insert must report false")
	}
	if s.Len(rdf.Term{}) != 1 {
		t.Fatalf("Len = %d", s.Len(rdf.Term{}))
	}
	if !s.Delete(q) {
		t.Fatal("delete of present quad must succeed")
	}
	if s.Delete(q) {
		t.Fatal("second delete must fail")
	}
	if s.Len(rdf.Term{}) != 0 {
		t.Fatal("store should be empty")
	}
	// Deleting never-interned terms must not intern them.
	before := s.Dict().Len()
	s.Delete(rdf.NewQuad(iri("nope"), iri("nope"), iri("nope"), rdf.Term{}))
	if s.Dict().Len() != before {
		t.Fatal("Delete must not intern new terms")
	}
}

func TestStoreNamedGraphs(t *testing.T) {
	s := New()
	g1, g2 := iri("g1"), iri("g2")
	s.Insert(rdf.NewQuad(iri("s"), iri("p"), iri("o1"), g1))
	s.Insert(rdf.NewQuad(iri("s"), iri("p"), iri("o2"), g2))
	s.Insert(rdf.NewQuad(iri("s"), iri("p"), iri("o3"), rdf.Term{}))

	if s.Len(g1) != 1 || s.Len(g2) != 1 || s.Len(rdf.Term{}) != 1 {
		t.Fatal("per-graph lengths wrong")
	}
	if s.TotalLen() != 3 {
		t.Fatalf("TotalLen = %d", s.TotalLen())
	}
	names := s.GraphNames()
	if len(names) != 2 {
		t.Fatalf("GraphNames = %v", names)
	}
	if got := s.MatchAll(g1, rdf.Term{}, rdf.Term{}, rdf.Term{}); len(got) != 1 || got[0].O != iri("o1") {
		t.Fatalf("graph-scoped match = %v", got)
	}
	if _, ok := s.Snapshot().GraphID(iri("unknown")); ok {
		t.Fatal("unknown graph must not resolve")
	}
	if gid, ok := s.Snapshot().GraphID(rdf.Term{}); !ok || gid != NoID {
		t.Fatal("zero term must resolve to default graph")
	}
	if got := len(s.Snapshot().NamedGraphIDs()); got != 2 {
		t.Fatalf("NamedGraphIDs = %d", got)
	}
}

func TestStoreMatchPatterns(t *testing.T) {
	s := New()
	var ts []rdf.Triple
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			ts = append(ts, rdf.NewTriple(iri(fmt.Sprintf("s%d", i)), iri(fmt.Sprintf("p%d", j)), rdf.NewInteger(int64(i*10+j))))
		}
	}
	if added := s.InsertTriples(rdf.Term{}, ts); added != 15 {
		t.Fatalf("added = %d", added)
	}

	check := func(sub, pred, obj rdf.Term, want int) {
		t.Helper()
		got := len(s.MatchAll(rdf.Term{}, sub, pred, obj))
		if got != want {
			t.Errorf("Match(%v,%v,%v) = %d, want %d", sub, pred, obj, got, want)
		}
	}
	check(rdf.Term{}, rdf.Term{}, rdf.Term{}, 15)
	check(iri("s0"), rdf.Term{}, rdf.Term{}, 3)
	check(iri("s0"), iri("p1"), rdf.Term{}, 1)
	check(iri("s0"), iri("p1"), rdf.NewInteger(1), 1)
	check(iri("s0"), iri("p1"), rdf.NewInteger(99), 0)
	check(rdf.Term{}, iri("p2"), rdf.Term{}, 5)
	check(rdf.Term{}, iri("p2"), rdf.NewInteger(12), 1)
	check(rdf.Term{}, rdf.Term{}, rdf.NewInteger(42), 1)
	check(iri("s2"), rdf.Term{}, rdf.NewInteger(21), 1)
	check(iri("nothere"), rdf.Term{}, rdf.Term{}, 0)
}

func TestStoreMatchEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Insert(rdf.NewQuad(iri("s"), iri("p"), rdf.NewInteger(int64(i)), rdf.Term{}))
	}
	n := 0
	s.Match(rdf.Term{}, iri("s"), rdf.Term{}, rdf.Term{}, func(rdf.Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestStoreCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Insert(rdf.NewQuad(iri(fmt.Sprintf("s%d", i%2)), iri("p"), rdf.NewInteger(int64(i)), rdf.Term{}))
	}
	d := s.Dict()
	pid, _ := d.Lookup(iri("p"))
	if got := s.Count(NoID, IDTriple{P: pid}); got != 7 {
		t.Fatalf("Count(p) = %d", got)
	}
	sid, _ := d.Lookup(iri("s0"))
	if got := s.Count(NoID, IDTriple{S: sid}); got != 4 {
		t.Fatalf("Count(s0) = %d", got)
	}
}

func TestStoreMutateAfterQueryReindexes(t *testing.T) {
	s := New()
	s.Insert(rdf.NewQuad(iri("s"), iri("p"), iri("o1"), rdf.Term{}))
	if got := len(s.MatchAll(rdf.Term{}, iri("s"), rdf.Term{}, rdf.Term{})); got != 1 {
		t.Fatal("initial query wrong")
	}
	s.Insert(rdf.NewQuad(iri("s"), iri("p"), iri("o2"), rdf.Term{}))
	if got := len(s.MatchAll(rdf.Term{}, iri("s"), rdf.Term{}, rdf.Term{})); got != 2 {
		t.Fatal("index not refreshed after insert")
	}
	s.Delete(rdf.NewQuad(iri("s"), iri("p"), iri("o1"), rdf.Term{}))
	got := s.MatchAll(rdf.Term{}, iri("s"), rdf.Term{}, rdf.Term{})
	if len(got) != 1 || got[0].O != iri("o2") {
		t.Fatalf("index not refreshed after delete: %v", got)
	}
}

// TestStoreMatchAgainstNaiveOracle cross-checks every pattern shape
// against a brute-force scan over randomly generated triples.
func TestStoreMatchAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	var all []rdf.Triple
	seen := make(map[rdf.Triple]bool)
	for i := 0; i < 400; i++ {
		tr := rdf.NewTriple(
			iri(fmt.Sprintf("s%d", rng.Intn(12))),
			iri(fmt.Sprintf("p%d", rng.Intn(6))),
			rdf.NewInteger(int64(rng.Intn(20))),
		)
		if !seen[tr] {
			seen[tr] = true
			all = append(all, tr)
		}
	}
	s.InsertTriples(rdf.Term{}, all)

	naive := func(sub, pred, obj rdf.Term) int {
		n := 0
		for _, tr := range all {
			if (!sub.IsZero() && tr.S != sub) || (!pred.IsZero() && tr.P != pred) || (!obj.IsZero() && tr.O != obj) {
				continue
			}
			n++
		}
		return n
	}

	subs := []rdf.Term{{}, iri("s0"), iri("s5"), iri("s11"), iri("sX")}
	preds := []rdf.Term{{}, iri("p0"), iri("p3"), iri("pX")}
	objs := []rdf.Term{{}, rdf.NewInteger(0), rdf.NewInteger(13), rdf.NewInteger(99)}
	for _, sub := range subs {
		for _, pred := range preds {
			for _, obj := range objs {
				want := naive(sub, pred, obj)
				got := len(s.MatchAll(rdf.Term{}, sub, pred, obj))
				if got != want {
					t.Errorf("pattern (%v %v %v): got %d, want %d", sub, pred, obj, got, want)
				}
			}
		}
	}
}

func TestStoreInsertIdempotentProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := New()
		q := rdf.NewQuad(
			iri(fmt.Sprintf("s%d", a%4)),
			iri(fmt.Sprintf("p%d", b%4)),
			rdf.NewInteger(int64(c%4)),
			rdf.Term{},
		)
		first := s.Insert(q)
		second := s.Insert(q)
		return first && !second && s.Len(rdf.Term{}) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStoreConcurrentReadWrite hammers the store with concurrent
// inserts, deletes, and pattern scans; run with -race this locks in the
// lock-free read path around the lazy publish.
func TestStoreConcurrentReadWrite(t *testing.T) {
	s := New()
	p := iri("p")
	done := make(chan struct{}, 6)
	for w := 0; w < 3; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 300; i++ {
				q := rdf.NewQuad(iri(fmt.Sprintf("s%d", i%20)), p, rdf.NewInteger(int64(w*1000+i)), rdf.Term{})
				s.Insert(q)
				if i%7 == 0 {
					s.Delete(q)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s.MatchAll(rdf.Term{}, rdf.Term{}, p, rdf.Term{})
				s.Count(NoID, IDTriple{})
				s.TotalLen()
			}
		}()
	}
	for i := 0; i < 6; i++ {
		<-done
	}
	// Sanity: the store is still internally consistent.
	n := 0
	s.Match(rdf.Term{}, rdf.Term{}, p, rdf.Term{}, func(rdf.Triple) bool { n++; return true })
	if n != s.Len(rdf.Term{}) {
		t.Fatalf("index count %d != set count %d", n, s.Len(rdf.Term{}))
	}
}
