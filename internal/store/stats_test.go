package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rdf"
)

func statsFixture() *Store {
	st := New()
	// p: 4 triples, 3 subjects, 2 objects; q: 2 triples, 2 subjects,
	// 2 objects.
	triples := []rdf.Triple{
		rdf.NewTriple(iri("s1"), iri("p"), iri("o1")),
		rdf.NewTriple(iri("s1"), iri("p"), iri("o2")),
		rdf.NewTriple(iri("s2"), iri("p"), iri("o1")),
		rdf.NewTriple(iri("s3"), iri("p"), iri("o1")),
		rdf.NewTriple(iri("s1"), iri("q"), iri("o3")),
		rdf.NewTriple(iri("s4"), iri("q"), iri("o1")),
	}
	st.InsertTriples(rdf.Term{}, triples)
	return st
}

func TestGraphAndPredicateStats(t *testing.T) {
	st := statsFixture()
	gs := st.GraphStat(NoID)
	want := GraphStat{Triples: 6, DistinctSubjects: 4, DistinctPredicates: 2, DistinctObjects: 3}
	if gs != want {
		t.Errorf("GraphStat = %+v, want %+v", gs, want)
	}
	pid, _ := st.Dict().Lookup(iri("p"))
	ps, ok := st.Snapshot().PredicateStat(NoID, pid)
	if !ok || ps != (PredStat{Count: 4, DistinctS: 3, DistinctO: 2}) {
		t.Errorf("PredicateStat(p) = %+v ok=%v", ps, ok)
	}
	if _, ok := st.Snapshot().PredicateStat(NoID, 99999); ok {
		t.Error("unknown predicate should not be found")
	}
	if gs := st.GraphStat(12345); gs != (GraphStat{}) {
		t.Errorf("unknown graph stat = %+v, want zeros", gs)
	}
}

func TestStatsInvalidatedByMutation(t *testing.T) {
	st := statsFixture()
	before := st.GraphStat(NoID)
	st.Insert(rdf.Quad{S: iri("s9"), P: iri("p"), O: iri("o9")})
	after := st.GraphStat(NoID)
	if after.Triples != before.Triples+1 || after.DistinctSubjects != before.DistinctSubjects+1 {
		t.Errorf("stats stale after insert: before=%+v after=%+v", before, after)
	}
	st.Delete(rdf.Quad{S: iri("s9"), P: iri("p"), O: iri("o9")})
	if got := st.GraphStat(NoID); got != before {
		t.Errorf("stats stale after delete: %+v, want %+v", got, before)
	}
}

func TestStatsSnapshot(t *testing.T) {
	st := statsFixture()
	st.Insert(rdf.Quad{S: iri("s1"), P: iri("p"), O: iri("o1"), G: iri("g1")})
	snap := st.Stats()
	if snap.Triples != 7 || snap.Terms == 0 {
		t.Errorf("snapshot totals = %+v", snap)
	}
	if len(snap.Graphs) != 2 {
		t.Fatalf("got %d graphs, want 2", len(snap.Graphs))
	}
	def := snap.Graphs[0]
	if def.Graph != "" || len(def.Predicates) != 2 {
		t.Fatalf("default graph stats = %+v", def)
	}
	// Predicates sorted by descending count.
	if def.Predicates[0].Predicate != "http://x/p" || def.Predicates[0].Count != 4 {
		t.Errorf("top predicate = %+v", def.Predicates[0])
	}
	if snap.Graphs[1].Graph != "http://x/g1" || snap.Graphs[1].Triples != 1 {
		t.Errorf("named graph stats = %+v", snap.Graphs[1])
	}

	// A term interned after the pin is not the pinned snapshot's to count;
	// the next snapshot counts it.
	pinned := st.Snapshot()
	st.Dict().Intern(iri("fresh"))
	if got := pinned.Stats().Terms; got != snap.Terms {
		t.Errorf("pinned snapshot counts %d terms after a later Intern, want %d", got, snap.Terms)
	}
	st.Insert(rdf.Quad{S: iri("fresh"), P: iri("p"), O: iri("o1")})
	if got := st.Stats().Terms; got != snap.Terms+1 {
		t.Errorf("new snapshot counts %d terms, want %d", got, snap.Terms+1)
	}
}

func TestObjectCounts(t *testing.T) {
	st := statsFixture()
	got := st.Snapshot().ObjectCounts(rdf.Term{}, iri("p"))
	if len(got) != 2 {
		t.Fatalf("got %d object groups, want 2: %+v", len(got), got)
	}
	byObj := map[string]int{}
	for _, oc := range got {
		byObj[oc.Object.Value] = oc.Count
	}
	if byObj["http://x/o1"] != 3 || byObj["http://x/o2"] != 1 {
		t.Errorf("object counts = %v", byObj)
	}
	if st.Snapshot().ObjectCounts(rdf.Term{}, iri("nope")) != nil {
		t.Error("unknown predicate should yield nil")
	}
}

// TestStatsConcurrentMixedLoad hammers statistics reads while writers
// insert and queries scan — run under -race this is the regression test
// for the lazy cache's lock discipline. Correctness check: once writers
// stop, statistics must converge on the final store contents.
func TestStatsConcurrentMixedLoad(t *testing.T) {
	st := New()
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Statistics readers and pattern scanners run until writers finish.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				gs := st.GraphStat(NoID)
				if gs.Triples < 0 || gs.DistinctSubjects > gs.Triples {
					t.Errorf("inconsistent snapshot: %+v", gs)
					return
				}
				st.Stats()
				st.Count(NoID, IDTriple{})
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				st.Insert(rdf.Quad{
					S: iri(fmt.Sprintf("s%d-%d", w, i)),
					P: iri(fmt.Sprintf("p%d", i%7)),
					O: iri(fmt.Sprintf("o%d", i%13)),
				})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	gs := st.GraphStat(NoID)
	if gs.Triples != writers*perWriter {
		t.Errorf("final triples = %d, want %d", gs.Triples, writers*perWriter)
	}
	if gs.DistinctSubjects != writers*perWriter || gs.DistinctPredicates != 7 || gs.DistinctObjects != 13 {
		t.Errorf("final stats = %+v", gs)
	}
}

func TestInsertTriplesChunksAndCounts(t *testing.T) {
	st := New()
	ts := make([]rdf.Triple, 0, 10000)
	for i := 0; i < 10000; i++ {
		ts = append(ts, rdf.NewTriple(iri(fmt.Sprintf("s%d", i)), iri("p"), iri("o")))
	}
	ts = append(ts, ts[0]) // duplicate, must not count as added
	if added := st.InsertTriples(rdf.Term{}, ts); added != 10000 {
		t.Errorf("added = %d, want 10000", added)
	}
	if st.Len(rdf.Term{}) != 10000 {
		t.Errorf("len = %d", st.Len(rdf.Term{}))
	}
}
