package store

import (
	"math/rand"
	"slices"
	"testing"
)

// sortedGraph builds a graph from a duplicate-free triple set the way
// the comparison path does: each ordering by slices.SortFunc with its
// comparator, then the subject table.
func sortedGraph(ts []IDTriple) *graph {
	g := new(graph)
	for o := spo; o <= osp; o++ {
		g.idx[o] = slices.Clone(ts)
		slices.SortFunc(g.idx[o], cmpOrder[o])
	}
	g.indexSubjects()
	return g
}

// randomTriples returns n distinct triples whose subjects and objects
// are ids in [1, top] and whose predicates are ids in [1, min(top, 6)],
// as in a cube, where a few predicates repeat over many subjects; skip
// holds triples not to draw.
func randomTriples(rng *rand.Rand, n int, top ID, skip map[IDTriple]bool) []IDTriple {
	id := func(hi ID) ID { return 1 + ID(rng.Intn(int(hi))) }
	seen := map[IDTriple]bool{}
	out := make([]IDTriple, 0, n)
	for len(out) < n {
		t := IDTriple{id(top), id(min(top, 6)), id(top)}
		if !seen[t] && !skip[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// checkPublish publishes adds and dels against base and checks the
// result against sortedGraph of base − dels + adds: every ordering and
// the subject table equal, and base itself unchanged. counted says
// which path the adds must take.
func checkPublish(t *testing.T, name string, base []IDTriple, adds, dels []IDTriple, counted bool) {
	t.Helper()
	d := newDelta(new(graph))
	if len(base) > 0 {
		d = newDelta(sortedGraph(base))
	}
	for _, a := range adds {
		d.adds[a] = struct{}{}
	}
	for _, x := range dels {
		d.dels[x] = struct{}{}
	}
	if got := countArray(adds) != nil; got != counted {
		t.Fatalf("%s: %d adds, counting path %v, want %v", name, len(adds), got, counted)
	}
	before := d.base.idx
	for o := range before {
		before[o] = slices.Clone(before[o])
	}
	gone := map[IDTriple]bool{}
	for _, x := range dels {
		gone[x] = true
	}
	var want []IDTriple
	for _, b := range base {
		if !gone[b] {
			want = append(want, b)
		}
	}
	ref := sortedGraph(append(want, adds...))
	g := d.merged()
	for o := spo; o <= osp; o++ {
		if !slices.Equal(g.idx[o], ref.idx[o]) {
			t.Fatalf("%s: ordering %d differs from slices.SortFunc's", name, o)
		}
		if !slices.Equal(d.base.idx[o], before[o]) {
			t.Fatalf("%s: publishing wrote into the base's ordering %d", name, o)
		}
	}
	if g.lo != ref.lo || !slices.Equal(g.subj, ref.subj) {
		t.Fatalf("%s: subject table from %d with %d entries, want from %d with %d", name, g.lo, len(g.subj), ref.lo, len(ref.subj))
	}
	checkSubjectTable(t, 0, g)
}

// TestCountPassesAgainstSort checks that a delta ordered by counting
// passes publishes the same graph as comparison sorts: dense random
// loads onto an empty base, dense adds with deletes onto a non-empty
// one, both sides of the span bound, and scattered subjects, which
// must keep to the comparison path.
func TestCountPassesAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{3, 8, 50, 400, 3000} {
		for _, div := range []int{1, 2, 5, 40} {
			top := n/div - 1
			if top < 1 || top*top*min(top, 6) < 2*n {
				continue // too few distinct triples to draw n
			}
			checkPublish(t, "empty base", nil, randomTriples(rng, n, ID(top), nil), nil, true)
		}
	}
	for _, n := range []int{40, 200, 2000} {
		top := ID(n / 4)
		base := randomTriples(rng, n, top, nil)
		in := map[IDTriple]bool{}
		for _, b := range base {
			in[b] = true
		}
		adds := randomTriples(rng, n/2, top, in)
		dels := base[:n/3]
		checkPublish(t, "non-empty base", base, adds, dels, true)
		checkPublish(t, "deletes only", base, nil, dels, false)
	}
	// The span bound: ids up to top span top+1 values, so top+1 adds
	// are counted and top adds are not.
	for _, top := range []ID{2, 4, 30, 500} {
		for _, n := range []int{int(top) + 1, int(top)} {
			hi := IDTriple{top, 1, top}
			adds := append(randomTriples(rng, n-1, top, map[IDTriple]bool{hi: true}), hi)
			checkPublish(t, "span bound", nil, adds, nil, n == int(top)+1)
		}
	}
	// Subjects at ids 1 and 1<<20: the span is far above the adds.
	var sparse []IDTriple
	taken := map[IDTriple]bool{}
	for i := range 40 {
		tr := IDTriple{[2]ID{1, 1 << 20}[i%2], ID(2 + i%3), ID(5 + i)}
		sparse, taken[tr] = append(sparse, tr), true
	}
	checkPublish(t, "sparse subjects", nil, sparse, nil, false)
	checkPublish(t, "sparse subjects onto a base", randomTriples(rng, 100, 20, taken), sparse, nil, false)
}
