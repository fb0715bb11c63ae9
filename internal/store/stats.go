package store

import (
	"sort"
	"unsafe"

	"repro/internal/rdf"
)

// Store statistics: per-graph and per-predicate cardinalities backing
// the /stats endpoint, the estimated-vs-actual EXPLAIN output, and the
// cost-based query planner (sparql/plan.go), whose System R-style
// cardinality model divides a pattern's base count by these distinct
// cardinalities to order joins and pick QL translations.
//
// Statistics belong to a graph's snapshot and are computed by its first
// reader (sync.Once): three linear walks over the sorted orderings. A
// write costs them nothing — the graph published after it simply starts
// without any — and graphs a publish did not touch keep theirs.

// PredStat summarizes one predicate within one graph.
type PredStat struct {
	Count     int // triples with this predicate
	DistinctS int // distinct subjects among them
	DistinctO int // distinct objects among them
}

// GraphStat summarizes one graph.
type GraphStat struct {
	Triples            int
	DistinctSubjects   int
	DistinctPredicates int
	DistinctObjects    int
}

// gstats is one graph's statistics. Immutable once computed.
type gstats struct {
	graph GraphStat
	preds map[ID]PredStat
}

// statistics returns g's statistics, computing them on first use.
func (g *graph) statistics() *gstats {
	g.statsOnce.Do(func() { g.stats = g.computeStats() })
	return g.stats
}

func (g *graph) computeStats() *gstats {
	st := &gstats{graph: GraphStat{Triples: len(g.idx[spo])}, preds: make(map[ID]PredStat)}
	if st.graph.Triples == 0 {
		return st
	}
	// SPO walk: distinct subjects, and distinct subjects per predicate
	// via (S, P) group boundaries, counted in a slice indexed by
	// predicate id (POS ends on the largest one) so that the walk does
	// no map operation per group.
	spoIdx, posIdx, ospIdx := g.idx[spo], g.idx[pos], g.idx[osp]
	distinctS := make([]int, posIdx[len(posIdx)-1].P+1)
	for i, t := range spoIdx {
		if i == 0 || t.S != spoIdx[i-1].S {
			st.graph.DistinctSubjects++
		}
		if i == 0 || t.S != spoIdx[i-1].S || t.P != spoIdx[i-1].P {
			distinctS[t.P]++
		}
	}
	// POS walk: one run per predicate, its length and its (P, O) group
	// boundaries; each map entry is written once, at the end of its run.
	for i := 0; i < len(posIdx); {
		p, run := posIdx[i].P, PredStat{}
		for ; i < len(posIdx) && posIdx[i].P == p; i++ {
			if run.Count == 0 || posIdx[i].O != posIdx[i-1].O {
				run.DistinctO++
			}
			run.Count++
		}
		run.DistinctS = distinctS[p]
		st.preds[p] = run
	}
	st.graph.DistinctPredicates = len(st.preds)
	// OSP walk: distinct objects.
	for i, t := range ospIdx {
		if i == 0 || t.O != ospIdx[i-1].O {
			st.graph.DistinctObjects++
		}
	}
	return st
}

// GraphStat returns the cardinality summary of graph g (NoID for the
// default graph); zeros for an unknown graph.
func (sn *Snapshot) GraphStat(g ID) GraphStat {
	gr := sn.graphs[g]
	if gr == nil {
		return GraphStat{}
	}
	return gr.statistics().graph
}

// PredicateStat returns the per-predicate cardinalities of p in graph
// g, reporting whether the predicate occurs there. The query planner
// calls this per join operand; after the snapshot's first statistics
// reader it is two map lookups.
func (sn *Snapshot) PredicateStat(g ID, p ID) (PredStat, bool) {
	gr := sn.graphs[g]
	if gr == nil {
		return PredStat{}, false
	}
	ps, ok := gr.statistics().preds[p]
	return ps, ok
}

// PredicateStats is the term-level view of one predicate's statistics.
type PredicateStats struct {
	Predicate        string `json:"predicate"`
	Count            int    `json:"count"`
	DistinctSubjects int    `json:"distinctSubjects"`
	DistinctObjects  int    `json:"distinctObjects"`
}

// GraphStats is the term-level statistics view of one graph.
type GraphStats struct {
	Graph              string           `json:"graph,omitempty"` // empty = default graph
	Triples            int              `json:"triples"`
	DistinctSubjects   int              `json:"distinctSubjects"`
	DistinctPredicates int              `json:"distinctPredicates"`
	DistinctObjects    int              `json:"distinctObjects"`
	Predicates         []PredicateStats `json:"predicates,omitempty"`
}

// Stats is the full store statistics snapshot served on /stats.
type Stats struct {
	Triples int `json:"triples"`
	Terms   int `json:"terms"`
	// IndexBytes is the exact size of the triple indexes: the capacity
	// of every ordering of every graph at twelve bytes a triple. A
	// snapshot has no pending delta, and the term dictionary is not
	// included.
	IndexBytes int          `json:"indexBytes"`
	Graphs     []GraphStats `json:"graphs"`
}

// Stats returns the term-level statistics for every graph, predicates
// sorted by descending count (ties by IRI) for stable JSON.
func (sn *Snapshot) Stats() Stats {
	out := Stats{Terms: len(sn.terms) - 1}
	for _, gid := range append([]ID{NoID}, sn.NamedGraphIDs()...) {
		gr := sn.graphs[gid]
		for _, idx := range gr.idx {
			out.IndexBytes += cap(idx) * int(unsafe.Sizeof(IDTriple{}))
		}
		st := gr.statistics()
		if gid != NoID && st.graph.Triples == 0 {
			continue
		}
		gs := GraphStats{
			Triples:            st.graph.Triples,
			DistinctSubjects:   st.graph.DistinctSubjects,
			DistinctPredicates: st.graph.DistinctPredicates,
			DistinctObjects:    st.graph.DistinctObjects,
		}
		if gid != NoID {
			gs.Graph = sn.Term(gid).Value
		}
		for pid, ps := range st.preds {
			gs.Predicates = append(gs.Predicates, PredicateStats{
				Predicate:        sn.Term(pid).Value,
				Count:            ps.Count,
				DistinctSubjects: ps.DistinctS,
				DistinctObjects:  ps.DistinctO,
			})
		}
		sort.Slice(gs.Predicates, func(i, j int) bool {
			a, b := gs.Predicates[i], gs.Predicates[j]
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return a.Predicate < b.Predicate
		})
		out.Triples += gs.Triples
		out.Graphs = append(out.Graphs, gs)
	}
	return out
}

// ObjectCount pairs an object term with the number of triples pointing
// at it through some fixed predicate.
type ObjectCount struct {
	Object rdf.Term
	Count  int
}

// ObjectCounts groups the triples of graph g with predicate pred by
// object and counts each group, exploiting the contiguous (P, O) runs
// of the POS ordering. With pred = qb4o:memberOf this yields the
// per-level member counts of the enriched cube. Results are sorted by
// object term.
func (sn *Snapshot) ObjectCounts(g rdf.Term, pred rdf.Term) []ObjectCount {
	if pred.IsZero() {
		return nil
	}
	var out []ObjectCount
	var cur ID
	// With only P bound the range is a run of the POS ordering, so
	// triples arrive grouped by object.
	for _, t := range sn.termRange(g, rdf.Term{}, pred, rdf.Term{}) {
		if len(out) == 0 || t.O != cur {
			out = append(out, ObjectCount{Object: sn.Term(t.O)})
			cur = t.O
		}
		out[len(out)-1].Count++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object.Compare(out[j].Object) < 0 })
	return out
}
