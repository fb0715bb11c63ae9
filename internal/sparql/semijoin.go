package sparql

import (
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Semi-join sets (DESIGN §12). A positive EXISTS { P } that shares one
// variable ?k with the rest of its query, other EXISTS blocks aside, and
// whose triple patterns certainly bind ?k, is true under a row exactly
// when the row's ?k is among the values ?k takes in P's solutions — or,
// with ?k unbound, when P has a solution at all. The planner replaces
// such an EXISTS in a FILTER by an exprSemiJoin, and a run evaluates P
// once per graph into the distinct ids of ?k, the set, instead of once
// per row. The planner then uses the set three ways (plan.go): a BGP may
// start from its members (entry), the BGP level that binds ?k checks
// each candidate's id against it (probe.extendAt), and an aggregating
// sub-select grouped by ?k gets a copy of the filter, which drops whole
// groups before they are folded. The FILTER itself stays where the
// planner puts it: what the set feeds the BGP is pruning, the FILTER is
// the semantics.

// semiJoin is one EXISTS the planner turned into a set: the shared
// variable, P as planned, and P's estimated rows — an upper bound of the
// set's size, which entry prices the set at and the SEMIJOIN span
// reports as its estimate.
type semiJoin struct {
	key     string
	pattern GroupGraphPattern
	est     float64
}

// exprSemiJoin is the planner's form of a semi-join EXISTS in a FILTER
// expression: a membership test of the row's ?k in the run's set.
type exprSemiJoin struct{ sj *semiJoin }

func (exprSemiJoin) isExpression() {}

// semiJoinElement is the planner's use of a set in a group, placed right
// before the triple patterns of a BGP. With entry set the BGP starts from
// the set's members, bound to ?k; otherwise the next pattern — the first
// of the BGP to bind ?k — checks every candidate's id at ?k against the
// set, so a rejected candidate never becomes a row.
type semiJoinElement struct {
	sj    *semiJoin
	entry bool
}

func (semiJoinElement) isPatternElement() {}

// semiSet is the evaluated set of one semiJoin in one graph: its members'
// ids, ascending. It is filled before any kernel reads it, and
// read-only from then on.
type semiSet struct {
	ids   map[store.ID]struct{}
	order []store.ID
	ready bool
}

func (s *semiSet) has(id store.ID) bool {
	_, ok := s.ids[id]
	return ok
}

// semiSets holds the sets of one query: a run, its kernels and its
// sub-selects share it, so a filter and its copy inside a sub-select
// evaluate P once. What the sets retain is charged to acct, the query's
// account, whichever run first needs a set.
type semiSets struct {
	acct *obs.QueryAcct
	m    map[semiKey]*semiSet
}

type semiKey struct {
	sj  *semiJoin
	gid store.ID
}

// semiEntryBytes approximates what one member holds: its id in the order
// slice and its share of the map's buckets.
const semiEntryBytes = 24

// semiSet returns the set of sj in the graph gid, creating it empty (not
// yet ready) on first use.
func (r *run) semiSet(sj *semiJoin, gid store.ID) *semiSet {
	k := semiKey{sj, gid}
	s := r.semi.m[k]
	if s == nil {
		if r.semi.m == nil {
			r.semi.m = make(map[semiKey]*semiSet)
		}
		s = &semiSet{}
		r.semi.m[k] = s
	}
	return s
}

// fillSemiSet evaluates sj's pattern in gctx into s, unless it is
// already filled: P streams through the pipeline from the empty
// solution, in a run of its own whose rows hold P's variables only,
// charged to the query's account and cancellable like every stage, and
// traced as a SEMIJOIN ?k span under parent whose act= is the set's
// size. Each distinct id of ?k is charged once, and the memory budget
// checked after every chunk.
func (r *run) fillSemiSet(s *semiSet, sj *semiJoin, gctx graphCtx, parent *obs.Span) error {
	if s.ready {
		return nil
	}
	sp := parent.StartChild("SEMIJOIN", "?"+sj.key, 1)
	er := &run{e: r.e, vt: newVarTable(), ctx: gctx, snap: r.snap, qctx: r.qctx, done: r.done,
		planned: true, acct: r.semi.acct, semi: r.semi}
	collectGroupVars(sj.pattern, er.vt)
	it, _ := er.streamGroup(sj.pattern, &sliceSource{rows: er.seed(), chunk: r.e.chunkSize}, gctx, sp, nil)
	defer it.close()
	slot := er.vt.index[sj.key]
	s.ids = make(map[store.ID]struct{})
	for {
		chunk, err := it.next()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		var grew int64
		for _, row := range chunk {
			id, ok := r.snap.Lookup(row[slot])
			if _, dup := s.ids[id]; !ok || dup {
				continue
			}
			s.ids[id] = struct{}{}
			s.order = append(s.order, id)
			grew += semiEntryBytes
		}
		if er.acct != nil && grew > 0 {
			er.acct.Materialize(0, grew)
			if er.overMem() {
				return er.memErr()
			}
		}
	}
	slices.Sort(s.order)
	s.ready = true
	sp.SetEst(int64(math.Round(sj.est)))
	sp.Finish(len(s.order))
	return nil
}

// fillSemiSets fills the sets of sjs in gctx.
func (r *run) fillSemiSets(sjs []*semiJoin, gctx graphCtx, parent *obs.Span) error {
	for _, sj := range sjs {
		if err := r.fillSemiSet(r.semiSet(sj, gctx.gid), sj, gctx, parent); err != nil {
			return err
		}
	}
	return nil
}

// member is the truth of an exprSemiJoin under row: the row's ?k is in
// the set or, unbound, the set is not empty. The FILTER stage has filled
// the set before it evaluates.
func (r *run) member(x exprSemiJoin, row solution) (rdf.Term, error) {
	s := r.semiSet(x.sj, r.ctx.gid)
	if err := r.fillSemiSet(s, x.sj, r.ctx, nil); err != nil {
		return rdf.Term{}, err
	}
	t := row[r.vt.index[x.sj.key]]
	if t.IsZero() {
		return rdf.NewBoolean(len(s.order) > 0), nil
	}
	id, ok := r.snap.Lookup(t)
	return rdf.NewBoolean(ok && s.has(id)), nil
}

// semiJoinsInto appends the sets an expression tests to out.
func semiJoinsInto(e Expression, out []*semiJoin) []*semiJoin {
	switch x := e.(type) {
	case exprSemiJoin:
		out = append(out, x.sj)
	case ExprBinary:
		out = semiJoinsInto(x.R, semiJoinsInto(x.L, out))
	case ExprNot:
		out = semiJoinsInto(x.X, out)
	case ExprNeg:
		out = semiJoinsInto(x.X, out)
	case ExprCall:
		for _, a := range x.Args {
			out = semiJoinsInto(a, out)
		}
	case ExprIn:
		out = semiJoinsInto(x.X, out)
		for _, a := range x.List {
			out = semiJoinsInto(a, out)
		}
	}
	return out
}

// entryIter is the entry of a BGP through a set (semiJoinElement): an
// input row that leaves ?k unbound is extended by each member in id
// order, one that binds ?k is kept when it is a member — at most one
// chunk of rows per pull, however large the set. The set is filled on
// the first pull, its span under sp. Every output row is a fresh clone.
type entryIter struct {
	r    *run
	src  chunkIter
	sj   *semiJoin
	s    *semiSet
	slot int
	gctx graphCtx
	sp   *obs.Span

	rows []solution // what is left of the input chunk
	at   int        // the next member to extend rows[0] by
}

func (e *entryIter) next() ([]solution, error) {
	if err := e.r.fillSemiSet(e.s, e.sj, e.gctx, e.sp); err != nil {
		return nil, err
	}
	var out []solution
	for max := e.r.e.chunkSize; len(out) < max; {
		if len(e.rows) == 0 {
			if len(out) > 0 {
				break
			}
			chunk, err := e.src.next()
			if err != nil || chunk == nil {
				return nil, err
			}
			e.rows, e.at = chunk, 0
		}
		row := e.rows[0]
		if t := row[e.slot]; !t.IsZero() {
			if id, ok := e.r.snap.Lookup(t); ok && e.s.has(id) {
				out = append(out, row.clone())
			}
			e.rows = e.rows[1:]
			continue
		}
		for ; e.at < len(e.s.order) && len(out) < max; e.at++ {
			nrow := row.clone()
			nrow[e.slot] = e.r.snap.Term(e.s.order[e.at])
			out = append(out, nrow)
		}
		if e.at == len(e.s.order) {
			e.rows, e.at = e.rows[1:], 0
		}
	}
	return out, nil
}

func (e *entryIter) close() { e.src.close() }
