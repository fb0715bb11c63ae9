package sparql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// This file implements the chunked pull pipeline — the engine's one
// evaluator. Operators consume and produce bounded chunks of solutions
// instead of whole intermediate tables, so one query's in-flight bytes
// are proportional to pipeline depth × chunk size rather than to the
// largest intermediate result.
//
// Design rules (see DESIGN.md §16):
//
//   - The pipeline is fully synchronous: every stage's next() and
//     every kernel runs on the coordinating goroutine, the query's own,
//     so there are no goroutines to leak and SLICE's early exit is just
//     "stop pulling" (DESIGN §7 "One goroutine per query").
//   - Chunk boundaries carry the cross-cutting concerns: boundIter
//     checks cancellation, charges the chunk to the query account,
//     releases the previous chunk, and — when the query is traced —
//     accumulates the stage's span (trace.go). Kernels run on an
//     account-free run copy (run.kernel) so nothing double-charges.
//   - A chunk has one owner. streamGroup tracks whether the chunks a
//     stage receives are exclusively its own — built by the stage before
//     it and read by nobody else — and an owning kernel extends rows and
//     compacts the chunk in place instead of copying (outFor, probe.go);
//     at the head of a group and after the stages that replay their
//     input nothing is owned and kernels copy, as they always did.
//     The last owner hands the chunk back: the GROUP BY fold and the
//     projection put the owned chunks they have consumed on the
//     pipeline's one free list (rowList, one chunk at most) and the
//     BGP's row scan builds the next chunk in those rows and that header.
//     Nested pipelines (groupRows, UNION branches, GRAPH ?g) have no
//     list — their callers retain what they return — and the batch
//     kernels keep solution.clone.
//   - Pipeline breakers: an ungrouped ORDER BY drains its whole input
//     (drainStream) — sorting needs every row — and re-streams the
//     sorted rows. GROUP BY does not: it consumes the WHERE stream
//     chunk by chunk and folds every row into its group's accumulators
//     (foldGroups, eval.go), so it holds one entry per group, never the
//     input, and re-streams the group rows into the DISTINCT/SLICE
//     stages. UNION and GRAPH ?var buffer their *input* (usually small)
//     and replay it branch-major / graph-major. MINUS evaluates its
//     right side once; SUBSELECT evaluates the subquery once. DISTINCT
//     streams its emission but retains — and charges — the seen-key
//     set.
//   - BGP joins are incremental: bgpIter holds one buffer per join
//     level and advances the deepest level with pending work, so a
//     1-row → 80k-match fan-out is emitted chunk by chunk from the
//     row's run of matches (rowScan) instead of materialized at once.
//     A level is one pattern, or a star: consecutive patterns on one
//     subject, each read inside the subject's SPO run, in the order the
//     level-by-level join emits (probe.go, DESIGN §16). The subject is
//     the one an earlier level bound, looked up once per row ("The star
//     walk"), or the one each triple of the star's own root pattern
//     holds, its run found by a forward search ("The rooted star").
//   - Every SELECT and ASK result leaves through one delivery loop
//     (run.stream); Results-returning entry points are collectors over
//     it. CONSTRUCT and DESCRIBE consume the WHERE stream chunk by chunk
//     into their dedup graph (Engine.graph). Callers that need a whole
//     table (update WHERE clauses, MINUS right sides, per-row OPTIONAL
//     and EXISTS) drain the same pipeline through groupRows; there is no
//     second evaluator.

// chunkIter is the pull side of the pipeline. next returns the next
// non-empty chunk, or (nil, nil) once exhausted; close releases any
// held resources (buffered charges, upstream iterators) and must be
// safe to call after an error, mid-stream abandonment, or a previous
// close.
type chunkIter interface {
	next() ([]solution, error)
	close()
}

// kernel returns the run per-chunk operator kernels evaluate on: it
// shares the cancellation plumbing and var table but carries no account
// and no trace — the pipeline charges and traces at chunk boundaries
// (boundIter) instead, so kernels must not double-charge. ctx is the
// enclosing graph context, which EXISTS filters read from the run
// (expr.go). Nothing mutates a run during evaluation, so a run that is
// already a kernel for ctx (the per-row OPTIONAL and EXISTS nesting) is
// reused as is.
func (r *run) kernel(ctx graphCtx) *run {
	if r.acct == nil && r.trace == nil && r.ctx == ctx {
		return r
	}
	kr := *r
	kr.acct = nil
	kr.ownAcct = false
	kr.trace = nil
	kr.ctx = ctx
	return &kr
}

// seed is the single empty solution every top-level group starts from.
func (r *run) seed() []solution {
	return []solution{make(solution, len(r.vt.names))}
}

// rowList is the free list of one top-level pipeline (DESIGN §16 "Chunk
// ownership and return"): the rows, and the largest header, of owned
// chunks their last consumer — the GROUP BY fold, the projection — is
// done with, for the BGP of the same pipeline to build its next chunk
// in. It holds at most max rows (one chunk), only the coordinating
// goroutine touches it, and it dies with its query. A nil *rowList is
// the pipeline without one — every nested pipeline: put drops, clone
// allocates.
type rowList struct {
	rows []solution
	hdr  []solution
	max  int
}

// poisonReturned makes putRow overwrite a returned row with poisonTerm,
// so that whoever still reads the row computes a wrong result at every
// chunk size. Only tests set it.
var (
	poisonReturned bool
	poisonTerm     = rdf.NewIRI("urn:returned-row")
)

// putRow returns one row nobody references any more.
func (l *rowList) putRow(row solution) {
	if l == nil || len(l.rows) >= l.max {
		return
	}
	if poisonReturned {
		for i := range row {
			row[i] = poisonTerm
		}
	}
	l.rows = append(l.rows, row)
}

// put returns an owned chunk: its rows, and its header — cleared to its
// capacity, which an owned chunk shares with nobody — when that is larger
// than the one held.
func (l *rowList) put(chunk []solution) {
	if l == nil {
		return
	}
	for _, row := range chunk {
		l.putRow(row)
	}
	if chunk = chunk[:cap(chunk)]; len(chunk) > cap(l.hdr) {
		clear(chunk)
		l.hdr = chunk[:0]
	}
}

// clone copies row into a returned row when one is held — a clone writes
// every slot, so nothing needs zeroing — and into a fresh one otherwise.
func (l *rowList) clone(row solution) solution {
	if l == nil || len(l.rows) == 0 {
		return row.clone()
	}
	n := len(l.rows) - 1
	c := l.rows[n]
	l.rows = l.rows[:n]
	copy(c, row)
	return c
}

// header hands out the empty header held, if any, for a chunk to grow in.
func (l *rowList) header() []solution {
	if l == nil {
		return nil
	}
	h := l.hdr
	l.hdr = nil
	return h
}

// boundIter enforces the chunk-boundary contract around one stage: on
// every pull it (1) checks cancellation, (2) releases the previous
// chunk's charge — the consumer is done with it, (3) pulls, (4) charges
// the new chunk, (5) checks the memory budget. The last chunk's charge
// is dropped at close (or by QueryAcct.Finish on abort), so in-flight
// gauges track pipeline occupancy: stages × chunk bytes. Under tracing
// the stage's span (tr) is told what was charged.
type boundIter struct {
	r    *run
	src  chunkIter
	held int64
	tr   *stageTrace
}

func (b *boundIter) next() ([]solution, error) {
	if b.r.cancelled() {
		return nil, b.r.cancelErr()
	}
	if b.held > 0 {
		b.r.acct.Release(b.held)
		b.held = 0
	}
	chunk, err := b.src.next()
	if err != nil || chunk == nil {
		return nil, err
	}
	if b.r.acct != nil && len(chunk) > 0 {
		b.held = int64(len(chunk)) * approxRowBytes(chunk[0])
		b.r.acct.Materialize(len(chunk), b.held)
		b.tr.charged(b.held)
		if b.r.overMem() {
			return nil, b.r.memErr()
		}
	}
	return chunk, nil
}

func (b *boundIter) close() {
	if b.held > 0 {
		b.r.acct.Release(b.held)
		b.held = 0
	}
	b.src.close()
}

// bound wraps one stage in its chunk boundary and, when tr is non-nil,
// in the exit side of its span.
func (r *run) bound(tr *stageTrace, src chunkIter) chunkIter {
	return &boundIter{r: r, src: tr.out(src), tr: tr}
}

// sliceSource re-streams a materialized slice in chunks.
type sliceSource struct {
	rows  []solution
	chunk int
}

func (s *sliceSource) next() ([]solution, error) {
	if len(s.rows) == 0 {
		return nil, nil
	}
	n := s.chunk
	if n > len(s.rows) {
		n = len(s.rows)
	}
	out := s.rows[:n:n]
	s.rows = s.rows[n:]
	return out, nil
}

func (s *sliceSource) close() { s.rows = nil }

// mapChunk applies a kernel to every chunk, skipping chunks the kernel
// empties (a FILTER dropping all rows must not end the stream).
type mapChunk struct {
	src chunkIter
	fn  func([]solution) ([]solution, error)
}

func (m *mapChunk) next() ([]solution, error) {
	for {
		chunk, err := m.src.next()
		if err != nil || chunk == nil {
			return nil, err
		}
		out, err := m.fn(chunk)
		if err != nil {
			return nil, err
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (m *mapChunk) close() { m.src.close() }

// emptyIter is the GRAPH <missing> stage: no output, but close still
// reaches upstream.
type emptyIter struct{ src chunkIter }

func (e *emptyIter) next() ([]solution, error) { return nil, nil }
func (e *emptyIter) close()                    { e.src.close() }

// drainStream materializes a stream — the pipeline-breaker entry. The
// accumulated rows are charged to the account: they are genuinely
// retained. Chunks are gathered and concatenated once (a single-chunk
// result — every per-row nesting — is handed over as is), so a large
// drain copies each row header once instead of through append's
// regrowth.
func drainStream(r *run, src chunkIter) ([]solution, error) {
	defer src.close()
	chunks := make([][]solution, 0, 8)
	for {
		chunk, err := src.next()
		if err != nil {
			return nil, err
		}
		if chunk == nil {
			return concatSolutions(chunks), nil
		}
		chunks = append(chunks, chunk)
		if accountNew(r, chunk); r.overMem() {
			return nil, r.memErr()
		}
	}
}

// concatSolutions flattens drained chunks in order. A lone non-empty
// chunk is returned as is, not copied.
func concatSolutions(outs [][]solution) []solution {
	total := 0
	var last []solution
	for _, o := range outs {
		if len(o) > 0 {
			total += len(o)
			last = o
		}
	}
	if total == len(last) {
		return last
	}
	merged := make([]solution, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged
}

// groupRows evaluates a group graph pattern over materialized input
// rows through the pipeline and returns the whole result: the
// slice-in/slice-out entry for update WHERE clauses, MINUS right sides,
// and the per-row OPTIONAL and EXISTS nesting. With first set it stops
// at the first non-empty chunk, which is all EXISTS needs. Stage spans
// attach under parent (nil = untraced).
func (r *run) groupRows(g GroupGraphPattern, input []solution, gctx graphCtx, parent *obs.Span, first bool) ([]solution, error) {
	it, _ := r.streamGroup(g, &sliceSource{rows: input, chunk: r.e.chunkSize}, gctx, parent, nil)
	if !first {
		return drainStream(r, it)
	}
	defer it.close()
	return it.next()
}

// streamGroup builds the stage chain for one group graph pattern.
// Consecutive triple patterns fold into one bgpIter, joined in the
// order given (the planner's, or the written order with the planner
// off); every other element becomes one stage wrapped in a chunk
// boundary. When parent is non-nil every stage opens its span under it,
// in element order. owned tracks, along the chain, whether the chunks
// the next stage receives are exclusively its own (DESIGN §16 "Chunk
// ownership"): nobody upstream reads their rows or header again, so the
// stage's kernel may extend and compact them in place; the bit of the
// last stage is returned with the chain, for a consumer that is done with
// an owned chunk to put it on free — the list the group's own BGPs build
// their chunks from, nil for every nested pipeline. A group the planner
// did not place runs its FILTERs after its other elements: a FILTER
// applies to its whole group (SPARQL 1.1 §18.2.2), wherever it is
// written.
func (r *run) streamGroup(g GroupGraphPattern, src chunkIter, gctx graphCtx, parent *obs.Span, free *rowList) (chunkIter, bool) {
	kr := r.kernel(gctx)
	cur, owned := src, false // the head's input is retained by whoever replays it
	var bgp []TriplePattern
	var checks []semiCheck // the semi-join checks of bgp's patterns
	flush := func() {
		if len(bgp) == 0 {
			return
		}
		it := &bgpIter{r: r, kr: kr, gctx: gctx, owned: owned, free: free, levels: make([]bgpLevel, 0, len(bgp))}
		// A run of patterns ?s <p> o whose ?s an earlier level binds is
		// one star level (DESIGN §16 "The star walk"); a subject only the
		// input binds never is: an OPTIONAL upstream may leave it unbound.
		// Otherwise a pattern that binds ?s roots the run that follows it
		// ("The rooted star").
		for i := 0; i < len(bgp); {
			j, s, rooted := i+1, bgp[i].S.Var, false
			if !starMember(bgp[i], s) || !bindsVar(bgp[:i], s) {
				s, rooted = rootVar(bgp[i:]), true
			}
			for s != "" && j < len(bgp) && starMember(bgp[j], s) {
				j++
			}
			var p *probe
			switch {
			case j == i+1:
				p = r.compile(bgp[i], gctx)
			case rooted:
				p = r.compileStar(&bgp[i], bgp[i+1:j], gctx)
			default:
				p = r.compileStar(nil, bgp[i:j], gctx)
			}
			for _, c := range checks {
				if c.at >= i && c.at < j {
					levelProbe(p, c.at-i).keepVar(bgp[c.at], c.sj.key, r.semiSet(c.sj, gctx.gid))
					it.sets = append(it.sets, c.sj)
				}
			}
			it.levels = append(it.levels, bgpLevel{p: p})
			i = j
		}
		if parent != nil {
			detail := fmt.Sprintf("%d patterns", len(bgp))
			if r.planned {
				detail += " (planned)"
			}
			// The chain's final JOIN estimate is the BGP's own output
			// estimate (each JOIN estimates from its actual input).
			it.tr = newStage(parent, "BGP", detail, func(int) int64 { return it.estOut })
		}
		it.src = it.tr.in(cur)
		cur, owned = r.bound(it.tr, it), true
		bgp, checks = nil, nil
	}
	element := func(el PatternElement) {
		switch e := el.(type) {
		case TriplePattern:
			bgp = append(bgp, e)
			return
		case semiJoinElement:
			if !e.entry {
				checks = append(checks, semiCheck{at: len(bgp), sj: e.sj})
				return
			}
		}
		flush()
		tr, own := elementStage(parent, el), owned
		// stage wires one per-chunk kernel in as a bounded stage.
		stage := func(fn func([]solution) ([]solution, error)) {
			cur = r.bound(tr, &mapChunk{src: tr.in(cur), fn: fn})
		}
		switch e := el.(type) {
		case FilterElement:
			sjs := semiJoinsInto(e.Expr, nil)
			stage(func(chunk []solution) ([]solution, error) {
				if err := r.fillSemiSets(sjs, gctx, tr.span()); err != nil {
					return nil, err
				}
				return kr.filterRows(e.Expr, chunk, own), nil
			})
		case semiJoinElement:
			cur = r.bound(tr, &entryIter{r: r, src: tr.in(cur), sj: e.sj, s: r.semiSet(e.sj, gctx.gid),
				slot: r.vt.slot(e.sj.key), gctx: gctx, sp: tr.span()})
			owned = true
		case BindElement:
			idx := r.vt.slot(e.Var)
			stage(func(chunk []solution) ([]solution, error) {
				return kr.bindRows(e.Expr, idx, chunk, own), nil
			})
			owned = true
		case OptionalElement:
			// Fast path: an OPTIONAL holding exactly one triple pattern
			// (the common shape for label lookups) avoids the nested
			// group evaluation per row.
			if tp, ok := singleTriplePattern(e.Pattern); ok {
				p := r.compile(tp, gctx)
				stage(func(chunk []solution) ([]solution, error) {
					return kr.optionalSingle(p, chunk, own), nil
				})
			} else {
				stage(func(chunk []solution) ([]solution, error) {
					return kr.optionalRows(e.Pattern, chunk, gctx)
				})
				owned = false
			}
		case UnionElement:
			cur = r.bound(tr, &unionIter{r: r, branches: e.Branches, src: tr.in(cur), gctx: gctx})
			owned = false
		case MinusElement:
			// The right side evaluates once — on the real run, so its
			// rows are charged and its stages trace as children of the
			// MINUS span — lazily on the first chunk.
			var right []solution
			ready := false
			stage(func(chunk []solution) ([]solution, error) {
				if !ready {
					var err error
					right, err = r.groupRows(e.Pattern, r.seed(), gctx, tr.span(), false)
					if err != nil {
						return nil, err
					}
					ready = true
				}
				return kr.minusRows(chunk, right, own), nil
			})
		case GraphElement:
			if e.Graph.IsVar {
				cur = r.bound(tr, &graphVarIter{r: r, el: e, src: tr.in(cur), sp: tr.span()})
			} else if gid, ok := r.snap.GraphID(e.Graph.Term); ok {
				cur, _ = r.streamGroup(e.Pattern, tr.in(cur), graphCtx{gid: gid}, tr.span(), nil)
				cur = tr.out(cur)
			} else {
				cur = tr.out(&emptyIter{src: cur})
			}
			owned = false
		case GroupElement:
			cur, _ = r.streamGroup(e.Pattern, tr.in(cur), gctx, tr.span(), nil)
			cur, owned = tr.out(cur), false
		case ValuesElement:
			stage(func(chunk []solution) ([]solution, error) {
				return kr.joinTable(chunk, e.Vars, e.Rows), nil
			})
			owned = true
		case SubSelectElement:
			// The subquery evaluates once, lazily on the first chunk; its
			// operators trace under the SUBSELECT span.
			var sub *Results
			stage(func(chunk []solution) ([]solution, error) {
				if sub == nil {
					var err error
					sub, err = r.evalSubSelect(e.Query, tr.span())
					if err != nil {
						return nil, err
					}
				}
				return kr.joinTable(chunk, sub.Vars, sub.Rows), nil
			})
			owned = true
		}
	}
	for _, el := range g.Elements {
		if _, ok := el.(FilterElement); !ok || g.Planned {
			element(el)
		}
	}
	if !g.Planned {
		for _, el := range g.Elements {
			if _, ok := el.(FilterElement); ok {
				element(el)
			}
		}
	}
	flush()
	return cur, owned
}

// semiCheck is a semi-join check of a BGP being gathered: the index of
// the pattern that binds the set's variable, and the set.
type semiCheck struct {
	at int
	sj *semiJoin
}

// levelProbe returns the probe of a level's k-th pattern: the level's
// own for a plain pattern or a rooted star's root, a member's otherwise.
func levelProbe(p *probe, k int) *probe {
	switch {
	case p.star == nil:
		return p
	case p.rooted && k == 0:
		return p
	case p.rooted:
		return p.star[k-1]
	}
	return p.star[k]
}

// filterRows keeps the rows whose filter expression evaluates to a true
// effective boolean value (evaluation errors eliminate the row). On
// cancellation it returns early with what it has; the next chunk
// boundary converts that into an error. An owned chunk is compacted
// into its own header.
func (r *run) filterRows(expr Expression, rows []solution, owned bool) []solution {
	var kept []solution
	if owned {
		kept = outFor(rows, true)
	}
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			break
		}
		v, err := r.evalExpr(expr, row)
		if err != nil {
			continue
		}
		if b, err := ebv(v); err == nil && b {
			kept = append(kept, row)
		}
	}
	return kept
}

// optionalRows evaluates a general OPTIONAL group per left row: the row
// survives unextended when the pattern yields nothing.
func (r *run) optionalRows(p GroupGraphPattern, rows []solution, ctx graphCtx) ([]solution, error) {
	var out []solution
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			return nil, r.cancelErr()
		}
		ext, err := r.groupRows(p, []solution{row}, ctx, nil, false)
		if err != nil {
			return nil, err
		}
		if len(ext) == 0 {
			out = append(out, row)
		} else {
			out = append(out, ext...)
		}
	}
	return out, nil
}

// minusRows removes rows compatible with (and sharing a variable with)
// any right-side solution, compacting an owned chunk into its own header.
func (r *run) minusRows(rows, right []solution, owned bool) []solution {
	var kept []solution
	if owned {
		kept = outFor(rows, true)
	}
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			break
		}
		excluded := false
		for _, rr := range right {
			if compatibleSharing(row, rr) {
				excluded = true
				break
			}
		}
		if !excluded {
			kept = append(kept, row)
		}
	}
	return kept
}

// unionIter buffers its input once and replays it through each branch's
// pipeline in branch order, concatenating branch-major. The input
// buffer is an extra materialization point; it holds the rows
// *entering* the UNION, not the branch expansions. Branch interiors are
// not traced: the UNION span carries the totals.
type unionIter struct {
	r        *run
	branches []GroupGraphPattern
	src      chunkIter
	gctx     graphCtx

	started bool
	input   []solution
	bi      int
	cur     chunkIter
}

func (u *unionIter) next() ([]solution, error) {
	if !u.started {
		u.started = true
		rows, err := drainStream(u.r, u.src)
		if err != nil {
			return nil, err
		}
		u.input = rows
	}
	for {
		if u.cur != nil {
			chunk, err := u.cur.next()
			if err != nil {
				return nil, err
			}
			if chunk != nil {
				return chunk, nil
			}
			u.cur.close()
			u.cur = nil
		}
		if u.bi >= len(u.branches) || len(u.input) == 0 {
			return nil, nil
		}
		b := u.branches[u.bi]
		u.bi++
		u.cur, _ = u.r.streamGroup(b, &sliceSource{rows: u.input, chunk: u.r.e.chunkSize}, u.gctx, nil, nil)
	}
}

func (u *unionIter) close() {
	if u.cur != nil {
		u.cur.close()
		u.cur = nil
	}
	if !u.started {
		u.src.close()
	}
	u.input = nil
}

// graphVarIter implements GRAPH ?g { ... }: input buffered once, then
// replayed per named graph in id order, with the graph variable bound
// on cloned seed rows. Each graph's stages trace under sp.
type graphVarIter struct {
	r   *run
	el  GraphElement
	src chunkIter
	sp  *obs.Span

	started bool
	input   []solution
	gids    []store.ID
	gi      int
	idx     int
	cur     chunkIter
}

func (g *graphVarIter) next() ([]solution, error) {
	if !g.started {
		g.started = true
		rows, err := drainStream(g.r, g.src)
		if err != nil {
			return nil, err
		}
		g.input = rows
		g.gids = g.r.snap.NamedGraphIDs()
		g.idx = g.r.vt.slot(g.el.Graph.Var)
	}
	for {
		if g.cur != nil {
			chunk, err := g.cur.next()
			if err != nil {
				return nil, err
			}
			if chunk != nil {
				return chunk, nil
			}
			g.cur.close()
			g.cur = nil
		}
		if g.gi >= len(g.gids) {
			return nil, nil
		}
		gid := g.gids[g.gi]
		g.gi++
		gterm := g.r.snap.Term(gid)
		// Respect an existing binding of the graph var.
		var seed []solution
		for _, row := range g.input {
			if !row[g.idx].IsZero() && row[g.idx] != gterm {
				continue
			}
			nrow := row.clone()
			nrow[g.idx] = gterm
			seed = append(seed, nrow)
		}
		if len(seed) == 0 {
			continue
		}
		g.cur, _ = g.r.streamGroup(g.el.Pattern, &sliceSource{rows: seed, chunk: g.r.e.chunkSize}, graphCtx{gid: gid}, g.sp, nil)
	}
}

func (g *graphVarIter) close() {
	if g.cur != nil {
		g.cur.close()
		g.cur = nil
	}
	if !g.started {
		g.src.close()
	}
	g.input = nil
}

// bgpLevel is one join level of a bgpIter: its compiled pattern or star,
// the rows waiting to be joined, the row scan in progress and the last
// match its row scans share, the account charge held for the buffered
// rows, and — under tracing — its JOIN or STAR span.
type bgpLevel struct {
	p    *probe
	buf  []solution
	scan *rowScan
	last lastMatch
	held int64
	sp   *obs.Span
}

// bgpIter joins a basic graph pattern incrementally, one level per
// pattern or star in the order given. Level 0 consumes input chunks; each
// advance joins a bounded batch of one level's rows with its pattern
// and hands the output to the next level. Scheduling is depth-first —
// always the deepest level with pending work — which bounds every
// buffer to about one chunk while producing rows in exactly the order
// of a level-by-level join over the whole input (the per-row join is
// order-preserving, so depth-first and breadth-first emit the same
// sequence).
type bgpIter struct {
	r    *run // real run: accounting, cancellation, memory errors
	kr   *run // kernel run for batch joins (no accounting)
	src  chunkIter
	gctx graphCtx

	levels []bgpLevel
	sets   []*semiJoin // the sets its levels check, filled before the first join
	srcEOF bool
	owned  bool     // the input chunks are this BGP's own: level 0 need not clone
	free   *rowList // what the pipeline's consumer returned; nil in a nested pipeline

	// Tracing only: the BGP's stage, the variables bound on entry (from
	// the first input row; JOIN estimates treat them as constants), and
	// the last JOIN's estimate, which the BGP span adopts.
	tr     *stageTrace
	bound  map[string]bool
	estOut int64
}

// feed hands rows to level i, opening the level's JOIN or STAR span on first
// use so the trace lists exactly the joins that received input.
func (b *bgpIter) feed(i int, rows []solution) {
	lvl := &b.levels[i]
	lvl.buf = rows
	if b.tr == nil {
		return
	}
	if lvl.sp == nil {
		if i == 0 {
			b.bound = make(map[string]bool)
			for name, idx := range b.r.vt.index {
				if !rows[0][idx].IsZero() {
					b.bound[name] = true
				}
			}
		}
		op, detail := "JOIN", patternDetail(lvl.p.tp)
		if lvl.p.star != nil {
			op, detail = "STAR", starDetail(lvl.p)
		}
		detail += keepDetail(lvl.p)
		lvl.sp = b.tr.sp.StartChild(op, detail, 0)
	}
	lvl.sp.In += len(rows)
}

func (b *bgpIter) next() ([]solution, error) {
	if b.sets != nil {
		if err := b.r.fillSemiSets(b.sets, b.gctx, b.tr.span()); err != nil {
			return nil, err
		}
		b.sets = nil
	}
	for {
		// Deepest level with pending work.
		i := -1
		for l := len(b.levels) - 1; l >= 0; l-- {
			if len(b.levels[l].buf) > 0 || b.levels[l].scan != nil {
				i = l
				break
			}
		}
		if i < 0 {
			if b.srcEOF {
				return nil, nil
			}
			chunk, err := b.src.next()
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				b.srcEOF = true
				continue
			}
			// The input chunk stays charged by the upstream boundary
			// until the next src pull, which only happens once the
			// levels drain — no extra charge needed for level 0.
			b.feed(0, chunk)
			continue
		}
		sp := b.levels[i].sp
		var t0 time.Time
		if sp != nil {
			t0 = time.Now()
		}
		out, err := b.advance(i)
		if sp != nil {
			sp.Wall += time.Since(t0)
			sp.Out += len(out)
		}
		if err != nil {
			return nil, err
		}
		if lvl := &b.levels[i]; len(lvl.buf) == 0 && lvl.scan == nil && lvl.held > 0 {
			b.r.acct.Release(lvl.held)
			lvl.held = 0
		}
		if len(out) == 0 {
			continue
		}
		if i == len(b.levels)-1 {
			return out, nil
		}
		b.feed(i+1, out)
		if b.r.acct != nil {
			nl := &b.levels[i+1]
			nl.held = int64(len(out)) * approxRowBytes(out[0])
			b.r.acct.Materialize(len(out), nl.held)
			if b.r.overMem() {
				return nil, b.r.memErr()
			}
		}
	}
}

// minBatchRows is the number of buffered rows from which a BGP level
// joins them through the batch kernel (joinPatternOwned) rather than row
// by row (rowScan). A batch that large is most often rows with one match
// each, a functional chain through an observation's patterns, which the
// batch kernel extends and compacts in place in the header it was
// handed; fewer rows may be a fan-out, one row matching thousands of
// triples, which rowScan emits in chunks of at most chunkSize rows. The
// row scan builds each chunk in a header of its own, a new one unless
// the pipeline's free list holds one, so it is no substitute at every
// size (EXPERIMENTS A-one-goroutine).
const minBatchRows = 128

// advance joins a bounded amount of level i's buffered rows with its
// pattern. A batch of minBatchRows or more takes the batch kernel;
// smaller batches and resumed scans go row by row through a suspendable
// rowScan, so a single row whose pattern matches the whole store still
// emits chunk-sized output. Property patterns always batch (path
// closures have no cursor form). Level 0 owns its rows when the stage's
// input does (after a FILTER pushed above the BGP, a sub-select join, a
// BIND); at the head of a group they are shared with whoever replays
// them and single-match rows are cloned. Deeper levels always own
// theirs — the level before built them — and extend and compact them in
// place: joinPatternOwned's ownership rule. The row-by-row path — the
// one a fan-out takes, 1 row → every observation — builds its chunk in
// the header and the rows the pipeline's consumer returned (free), once
// there are any.
func (b *bgpIter) advance(i int) ([]solution, error) {
	lvl := &b.levels[i]
	owned := i > 0 || b.owned
	max := b.r.e.chunkSize
	if lvl.scan == nil && (lvl.p.steps != nil || len(lvl.buf) >= minBatchRows) {
		n := len(lvl.buf)
		if n > max {
			n = max
		}
		batch := lvl.buf[:n:n]
		lvl.buf = lvl.buf[n:]
		return b.kr.joinPatternOwned(lvl.p, batch, owned)
	}
	out := b.free.header()
	for len(out) < max {
		if lvl.scan == nil {
			if len(lvl.buf) == 0 {
				break
			}
			row := lvl.buf[0]
			lvl.buf = lvl.buf[1:]
			lvl.scan = b.kr.newRowScan(lvl.p, row, owned, b.free, &lvl.last)
		}
		done, err := lvl.scan.emit(&out, max)
		if err != nil {
			return nil, err
		}
		if done {
			lvl.scan = nil
		}
	}
	return out, nil
}

func (b *bgpIter) close() {
	for l := range b.levels {
		if b.levels[l].held > 0 {
			b.r.acct.Release(b.levels[l].held)
			b.levels[l].held = 0
		}
	}
	b.src.close()
	if b.tr == nil {
		return
	}
	// Fix every JOIN's estimate from its accumulated actual input, with
	// the variables bound by the joins before it; a STAR chains the
	// estimate through its root, if it has one, and its members. A set a
	// pattern checks keeps its share of the matches (semiSelectivity, at
	// the set's actual size).
	chain := func(q *probe) {
		b.estOut = b.r.estimateJoin(q.tp, b.bound, int(b.estOut), b.gctx)
		for i, s := range q.keep {
			if s != nil {
				b.estOut = int64(math.Round(float64(b.estOut) * semiSelectivity(b.r.snap, q.tp, i, float64(len(s.order)), b.gctx.gid)))
			}
		}
		markBound(q.tp, b.bound)
	}
	for l := range b.levels {
		lvl := &b.levels[l]
		if lvl.sp == nil {
			break
		}
		b.estOut = int64(lvl.sp.In)
		if lvl.p.star == nil || lvl.p.rooted {
			chain(lvl.p)
		}
		for _, m := range lvl.p.star {
			chain(m)
		}
		lvl.sp.SetEst(b.estOut)
	}
	b.tr = nil // a second close must not re-estimate over the grown bound set
}

// rowScan joins one row with one pattern or star resumably: it holds the
// row's matches — part of the snapshot, so it may be suspended across
// chunk boundaries for as long as needed — and the counter of the next
// candidate — a star's next combination, under a rooted star's current
// root triple — and follows joinPatternOwned's semantics: a single-match
// row is extended in place when owned instead of cloned,
// repeated-variable constraints are enforced by probe.extendAt, and the
// scan checks cancellation with the same cadence as the batch join's
// in-scan hook. Clones come from list while it holds rows, and a row
// whose match fails goes straight back.
type rowScan struct {
	r    *run
	p    *probe
	row  solution
	list *rowList

	m       matches
	next    int  // the next candidate of m's group
	tick    int  // candidates and root triples visited, for the cancellation cadence
	inPlace bool // an owned row with a single match: extend row itself
}

func (r *run) newRowScan(p *probe, row solution, owned bool, list *rowList, last *lastMatch) *rowScan {
	rs := &rowScan{r: r, p: p, row: row, list: list}
	p.matchRow(row, &rs.m, last)
	rs.inPlace = owned && p.single(&rs.m)
	return rs
}

// emit appends join results to out until the scan is exhausted
// (done=true) or out reaches max rows; a suspended scan resumes
// mid-match-list — mid-root-run, in a rooted star — on the next call.
func (rs *rowScan) emit(out *[]solution, max int) (bool, error) {
	for len(*out) < max {
		if rs.tick++; rs.tick%(cancelCheckRows*4) == 0 && rs.r.cancelled() {
			return false, rs.r.cancelErr()
		}
		if rs.next == rs.m.n {
			if !rs.p.nextRoot(&rs.m) {
				return true, nil
			}
			rs.next = 0
			continue
		}
		i := rs.next
		rs.next++
		dst := rs.row
		if !rs.inPlace {
			dst = rs.list.clone(rs.row)
		}
		if rs.p.extendAt(dst, &rs.m, i) {
			*out = append(*out, dst)
		} else if !rs.inPlace {
			rs.list.putRow(dst)
		}
	}
	return false, nil
}

// projectStage applies the ungrouped SELECT projection chunk by chunk
// and, its output rows built, returns the chunk to free — non-nil only
// when the chunks of src are the projection's own.
func (r *run) projectStage(q *Query, vars []string, src chunkIter, free *rowList) chunkIter {
	kr := r.kernel(graphCtx{})
	tr := newStage(r.trace, "PROJECT", "", estimateSame)
	return r.bound(tr, &mapChunk{src: tr.in(src), fn: func(chunk []solution) ([]solution, error) {
		out := make([]solution, 0, len(chunk))
		for _, row := range chunk {
			orow := make(solution, len(vars))
			if q.Star {
				for i, n := range vars {
					orow[i] = row[r.vt.index[n]]
				}
			} else {
				for i, it := range q.Projection {
					if it.Expr == nil {
						if idx, ok := r.vt.index[it.Var]; ok {
							orow[i] = row[idx]
						}
						continue
					}
					if v, err := kr.evalExpr(it.Expr, row); err == nil {
						orow[i] = v
					}
				}
			}
			out = append(out, orow)
		}
		free.put(chunk)
		return out, nil
	}})
}

// distinctIter streams DISTINCT: rows pass through in order, dropped
// when their rendered key was seen before. The seen set is the one
// retained structure — it grows with the number of distinct rows, which
// is also the size of the final result — so every new key is charged to
// the query account (its bytes plus distinctEntryBytes) and never
// released.
type distinctIter struct {
	r    *run
	src  chunkIter
	seen map[string]struct{}
	tr   *stageTrace
}

// solutionKey renders a whole solution into a comparable key: two
// solutions are the same row exactly when their keys are equal.
func solutionKey(row solution) string {
	var b strings.Builder
	for _, t := range row {
		b.WriteString(t.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// distinctEntryBytes approximates what one seen-set entry holds beside
// its key bytes: the string header and its share of the map's buckets.
const distinctEntryBytes = 48

func (d *distinctIter) next() ([]solution, error) {
	for {
		chunk, err := d.src.next()
		if err != nil || chunk == nil {
			return nil, err
		}
		out := chunk[:0:len(chunk)]
		var kept int64
		for _, row := range chunk {
			k := solutionKey(row)
			if _, ok := d.seen[k]; ok {
				continue
			}
			d.seen[k] = struct{}{}
			kept += int64(len(k)) + distinctEntryBytes
			out = append(out, row)
		}
		if d.r.acct != nil && kept > 0 {
			d.r.acct.Materialize(0, kept)
			d.tr.charged(kept)
			if d.r.overMem() {
				return nil, d.r.memErr()
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (d *distinctIter) close() { d.src.close() }

// sliceIter applies OFFSET/LIMIT. Once the limit is delivered it stops
// pulling entirely — upstream work past the limit never runs.
type sliceIter struct {
	src    chunkIter
	offset int
	limit  int // -1 = unlimited
	done   bool
}

func (s *sliceIter) next() ([]solution, error) {
	if s.done {
		return nil, nil
	}
	for {
		chunk, err := s.src.next()
		if err != nil || chunk == nil {
			s.done = true
			return nil, err
		}
		if s.offset > 0 {
			if s.offset >= len(chunk) {
				s.offset -= len(chunk)
				continue
			}
			chunk = chunk[s.offset:]
			s.offset = 0
		}
		if s.limit >= 0 {
			if len(chunk) > s.limit {
				chunk = chunk[:s.limit]
			}
			s.limit -= len(chunk)
			if s.limit == 0 {
				s.done = true
			}
		}
		if len(chunk) > 0 {
			return chunk, nil
		}
		if s.done {
			return nil, nil
		}
	}
}

func (s *sliceIter) close() { s.src.close() }

// resultStream assembles the full pipeline for a SELECT or ASK query
// and returns a live chunk iterator of result rows plus the header. The
// WHERE clause always streams. ASK pulls one chunk — the pipeline stops
// at the first match — and answers with the one-row table ?ask. A
// grouped query folds it, chunk by chunk, into per-group accumulators
// and re-streams the group rows (a sub-select's GROUP BY arrives here
// through its own run); an ungrouped ORDER BY drains it into the sort
// and re-streams the sorted rows into the projection; DISTINCT and
// OFFSET/LIMIT are stages either way, so a LIMIT stops the projection
// early even under ORDER BY.
func (r *run) resultStream(q *Query) (chunkIter, []string, error) {
	n := r.e.chunkSize
	free := &rowList{max: n}
	body, owned := r.streamGroup(q.Where, &sliceSource{rows: r.seed(), chunk: n}, graphCtx{}, r.trace, free)
	if !owned {
		free = nil // the WHERE's BGPs keep the list; nobody puts a chunk on it
	}
	if q.Form == FormAsk {
		defer body.close()
		chunk, err := body.next()
		if err != nil {
			return nil, nil, err
		}
		return &sliceSource{rows: []solution{{rdf.NewBoolean(len(chunk) > 0)}}, chunk: 1}, []string{"ask"}, nil
	}

	var it chunkIter
	var vars []string
	if len(q.GroupBy) > 0 || projectionHasAggregates(q) {
		var rows []solution
		var err error
		if vars, rows, err = r.foldGroups(q, body, free); err != nil {
			return nil, nil, err
		}
		it = &sliceSource{rows: rows, chunk: n}
	} else {
		if len(q.OrderBy) > 0 {
			// ORDER BY before projection so order keys may use any
			// variable.
			rows, err := drainStream(r, body)
			if err != nil {
				return nil, nil, err
			}
			if err := r.orderSpan(len(rows), func() { r.sortRows(rows, q.OrderBy) }); err != nil {
				return nil, nil, err
			}
			body, free = &sliceSource{rows: rows, chunk: n}, nil // the sorted table is retained
		}
		vars = r.selectVars(q)
		it = r.projectStage(q, vars, body, free)
	}
	if q.Distinct {
		tr := newStage(r.trace, "DISTINCT", "", estimateSame)
		it = r.bound(tr, &distinctIter{r: r, src: tr.in(it), seen: make(map[string]struct{}), tr: tr})
	}
	if q.Offset > 0 || q.Limit >= 0 {
		var tr *stageTrace
		if r.trace != nil {
			tr = newStage(r.trace, "SLICE", fmt.Sprintf("offset=%d limit=%d", q.Offset, q.Limit),
				func(in int) int64 { return int64(estimateSliceRows(float64(in), q.Offset, q.Limit)) })
		}
		it = tr.out(&sliceIter{src: tr.in(it), offset: q.Offset, limit: q.Limit})
	}
	return it, vars, nil
}

// stream is the one delivery loop every SELECT and ASK result leaves
// through: head once with the projection header, then chunk for every
// block of rows as the pipeline produces it (a breaker's materialized
// result arrives in chunk-size blocks, so consumers can flush
// uniformly). An error from either callback aborts evaluation and is
// returned as-is.
func (r *run) stream(q *Query, head func(vars []string) error, chunk func(rows []solution) error) error {
	it, vars, err := r.resultStream(q)
	if err != nil {
		return err
	}
	defer it.close()
	if err := head(vars); err != nil {
		return err
	}
	for {
		// Delivery honors cancellation even when evaluation is done (a
		// breaker's table re-streamed): a gone consumer must not be
		// streamed to.
		if r.cancelled() {
			return r.cancelErr()
		}
		c, err := it.next()
		if err != nil || c == nil {
			return err
		}
		r.delivered += len(c)
		if err := chunk(c); err != nil {
			return err
		}
	}
}

// collect drives stream into a whole Results value. The collected table
// is retained, so it is charged: peak in-flight memory is the pipeline
// plus the final table, not intermediate joins.
func (r *run) collect(q *Query) (*Results, error) {
	out := &Results{}
	err := r.stream(q,
		func(vars []string) error { out.Vars = vars; return nil },
		func(rows []solution) error {
			for _, row := range rows {
				out.Rows = append(out.Rows, row)
			}
			if accountNew(r, rows); r.overMem() {
				return r.memErr()
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// evaluate opens the run of one SELECT or ASK evaluation and hands it
// to drive. A non-empty id traces the evaluation: operator spans attach
// under a fresh root, and the trace — returned even when drive fails,
// with the spans finished so far — carries the account's
// rows/bytes/peak.
func (e *Engine) evaluate(ctx context.Context, q *Query, id obs.TraceID, drive func(*run, *Query) error) (*obs.Trace, error) {
	if q.Form != FormSelect && q.Form != FormAsk {
		return nil, fmt.Errorf("sparql: %s is not a SELECT or ASK query (use Construct or Describe)", q.Form)
	}
	var root *obs.Span
	var start time.Time
	if id != "" {
		start, root = time.Now(), obs.StartSpan(q.Form.String(), "", 1)
	}
	r, q := e.newRun(ctx, q, root) // a traced run always carries an account
	defer r.closeAcct()
	err := drive(r, q)
	if root == nil {
		return nil, err
	}
	root.Finish(r.delivered)
	return &obs.Trace{ID: id, Start: start, Root: root,
		Rows: r.acct.Rows(), Bytes: r.acct.Bytes(), PeakBytes: r.acct.Peak()}, err
}

// collect evaluates q into a whole Results table, traced under id when
// it is non-empty.
func (e *Engine) collect(ctx context.Context, q *Query, id obs.TraceID) (res *Results, tr *obs.Trace, err error) {
	tr, err = e.evaluate(ctx, q, id, func(r *run, q *Query) (err error) {
		res, err = r.collect(q)
		return err
	})
	return res, tr, err
}

// Stream evaluates a SELECT or ASK query (ASK is the one-row table
// ?ask) and delivers the result incrementally: head once, then chunk
// per block of rows. A non-empty id traces the evaluation under that
// identity and returns the trace, also when evaluation or a callback
// fails; the empty id is the untraced fast path (nil trace).
func (e *Engine) Stream(ctx context.Context, q *Query, id obs.TraceID, head func(vars []string) error, chunk func(rows [][]rdf.Term) error) (*obs.Trace, error) {
	return e.evaluate(ctx, q, id, func(r *run, q *Query) error {
		return r.stream(q, head, func(c []solution) error {
			rows := make([][]rdf.Term, len(c))
			for i, s := range c {
				rows[i] = s
			}
			return chunk(rows)
		})
	})
}

// StreamSelect is the untraced Stream of a SELECT query.
func (e *Engine) StreamSelect(ctx context.Context, q *Query, head func(vars []string) error, chunk func(rows [][]rdf.Term) error) error {
	if q.Form != FormSelect {
		return fmt.Errorf("sparql: not a SELECT query")
	}
	_, err := e.Stream(ctx, q, "", head, chunk)
	return err
}
