package sparql

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Engine evaluates parsed queries and updates against a store.Store.
//
// An Engine is safe for concurrent use: queries carry all per-execution
// state in a private run value, including the one store snapshot every
// scan, count and statistic of the evaluation reads (per-query snapshot
// isolation; no store lock is held while a query runs). Configuration
// (SetChunkSize, WithPlanner) must be done before the engine is shared.
type Engine struct {
	store *store.Store

	// planner enables the cost-based planning pass (plan.go) on every
	// query and update entry: statistics-driven BGP join ordering plus
	// filter pushdown, applied once before evaluation. On by default;
	// with WithPlanner(false) patterns join in the written order.
	planner bool

	// tracer, when set (WithTracer), collects a per-operator trace of
	// every sampled query. Nil — the default — leaves every span hook a
	// nil check; see trace.go.
	tracer *obs.Tracer

	// sampler, when set (WithSampler), decides which queries the tracer
	// records. Nil samples everything.
	sampler *obs.Sampler

	// resources, when set (WithResources), aggregates every query's
	// in-flight materialized bytes into process-wide gauges; maxQueryMem,
	// when > 0 (WithMaxQueryMem), aborts queries whose in-flight bytes
	// exceed it with *MemLimitError. Either turns per-query resource
	// accounting on; see resource.go.
	resources   *obs.ResourceTracker
	maxQueryMem int64

	// chunkSize is the solution-chunk granularity of the pipeline
	// (stream.go): every query evaluates through chunked pull iterators
	// whose buffers hold about chunkSize rows, with cancellation, memory
	// accounting and tracing applied at chunk boundaries. Always >= 1;
	// default defaultChunkSize.
	chunkSize int
}

// defaultChunkSize is the default chunk granularity. 1024 rows balances
// per-chunk kernel efficiency (a full chunk takes the BGP's batch
// kernel, minBatchRows=128, and amortizes each stage's boundary work)
// against per-query buffer footprint (a ~1.5 KB OLAP row × 1024 ≈
// 1.5 MB per pipeline stage); see BenchmarkChunkSize for the sweep
// backing the choice.
const defaultChunkSize = 1024

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithChunkSize sets the pipeline's chunk granularity in rows. n <= 0
// selects defaultChunkSize, which is also the default.
func WithChunkSize(n int) Option {
	return func(e *Engine) { e.SetChunkSize(n) }
}

// ChunkSize reports the pipeline's chunk granularity in rows.
func (e *Engine) ChunkSize() int { return e.chunkSize }

// SetChunkSize changes the chunk granularity (n <= 0 selects
// defaultChunkSize). It must not be called concurrently with running
// queries.
func (e *Engine) SetChunkSize(n int) {
	if n <= 0 {
		n = defaultChunkSize
	}
	e.chunkSize = n
}

// NewEngine returns an engine over st. The cost-based planner is on by
// default; pass WithPlanner(false) to disable it.
func NewEngine(st *store.Store, opts ...Option) *Engine {
	e := &Engine{store: st, planner: true, chunkSize: defaultChunkSize}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.store }

// Results is a SPARQL SELECT result table.
type Results struct {
	Vars []string
	Rows [][]rdf.Term // zero terms are unbound
}

// varTable assigns a dense slot to every variable of a query.
type varTable struct {
	names []string
	index map[string]int
}

func newVarTable() *varTable {
	return &varTable{index: make(map[string]int)}
}

func (vt *varTable) slot(name string) int {
	if i, ok := vt.index[name]; ok {
		return i
	}
	i := len(vt.names)
	vt.names = append(vt.names, name)
	vt.index[name] = i
	return i
}

// solution is one row of bindings, indexed by varTable slots; the zero
// term means unbound.
type solution []rdf.Term

func (s solution) clone() solution {
	c := make(solution, len(s))
	copy(c, s)
	return c
}

// graphCtx identifies the active graph during evaluation.
type graphCtx struct {
	gid store.ID // NoID = default graph
}

// run is the per-execution state.
type run struct {
	e   *Engine
	vt  *varTable
	ctx graphCtx

	// snap is the store state the whole evaluation reads, pinned when
	// the run opens: writes published later are invisible to it.
	snap *store.Snapshot

	// qctx/done arm cooperative cancellation (see context.go). done is
	// qctx.Done(); both stay nil for uncancellable evaluations, which
	// keeps every cancellation hook a single nil check. Kernel runs
	// share them through the run-value copy.
	qctx context.Context
	done <-chan struct{}

	// planned records that the query being evaluated was rewritten by
	// the cost-based planner; BGP spans say so.
	planned bool

	// trace is the (sub)query's span: its WHERE stages and its
	// AGGREGATE/ORDER/PROJECT/DISTINCT/SLICE spans attach under it. Nil
	// (the default) disables tracing; every hook then reduces to a nil
	// check.
	trace *obs.Span

	// acct is the per-query resource account (rows/bytes materialized,
	// peak in-flight, optional budget). Nil — the default — disables
	// accounting; every hook is then a nil check. ownAcct marks an
	// account opened by this run (closeAcct finishes it) as opposed to
	// one injected via context.
	acct    *obs.QueryAcct
	ownAcct bool

	// semi holds the query's semi-join sets (semijoin.go), shared with
	// the run's kernels and sub-selects.
	semi *semiSets

	// delivered counts the result rows stream has handed to its
	// consumer — the root span's output.
	delivered int
}

// newRun pins the store's current snapshot, plans q against it
// (prepared) and opens the per-execution state: cancellation and
// accounting bound from ctx, every variable registered, spans attaching
// under root when it is non-nil. It returns the run and the query to
// evaluate; the caller defers closeAcct.
func (e *Engine) newRun(ctx context.Context, q *Query, root *obs.Span) (*run, *Query) {
	snap := e.store.Snapshot()
	q = e.prepared(q, snap)
	r := &run{e: e, vt: newVarTable(), snap: snap, trace: root, planned: q.Planned}
	r.bindContext(ctx)
	r.bindAcct(ctx, root != nil)
	r.semi = &semiSets{acct: r.acct}
	collectVars(q, r.vt)
	return r, q
}

// Query evaluates a SELECT or ASK query, returning a Results table (ASK
// yields a single row with variable "ask" bound to a boolean). When the
// engine has a tracer installed, each query draws a fresh trace ID and,
// if the sampler elects it (no sampler = always), the evaluation is
// traced and collected; an unsampled query allocates no span tree.
func (e *Engine) Query(q *Query) (*Results, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryString parses and evaluates a SELECT/ASK query string.
func (e *Engine) QueryString(src string) (*Results, error) {
	return e.QueryStringContext(context.Background(), src)
}

// Select evaluates a SELECT query, untraced.
func (e *Engine) Select(q *Query) (*Results, error) {
	if q.Form != FormSelect {
		return nil, fmt.Errorf("sparql: not a SELECT query")
	}
	res, _, err := e.collect(context.Background(), q, "")
	return res, err
}

// Ask evaluates an ASK query, untraced.
func (e *Engine) Ask(q *Query) (bool, error) {
	if q.Form != FormAsk {
		return false, fmt.Errorf("sparql: not an ASK query")
	}
	res, _, err := e.collect(context.Background(), q, "")
	if err != nil {
		return false, err
	}
	return res.Rows[0][0] == rdf.NewBoolean(true), nil
}

// graph evaluates a CONSTRUCT or DESCRIBE, the two breakers whose
// output is a deduplicated graph rather than a row stream. The WHERE
// pipeline is consumed chunk by chunk, each chunk handed to the form's
// add function, which grows g; the graph's growth is charged to the
// query account after every chunk (and once more at the end, for
// triples added outside any chunk), so g is bounded by the memory
// budget like every other retained structure. The charge is sampled
// like accountNew — first new triple × count — and doubled: g holds a
// triple once as a map key and once in its ordered slice.
func (e *Engine) graph(ctx context.Context, q *Query, form QueryForm) ([]rdf.Triple, error) {
	if q.Form != form {
		return nil, fmt.Errorf("sparql: not a %s query", form)
	}
	r, q := e.newRun(ctx, q, nil)
	defer r.closeAcct()
	g := rdf.NewGraph()
	add := r.constructInto(g, q)
	if form == FormDescribe {
		add = r.describeInto(g, q)
	}
	it, _ := r.streamGroup(q.Where, &sliceSource{rows: r.seed(), chunk: r.e.chunkSize}, graphCtx{}, nil, nil)
	defer it.close()
	for mark := 0; ; {
		chunk, err := it.next()
		if err != nil {
			return nil, err
		}
		add(chunk)
		if ts := g.Triples(); r.acct != nil && len(ts) > mark {
			t := ts[mark]
			r.acct.Materialize(0, 2*approxRowBytes([]rdf.Term{t.S, t.P, t.O})*int64(len(ts)-mark))
			mark = len(ts)
		}
		if r.overMem() {
			return nil, r.memErr()
		}
		if chunk == nil {
			return g.Triples(), nil
		}
	}
}

// Construct evaluates a CONSTRUCT query and returns the instantiated,
// deduplicated triples.
func (e *Engine) Construct(q *Query) ([]rdf.Triple, error) {
	return e.ConstructContext(context.Background(), q)
}

// ConstructContext is Construct under a context (see QueryContext for
// the cancellation semantics).
func (e *Engine) ConstructContext(ctx context.Context, q *Query) ([]rdf.Triple, error) {
	return e.graph(ctx, q, FormConstruct)
}

// constructInto returns the add function that instantiates q's template
// into g under every row of a chunk.
func (r *run) constructInto(g *rdf.Graph, q *Query) func(chunk []solution) {
	return func(chunk []solution) {
		for _, row := range chunk {
			for _, tp := range q.Template {
				s, okS := r.resolve(tp.S, row)
				p, okP := r.resolve(tp.P, row)
				o, okO := r.resolve(tp.O, row)
				if !okS || !okP || !okO {
					continue
				}
				if t := rdf.NewTriple(s, p, o); t.Valid() {
					g.Add(t)
				}
			}
		}
	}
}

// resolve substitutes a pattern term under a row.
func (r *run) resolve(pt PatternTerm, row solution) (rdf.Term, bool) {
	if !pt.IsVar {
		return pt.Term, true
	}
	idx, ok := r.vt.index[pt.Var]
	if !ok {
		return rdf.Term{}, false
	}
	t := row[idx]
	return t, !t.IsZero()
}

func projectionHasAggregates(q *Query) bool {
	for _, it := range q.Projection {
		if it.Expr != nil && exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expression) bool {
	switch x := e.(type) {
	case ExprAggregate:
		return true
	case ExprBinary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case ExprNot:
		return exprHasAggregate(x.X)
	case ExprNeg:
		return exprHasAggregate(x.X)
	case ExprCall:
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case ExprIn:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if exprHasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// selectVars is the projection header of an ungrouped SELECT: sorted
// visible variables for SELECT *, the projection list otherwise. A
// variable only an EXISTS pattern mentions is not in scope (SPARQL 1.1
// §18.2.1), whether or not the planner turned the EXISTS into a set.
func (r *run) selectVars(q *Query) []string {
	var vars []string
	if q.Star {
		inScope := make(map[string]bool)
		patternVarsInto(q.Where, inScope, false)
		for _, n := range r.vt.names {
			if inScope[n] && !strings.HasPrefix(n, "_") { // hide internal blank-node vars
				vars = append(vars, n)
			}
		}
		sort.Strings(vars)
	} else {
		for _, it := range q.Projection {
			vars = append(vars, it.Var)
		}
	}
	return vars
}

// aggRef and slotRef are what a grouped query's expressions compile to
// (groupFold.compile): an aggregate becomes the index of its
// accumulator in every group, and a GROUP BY key or aggregate argument
// that is a plain variable its row slot, sparing the per-row name
// lookup.
type (
	aggRef  int
	slotRef int
)

func (aggRef) isExpression()  {}
func (slotRef) isExpression() {}

// slotted resolves e to a slotRef when it is a plain variable.
func (r *run) slotted(e Expression) Expression {
	if v, ok := e.(ExprVar); ok {
		if idx, ok := r.vt.index[v.Name]; ok {
			return slotRef(idx)
		}
	}
	return e
}

// mapOperands rebuilds an operator or call over fn of its operands;
// any other expression is returned as is. These are the expressions
// whose aggregates a grouped query evaluates.
func mapOperands(e Expression, fn func(Expression) Expression) Expression {
	switch x := e.(type) {
	case ExprBinary:
		return ExprBinary{Op: x.Op, L: fn(x.L), R: fn(x.R)}
	case ExprNot:
		return ExprNot{X: fn(x.X)}
	case ExprNeg:
		return ExprNeg{X: fn(x.X)}
	case ExprCall:
		args := make([]Expression, len(x.Args))
		for i, a := range x.Args {
			args[i] = fn(a)
		}
		return ExprCall{Name: x.Name, Args: args}
	}
	return e
}

// aggAcc is the running state of one aggregate over one group: n counts
// the values (for COUNT(*), the rows) folded; sum and bad serve SUM and
// AVG; term is the best value of MIN/MAX and the first of SAMPLE; parts
// collects GROUP_CONCAT; seen exists only under DISTINCT — the argument
// values met so far, or for COUNT(DISTINCT *) the rendered solutions
// (as the Value of an otherwise empty term).
type aggAcc struct {
	n     int64
	sum   numeric
	bad   bool // SUM/AVG met a non-numeric value: the result is a type error
	term  rdf.Term
	parts []string
	seen  map[rdf.Term]struct{}
}

// What the fold charges (see resource.go): a group is foldGroupBytes —
// struct, map entry, order slot — beside its row and key, an
// accumulator aggAccBytes, a DISTINCT entry its term plus
// distinctEntryBytes, a GROUP_CONCAT part one string header.
const (
	foldGroupBytes  = 96
	aggAccBytes     = 136
	concatPartBytes = 16
)

// add folds one value — the aggregate's argument under an input row,
// for COUNT(DISTINCT *) the rendered row — and returns the bytes the
// accumulator grew by. Values arrive in input order, so float sums,
// SAMPLE, GROUP_CONCAT and the first-wins ties of MIN/MAX come out as
// they would from walking the group's rows.
func (a *aggAcc) add(agg *ExprAggregate, v rdf.Term) (grew int64) {
	if agg.Distinct {
		if _, ok := a.seen[v]; ok {
			return 0
		}
		if a.seen == nil {
			a.seen = make(map[rdf.Term]struct{})
		}
		a.seen[v] = struct{}{}
		grew = termStructBytes + int64(len(v.Value)+len(v.Datatype)+len(v.Lang)) + distinctEntryBytes
	}
	a.n++
	if agg.Star { // COUNT(*) — the parser admits * nowhere else — counts solutions, not values
		return grew
	}
	switch agg.Func {
	case "SUM", "AVG":
		if n, ok := numericOf(v); ok {
			a.sum = addNumeric(a.sum, n)
		} else {
			a.bad = true
		}
	case "MIN", "MAX", "SAMPLE":
		if a.n == 1 {
			a.term = v // SAMPLE's answer, and the MIN/MAX to beat
		} else if agg.Func != "SAMPLE" {
			c, err := compareTerms(v, a.term)
			if err != nil {
				c = strings.Compare(v.Value, a.term.Value)
			}
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				a.term = v
			}
		}
	case "GROUP_CONCAT":
		a.parts = append(a.parts, v.Value)
		grew += concatPartBytes
	}
	return grew
}

// result finishes the aggregate.
func (a *aggAcc) result(agg *ExprAggregate) (rdf.Term, error) {
	switch {
	case agg.Star || agg.Func == "COUNT":
		return rdf.NewInteger(a.n), nil
	case agg.Func == "AVG" && a.n == 0:
		return rdf.NewInteger(0), nil
	case agg.Func == "SUM" || agg.Func == "AVG":
		if a.bad {
			return rdf.Term{}, errTypeError
		}
		if agg.Func == "SUM" {
			return numericTerm(a.sum), nil
		}
		avg := a.sum.asFloat() / float64(a.n)
		if a.sum.isInt && avg == float64(int64(avg)) {
			return rdf.NewInteger(int64(avg)), nil
		}
		return numericTerm(numeric{f: avg}), nil
	case agg.Func == "MIN" || agg.Func == "MAX" || agg.Func == "SAMPLE":
		if a.n == 0 {
			return rdf.Term{}, errTypeError
		}
		return a.term, nil
	case agg.Func == "GROUP_CONCAT":
		return rdf.NewLiteral(strings.Join(a.parts, agg.Separator)), nil
	}
	return rdf.Term{}, fmt.Errorf("sparql: unknown aggregate %s", agg.Func)
}

// foldGroup is one GROUP BY bucket: a copy of its first row, which
// HAVING, the projection and ORDER BY evaluate non-aggregate parts
// against, and one accumulator per aggregate of the query.
type foldGroup struct {
	rep  solution
	accs []aggAcc
}

// groupFold is the aggregation breaker's state: the grouped query
// compiled, one foldGroup per group met so far — never the input rows —
// and the previous row's GROUP BY values and group, which the next row
// reuses when its values are the same (DESIGN §16 "Consecutive rows
// repeat their members").
type groupFold struct {
	r *run
	q *Query

	// keys are the GROUP BY expressions and aggs every aggregate of the
	// projection, HAVING and ORDER BY, in that order; proj, having and
	// order are those expressions with each aggregate replaced by its
	// aggRef (proj[i] is nil for a plain projected variable).
	keys, proj, having, order []Expression
	aggs                      []ExprAggregate

	// A group key is the query-local id of each GROUP BY value, four
	// bytes apiece in key, which is reused from row to row: looking up
	// groups[string(key)] allocates only when the group is new. Id 0 is
	// "no value" — an unbound or erroring key expression.
	ids    map[rdf.Term]uint32
	key    []byte
	groups map[string]*foldGroup
	list   []*foldGroup // first-occurrence order

	// vals are the current row's GROUP BY values and last the previous
	// row's — copies of terms, never the row, which goes back to the
	// pipeline — whose group is lastG, nil before the first row.
	vals, last []rdf.Term
	lastG      *foldGroup

	charged int64 // bytes charged to the account for groups and their state
}

func (r *run) newGroupFold(q *Query) *groupFold {
	f := &groupFold{r: r, q: q,
		ids:    make(map[rdf.Term]uint32),
		key:    make([]byte, 4*len(q.GroupBy)),
		groups: make(map[string]*foldGroup),
		vals:   make([]rdf.Term, len(q.GroupBy)),
		last:   make([]rdf.Term, len(q.GroupBy)),
		proj:   make([]Expression, len(q.Projection)),
	}
	for i, it := range q.Projection {
		if it.Expr != nil {
			f.proj[i] = f.compile(it.Expr)
		}
	}
	for _, h := range q.Having {
		f.having = append(f.having, f.compile(h))
	}
	for _, oc := range q.OrderBy {
		f.order = append(f.order, f.compile(oc.Expr))
	}
	for _, e := range q.GroupBy {
		f.keys = append(f.keys, r.slotted(e))
	}
	return f
}

// compile gives every aggregate that eval can reach in e an accumulator
// and returns e with aggRefs in their place.
func (f *groupFold) compile(e Expression) Expression {
	if x, ok := e.(ExprAggregate); ok {
		x.Arg = f.r.slotted(x.Arg)
		f.aggs = append(f.aggs, x)
		return aggRef(len(f.aggs) - 1)
	}
	return mapOperands(e, f.compile)
}

// keyID interns one GROUP BY value. Two values share an id exactly when
// their rendered forms (Term.String) are equal — GROUP BY's notion of
// the same key: a plain literal and its xsd:string twin are one.
func (f *groupFold) keyID(t rdf.Term) uint32 {
	switch {
	case t.Kind == rdf.KindInvalid:
		return 0
	case t.Kind != rdf.KindLiteral:
		t = rdf.Term{Kind: t.Kind, Value: t.Value}
	case t.Lang != "" || t.Datatype == rdf.XSDString:
		t.Datatype = ""
	}
	id, ok := f.ids[t]
	if !ok {
		id = uint32(len(f.ids) + 1)
		f.ids[t] = id
	}
	return id
}

// add folds one chunk of input rows into the groups and charges what
// the groups grew by. A row whose GROUP BY values equal the previous
// row's under == joins the previous row's group without keyID or the
// groups map: equal terms have equal ids.
func (f *groupFold) add(chunk []solution) {
	var grew int64
	created := 0
	for _, row := range chunk {
		for i, e := range f.keys {
			f.vals[i], _ = f.r.evalExpr(e, row) // zero on error: keyID's "no value"
		}
		g := f.lastG
		if g == nil || !slices.Equal(f.vals, f.last) {
			for i, v := range f.vals {
				binary.LittleEndian.PutUint32(f.key[4*i:], f.keyID(v))
			}
			var ok bool
			if g, ok = f.groups[string(f.key)]; !ok {
				g = f.newGroup(row.clone()) // the one thing kept of a chunk, which goes back to the pipeline
				created++
				grew += foldGroupBytes + int64(len(f.key)) + approxRowBytes(row) + aggAccBytes*int64(len(f.aggs))
			}
			f.vals, f.last, f.lastG = f.last, f.vals, g
		}
		for i := range f.aggs {
			agg := &f.aggs[i]
			var v rdf.Term
			switch {
			case !agg.Star:
				var err error
				if v, err = f.r.evalExpr(agg.Arg, row); err != nil {
					continue // evaluation errors are skipped per spec
				}
			case agg.Distinct:
				v = rdf.Term{Value: solutionKey(row)}
			}
			grew += g.accs[i].add(agg, v)
		}
	}
	if f.r.acct != nil && grew > 0 {
		f.r.acct.Materialize(created, grew)
		f.charged += grew
	}
}

// newGroup opens the group of the current key with rep as its
// representative row.
func (f *groupFold) newGroup(rep solution) *foldGroup {
	g := &foldGroup{rep: rep, accs: make([]aggAcc, len(f.aggs))}
	for i := range g.accs {
		g.accs[i].sum.isInt = true
	}
	f.groups[string(f.key)] = g
	f.list = append(f.list, g)
	return g
}

// finish evaluates HAVING and the projection of one group, reporting
// whether the group survives. The result row carries the group's ORDER
// BY keys behind its projected columns (foldGroups cuts them off after
// the sort); they see the projected aliases first, then the
// representative row.
func (f *groupFold) finish(g *foldGroup) (solution, bool) {
	for _, h := range f.having {
		v, err := f.eval(h, g, g.rep)
		if err != nil {
			return nil, false
		}
		if b, err := ebv(v); err != nil || !b {
			return nil, false
		}
	}
	n := len(f.proj)
	out := make(solution, n+len(f.order))
	env := g.rep // what ORDER BY keys evaluate against
	if len(f.order) > 0 {
		env = g.rep.clone()
	}
	for i, it := range f.q.Projection {
		idx, ok := f.r.vt.index[it.Var]
		switch {
		case f.proj[i] == nil && ok:
			out[i] = g.rep[idx]
		case f.proj[i] != nil:
			out[i], _ = f.eval(f.proj[i], g, g.rep) // an error leaves the column unbound
			if ok && len(f.order) > 0 {
				env[idx] = out[i]
			}
		}
	}
	for i, e := range f.order {
		out[n+i], _ = f.eval(e, g, env) // an error sorts lowest, as the zero term
	}
	return out, true
}

// eval evaluates a compiled expression for one group: aggregates read
// the group's accumulators, and an operator or call is applied to its
// evaluated operands — an operand's error is the expression's — so only
// leaves are evaluated against the row.
func (f *groupFold) eval(e Expression, g *foldGroup, row solution) (rdf.Term, error) {
	if x, ok := e.(aggRef); ok {
		return g.accs[x].result(&f.aggs[x])
	}
	var err error
	e = mapOperands(e, func(x Expression) Expression {
		var v rdf.Term
		if err == nil {
			v, err = f.eval(x, g, row)
		}
		return ExprConst{v}
	})
	if err != nil {
		return rdf.Term{}, err
	}
	return f.r.evalExpr(e, row)
}

// orderSpan runs one ORDER BY sort under its span and reports a
// cancellation the (short-circuited) sort observed.
func (r *run) orderSpan(n int, sort func()) error {
	sp := r.trace.StartChild("ORDER", "", n)
	sp.SetEst(int64(n))
	sort()
	sp.Finish(n)
	if r.cancelled() {
		return r.cancelErr()
	}
	return nil
}

// foldGroups is the aggregation breaker: it consumes the WHERE stream
// chunk by chunk on the coordinating goroutine, folding every row into
// its group's accumulators, then evaluates HAVING, the projection and
// ORDER BY per group and returns the header and the group rows for the
// DISTINCT/SLICE stages. Cancellation and the memory budget are checked
// at every chunk; what the account holds for the fold is the groups,
// released once the result rows exist. A chunk folded is a chunk done
// with — a group keeps a clone of its first row — so it goes back to
// free, which is non-nil only when body's chunks are the fold's own.
func (r *run) foldGroups(q *Query, body chunkIter, free *rowList) ([]string, []solution, error) {
	defer body.close()
	sp := r.trace.StartChild("AGGREGATE", "", 0)
	if sp != nil {
		body = &spanIn{src: body, sp: sp} // counts the rows folded, subtracts the WHERE's time
	}
	f := r.newGroupFold(q)
	for {
		chunk, err := body.next()
		if err != nil {
			return nil, nil, err
		}
		if chunk == nil {
			break
		}
		f.add(chunk)
		free.put(chunk)
		if r.cancelled() {
			return nil, nil, r.cancelErr()
		}
		if r.overMem() {
			return nil, nil, r.memErr()
		}
	}
	// A grouped query with no GROUP BY clause (implicit grouping, e.g.
	// SELECT (COUNT(*) AS ?n)) forms a single group even when empty.
	if len(q.GroupBy) == 0 && len(f.list) == 0 {
		f.newGroup(make(solution, len(r.vt.names)))
	}

	vars := make([]string, len(q.Projection))
	for i, it := range q.Projection {
		vars[i] = it.Var
	}
	rows := make([]solution, 0, len(f.list))
	for gi, g := range f.list {
		if gi%cancelCheckRows == 0 && r.cancelled() {
			return nil, nil, r.cancelErr()
		}
		if row, ok := f.finish(g); ok {
			rows = append(rows, row)
		}
	}
	if sp != nil {
		upstream := sp.Wall // negative: the time spanIn spent pulling the WHERE, which Finish overwrites
		sp.SetEst(int64(estimateGroupRows(float64(sp.In))))
		sp.Detail = fmt.Sprintf("%d groups", len(f.list))
		sp.Mem = f.charged
		sp.Finish(len(rows))
		sp.Wall += upstream
	}
	if n := len(vars); len(q.OrderBy) > 0 {
		err := r.orderSpan(len(rows), func() {
			r.sortBy(rows, q.OrderBy, func(row solution, c int) rdf.Term { return row[n+c] })
		})
		if err != nil {
			return nil, nil, err
		}
		for i, row := range rows {
			rows[i] = row[:n:n]
		}
	}
	r.acct.Release(f.charged)
	if accountNew(r, rows); r.overMem() {
		return nil, nil, r.memErr()
	}
	return vars, rows, nil
}

func addNumeric(a, b numeric) numeric {
	if a.isInt && b.isInt {
		return numeric{isInt: true, i: a.i + b.i}
	}
	return numeric{f: a.asFloat() + b.asFloat()}
}

// sortBy orders rows by conds, key giving the value of a row's c-th
// condition (zero for an error). On cancellation the comparator
// degrades to a constant, so the sort drains in cheap comparisons and
// the caller's next cancellation check discards the (arbitrarily
// ordered) rows.
func (r *run) sortBy(rows []solution, conds []OrderCondition, key func(row solution, c int) rdf.Term) {
	short := r.sortShortCircuit()
	sort.SliceStable(rows, func(i, j int) bool {
		if short() {
			return false
		}
		for c, cond := range conds {
			cmp := orderCompare(key(rows[i], c), key(rows[j], c))
			if cmp == 0 {
				continue
			}
			if cond.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// sortRows orders full solutions, evaluating the conditions against
// them.
func (r *run) sortRows(rows []solution, conds []OrderCondition) {
	r.sortBy(rows, conds, func(row solution, c int) rdf.Term {
		v, _ := r.evalExpr(conds[c].Expr, row) // an error sorts lowest, as the zero term
		return v
	})
}

// orderCompare implements the SPARQL total order for ORDER BY over
// evaluated keys, the zero term standing for an error or unbound: those
// sort lowest, then by term order with numeric awareness.
func orderCompare(a, b rdf.Term) int {
	if a.IsZero() || b.IsZero() {
		return a.Compare(b) // the zero kind ranks below every other
	}
	if c, err := compareTerms(a, b); err == nil {
		return c
	}
	return a.Compare(b)
}

// Describe evaluates a DESCRIBE query: for each target resource (given
// directly or bound by the WHERE pattern) it returns the one-hop
// description — every triple with the resource as subject or object.
func (e *Engine) Describe(q *Query) ([]rdf.Triple, error) {
	return e.DescribeContext(context.Background(), q)
}

// DescribeContext is Describe under a context (see QueryContext for the
// cancellation semantics).
func (e *Engine) DescribeContext(ctx context.Context, q *Query) ([]rdf.Triple, error) {
	return e.graph(ctx, q, FormDescribe)
}

// describeInto describes q's constant targets into g at once and
// returns the add function that describes each variable target when the
// WHERE pipeline first binds it, so the graph grows chunk by chunk.
func (r *run) describeInto(g *rdf.Graph, q *Query) func(chunk []solution) {
	described := make(map[rdf.Term]struct{})
	describe := func(t rdf.Term) {
		if _, ok := described[t]; ok || t.IsZero() {
			return
		}
		described[t] = struct{}{}
		for _, tr := range r.snap.MatchAll(rdf.Term{}, t, rdf.Term{}, rdf.Term{}) {
			g.Add(tr)
		}
		for _, tr := range r.snap.MatchAll(rdf.Term{}, rdf.Term{}, rdf.Term{}, t) {
			g.Add(tr)
		}
	}
	var slots []int
	for _, d := range q.Describe {
		if d.IsVar {
			slots = append(slots, r.vt.slot(d.Var))
		} else {
			describe(d.Term)
		}
	}
	return func(chunk []solution) {
		for _, row := range chunk {
			for _, idx := range slots {
				describe(row[idx])
			}
		}
	}
}
