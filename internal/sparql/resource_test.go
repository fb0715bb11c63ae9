package sparql

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestAccountingPreservesResults runs the operator corpus with
// accounting off, accounting on (tracker attached), and accounting on
// with a generous budget, and requires identical result tables
// everywhere. Accounting is observation only — it must never change
// what a query returns.
func TestAccountingPreservesResults(t *testing.T) {
	st := operatorFixture(800)
	plain := NewEngine(st)
	tracked := NewEngine(st, WithResources(obs.NewResourceTracker()))
	budgeted := NewEngine(st, WithResources(obs.NewResourceTracker()), WithMaxQueryMem(1<<30))
	for _, q := range operatorQueries {
		want, err := plain.QueryString(q)
		if err != nil {
			t.Fatalf("plain: %v", err)
		}
		for name, e := range map[string]*Engine{"tracked": tracked, "budgeted": budgeted} {
			got, err := e.QueryString(q)
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, q)
			}
			if !reflect.DeepEqual(want.Rows, got.Rows) {
				t.Errorf("%s changed results for:\n%s", name, q)
			}
		}
	}
}

// TestAccountingCounts checks that an accounted query actually
// accumulates rows and bytes, and that the tracker's books balance to
// zero after the account closes.
func TestAccountingCounts(t *testing.T) {
	st := operatorFixture(400)
	tr := obs.NewResourceTracker()
	e := NewEngine(st, WithResources(tr))
	acct := obs.NewQueryAcct(tr, 0)
	ctx := WithQueryAcct(context.Background(), acct)
	res, err := e.QueryStringContext(ctx,
		`SELECT ?s ?v WHERE { ?s <http://ex/type> <http://ex/Item> ; <http://ex/value> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 400 {
		t.Fatalf("rows = %d, want 400", res.Len())
	}
	if acct.Rows() < int64(res.Len()) {
		t.Errorf("account rows = %d, want >= %d (final result must be charged)", acct.Rows(), res.Len())
	}
	if acct.Bytes() == 0 || acct.Peak() == 0 {
		t.Errorf("bytes = %d, peak = %d, want > 0", acct.Bytes(), acct.Peak())
	}
	if acct.Inflight() == 0 {
		t.Error("final result should still be in flight before Finish")
	}
	acct.Finish()
	if tr.Inflight() != 0 {
		t.Errorf("tracker inflight = %d after finish, want 0", tr.Inflight())
	}
	if tr.HighWater() < acct.Peak() {
		t.Errorf("tracker high water %d < query peak %d", tr.HighWater(), acct.Peak())
	}
}

// TestAccountingChargesGroupsNotRows pins what GROUP BY holds: folding
// 400 two-pattern rows into 13 groups charges the pipeline's chunks,
// the 13 groups and the 13 result rows — each input row is counted
// once, by the stage that produced it, and nothing per row is retained
// — and once the result exists only it stays in flight.
func TestAccountingChargesGroupsNotRows(t *testing.T) {
	st := operatorFixture(400)
	const where = `WHERE { ?s <http://ex/group> ?g ; <http://ex/value> ?v }`
	run := func(query string) *obs.QueryAcct {
		t.Helper()
		acct := obs.NewQueryAcct(nil, 0)
		ctx := WithQueryAcct(context.Background(), acct)
		if _, err := NewEngine(st).QueryStringContext(ctx, query); err != nil {
			t.Fatal(err)
		}
		return acct
	}
	plain := run(`SELECT ?g ?v ` + where)
	grouped := run(`SELECT ?g (SUM(?v) AS ?t) (COUNT(DISTINCT ?v) AS ?d) ` + where + ` GROUP BY ?g`)
	// The ungrouped query charges the same pipeline plus 400 projected
	// and 400 collected rows; the grouped one 13 groups, 13 result rows
	// and their 13 collected copies.
	if got, want := grouped.Rows(), plain.Rows()-2*400+3*13; got != want {
		t.Errorf("grouped query charged %d rows, want %d (pipeline + 13 groups + 2 × 13 result rows)", got, want)
	}
	if grouped.Peak() >= plain.Peak() {
		t.Errorf("grouped peak %d not below the ungrouped query's %d", grouped.Peak(), plain.Peak())
	}
	// Groups are released when the result rows exist: 13 rows of three
	// columns, charged by the fold and again by the collector, are all
	// that is still held.
	if in := grouped.Inflight(); in <= 0 || in > 2*13*(solutionHeaderBytes+3*(termStructBytes+64)) {
		t.Errorf("in flight after the grouped query = %d bytes, want just the 13 result rows", in)
	}
}

// TestMemLimitError checks that a tiny budget aborts evaluation with
// the typed error and that the over-budget query is counted on the
// tracker.
func TestMemLimitError(t *testing.T) {
	st := operatorFixture(800)
	tr := obs.NewResourceTracker()
	e := NewEngine(st, WithResources(tr), WithMaxQueryMem(512))
	_, err := e.QueryString(
		`SELECT ?s ?v WHERE { ?s <http://ex/type> <http://ex/Item> ; <http://ex/value> ?v }`)
	var mle *MemLimitError
	if !errors.As(err, &mle) {
		t.Fatalf("err = %v, want *MemLimitError", err)
	}
	if mle.Limit != 512 || mle.Peak <= 512 || mle.Rows == 0 {
		t.Errorf("error fields %+v", mle)
	}
	if !strings.Contains(mle.Error(), "memory budget") {
		t.Errorf("message %q", mle.Error())
	}
	if tr.OverMem() != 1 {
		t.Errorf("tracker overMem = %d, want 1", tr.OverMem())
	}
	if tr.Inflight() != 0 {
		t.Errorf("tracker inflight = %d after abort, want 0", tr.Inflight())
	}
}

// TestMemLimitUnderBudget checks a budget well above the query's needs
// changes nothing.
func TestMemLimitUnderBudget(t *testing.T) {
	st := operatorFixture(100)
	e := NewEngine(st, WithMaxQueryMem(1<<30))
	res, err := e.QueryString(`SELECT ?s WHERE { ?s <http://ex/type> <http://ex/Item> }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("rows = %d, want 100", res.Len())
	}
}

// TestTraceMemAnnotations checks the rendered trace carries the mem:
// summary line and per-operator mem= annotations, while the Outline
// (the golden surface) stays free of them.
func TestTraceMemAnnotations(t *testing.T) {
	st := operatorFixture(400)
	e := NewEngine(st)
	_, tr, err := e.QueryTracedString(
		`SELECT ?s ?v WHERE { ?s <http://ex/type> <http://ex/Item> ; <http://ex/value> ?v FILTER(?v > 40) }`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows == 0 || tr.Bytes == 0 || tr.PeakBytes == 0 {
		t.Fatalf("trace totals not set: rows=%d bytes=%d peak=%d", tr.Rows, tr.Bytes, tr.PeakBytes)
	}
	rendered := tr.Render()
	if !strings.Contains(rendered, "mem: rows=") {
		t.Errorf("Render missing mem summary:\n%s", rendered)
	}
	if !strings.Contains(rendered, " mem=") {
		t.Errorf("Render missing per-operator mem=:\n%s", rendered)
	}
	outline := tr.Outline()
	if strings.Contains(outline, "mem") {
		t.Errorf("Outline must stay mem-free for goldens:\n%s", outline)
	}

	// The AGGREGATE span reports what ran: every WHERE row folded in, the
	// groups out, and as mem= the bytes of the groups — far
	// less than the rows that fed them.
	_, tr, err = e.QueryTracedString(
		`SELECT ?g (SUM(?v) AS ?t) WHERE { ?s <http://ex/group> ?g ; <http://ex/value> ?v } GROUP BY ?g HAVING (SUM(?v) > 0)`)
	if err != nil {
		t.Fatal(err)
	}
	var agg, bgp *obs.Span
	tr.Root.Visit(func(sp *obs.Span) {
		switch sp.Op {
		case "AGGREGATE":
			agg = sp
		case "BGP":
			bgp = sp
		}
	})
	if agg == nil || bgp == nil {
		t.Fatalf("no AGGREGATE/BGP span:\n%s", tr.Render())
	}
	if agg.In != 400 || agg.Out != 13 || agg.Est != 20 || agg.Detail != "13 groups" {
		t.Errorf("AGGREGATE span in=%d out=%d est=%d detail=%q, want 400/13/20/13 groups",
			agg.In, agg.Out, agg.Est, agg.Detail)
	}
	if agg.Mem == 0 || agg.Mem*4 > bgp.Mem {
		t.Errorf("AGGREGATE mem = %d bytes against the BGP's %d: groups should be charged, not rows", agg.Mem, bgp.Mem)
	}
	if agg.Wall <= 0 {
		t.Errorf("AGGREGATE self time = %v, want > 0", agg.Wall)
	}
}

// TestContextAcctAdopted checks the engine adopts a context-injected
// account instead of opening its own, and leaves Finish to the opener.
func TestContextAcctAdopted(t *testing.T) {
	st := operatorFixture(100)
	tr := obs.NewResourceTracker()
	e := NewEngine(st, WithResources(tr))
	acct := obs.NewQueryAcct(tr, 0)
	ctx := WithQueryAcct(context.Background(), acct)
	if _, err := e.QueryStringContext(ctx, `SELECT ?s WHERE { ?s <http://ex/type> <http://ex/Item> }`); err != nil {
		t.Fatal(err)
	}
	if acct.Rows() == 0 {
		t.Fatal("context account saw no accounting — engine opened its own?")
	}
	if tr.Queries() != 0 {
		t.Fatalf("engine finished the caller's account: queries = %d", tr.Queries())
	}
	acct.Finish()
	if tr.Queries() != 1 {
		t.Fatalf("queries = %d after caller finish, want 1", tr.Queries())
	}
}
