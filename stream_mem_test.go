package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// maryDirect prepares the paper's Mary query and returns its direct
// SPARQL translation — the memory-hungry form whose whole-table
// evaluation holds its 80k-row join intermediates at once
// (EXPERIMENTS.md A-resource).
func maryDirect(t *testing.T, env *demo.Enriched) string {
	t.Helper()
	src, err := os.ReadFile("queries/mary.ql")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ql.Prepare(string(src), env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return p.Translation.Direct
}

// wholeTable is a chunk size no intermediate reaches: every stage
// handles its entire input as one chunk through the ordinary pipeline
// code, the reference arm for what chunking saves.
const wholeTable = 1 << 30

// peakFor evaluates the query — traced or not — on an engine with a
// fresh account attached and reports the peak in-flight bytes it
// charged.
func peakFor(t *testing.T, env *demo.Enriched, query string, traced bool, opts ...sparql.Option) int64 {
	t.Helper()
	e := sparql.NewEngine(env.Store, opts...)
	q, err := sparql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	acct := obs.NewQueryAcct(nil, 0)
	ctx := sparql.WithQueryAcct(context.Background(), acct)
	var res *sparql.Results
	if traced {
		res, _, err = e.QueryTracedContext(ctx, q)
	} else {
		res, err = e.QueryContext(ctx, q)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("empty result — the fixture or translation changed")
	}
	acct.Finish()
	return acct.Peak()
}

// TestStreamingBoundsMaryPeak is the pipeline's memory acceptance gate:
// at the default chunk size the direct Mary translation must hold at
// most 1/5 of the whole-table arm's peak in-flight bytes — the
// pipeline's footprint is stages × chunks plus the final table, not the
// 80k-row intermediate join. The bound holds traced and untraced alike:
// a traced query runs the same pipeline. Both arms run in written order
// (planner off), which joins every observation before the DICE filters:
// planned, the DICE enters the star as semi-join sets and no
// intermediate is large enough to tell the arms apart (DESIGN §12).
func TestStreamingBoundsMaryPeak(t *testing.T) {
	obsCount := 80000
	minShrink := int64(5)
	if testing.Short() {
		// On the small cube the planned spine is ~1.1k rows — barely
		// more than one chunk — so the two arms nearly coincide; the
		// smoke-level tripwire is only that chunking never holds more.
		obsCount = 5000
		minShrink = 1
	}
	env, err := demo.Build(configFor(obsCount))
	if err != nil {
		t.Fatal(err)
	}
	query := maryDirect(t, env)

	wholePeak := peakFor(t, env, query, false, sparql.WithChunkSize(wholeTable), sparql.WithPlanner(false))
	for _, traced := range []bool{false, true} {
		peak := peakFor(t, env, query, traced, sparql.WithChunkSize(1024), sparql.WithPlanner(false))
		t.Logf("obs=%d traced=%v: whole-table peak %.1f MB, chunked peak %.1f MB (%.1fx)",
			obsCount, traced, float64(wholePeak)/1e6, float64(peak)/1e6,
			float64(wholePeak)/float64(peak))
		if peak*minShrink > wholePeak {
			t.Errorf("traced=%v: chunked peak %d not at least %dx below whole-table peak %d",
				traced, peak, minShrink, wholePeak)
		}
	}
}

// TestStreamingFitsUnderBudget encodes the same bound as an admission
// decision: a per-query budget far below the whole-table peak must
// reject the whole-table arm with a typed *MemLimitError and admit the
// default-chunk run of the same query, traced or not. This is the
// -max-query-mem contract the pipeline was built to honor. Like
// TestStreamingBoundsMaryPeak it runs the query in written order.
func TestStreamingFitsUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the 80k fixture for a meaningful budget gap")
	}
	env, err := demo.Build(configFor(80000))
	if err != nil {
		t.Fatal(err)
	}
	query := maryDirect(t, env)
	const budget = 8 << 20 // between the chunked (~2.2 MB) and whole-table (~100 MB) peaks

	whole := sparql.NewEngine(env.Store, sparql.WithChunkSize(wholeTable), sparql.WithMaxQueryMem(budget), sparql.WithPlanner(false))
	_, err = whole.QueryString(query)
	var mle *sparql.MemLimitError
	if !errors.As(err, &mle) {
		t.Fatalf("whole-table run under %d-byte budget: err = %v, want *MemLimitError", int64(budget), err)
	}

	str := sparql.NewEngine(env.Store, sparql.WithChunkSize(1024), sparql.WithMaxQueryMem(budget), sparql.WithPlanner(false))
	res, err := str.QueryString(query)
	if err != nil {
		t.Fatalf("chunked run under the same budget: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("chunked run returned no rows")
	}
	if _, _, err := str.QueryTracedString(query); err != nil {
		t.Fatalf("traced chunked run under the same budget: %v", err)
	}
}

// TestGroupedQueriesFitSmallBudget is the fold's admission contract: a
// grouped query holds its groups, not its input, so all six predefined
// QL queries in both translations — each a GROUP BY over up to 20k
// observations, the alternative one twice — run under a 4 MB budget,
// traced or not (the twelve WHERE streams are 1.2 × 10⁵ rows, ≈ 15 MB
// if retained). Sorting does need every row: the WHERE of continent-year's
// aggregating sub-select under an ungrouped ORDER BY is rejected.
func TestGroupedQueriesFitSmallBudget(t *testing.T) {
	env, err := demo.Build(configFor(20000))
	if err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store, sparql.WithMaxQueryMem(4<<20))
	for _, pq := range demo.PredefinedQueries {
		p, err := ql.Prepare(pq.QL, env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for variant, text := range map[string]string{"direct": p.Translation.Direct, "alternative": p.Translation.Alternative} {
			res, err := eng.QueryString(text)
			if err != nil {
				t.Errorf("%s/%s: %v", pq.Name, variant, err)
				continue
			}
			if res.Len() == 0 {
				t.Errorf("%s/%s: empty result", pq.Name, variant)
			}
			traced, tr, err := eng.QueryTracedString(text)
			if err != nil {
				t.Errorf("%s/%s traced: %v", pq.Name, variant, err)
				continue
			}
			if !reflect.DeepEqual(res, traced) {
				t.Errorf("%s/%s: traced result differs", pq.Name, variant)
			}
			if tr.PeakBytes == 0 || tr.PeakBytes > 4<<20 {
				t.Errorf("%s/%s: traced peak = %d bytes, want within the 4 MB budget", pq.Name, variant, tr.PeakBytes)
			}
		}
	}

	pq, _ := demo.FindPredefinedQuery("continent-year")
	p, err := ql.Prepare(pq.QL, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	q, outer := aggregatingSubSelect(t, p.Translation.Direct)
	if len(q.GroupBy) == 0 || len(outer.OrderBy) == 0 {
		t.Fatal("continent-year's direct translation is no longer a GROUP BY sub-select under ORDER BY")
	}
	q.GroupBy, q.Having, q.Projection, q.Star, q.OrderBy = nil, nil, nil, true, outer.OrderBy
	_, err = eng.Query(q)
	var mle *sparql.MemLimitError
	if !errors.As(err, &mle) {
		t.Errorf("ungrouped ORDER BY over the same WHERE: err = %v, want *MemLimitError", err)
	}
}

// TestOLAPQueryAllocatesOneChunkOfRows is the allocation guard of chunk
// ownership and return (DESIGN §16): the direct translation of
// continent-year sends every observation through a seven-pattern star
// into the GROUP BY of its aggregating sub-select; two label OPTIONALs
// then run per group. Every later join level and the fold extend,
// compact or read the row the BGP's fan-out level builds, and the fold
// hands each chunk back for that level to build the next one in, so
// what a query allocates is one chunk of rows — at chunk
// size 256 over 2k observations, an eighth of them — plus parse, plan,
// the groups and a constant. The bound is 0.4 × observations × row bytes,
// a row being one rdf.Term slot per variable of the query; this query
// takes 0.16 (0.21 while the label OPTIONALs ran per observation), one
// fresh row per observation (PRs 21–23) took 1.19, and cloning per stage
// (before PR 21) 3.5.
func TestOLAPQueryAllocatesOneChunkOfRows(t *testing.T) {
	env, err := demo.Build(configFor(2000))
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := demo.FindPredefinedQuery("continent-year")
	p, err := ql.Prepare(pq.QL, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.ParseQuery(p.Translation.Direct)
	if err != nil {
		t.Fatal(err)
	}
	width := map[string]bool{}
	for _, v := range regexp.MustCompile(`\?\w+`).FindAllString(p.Translation.Direct, -1) {
		width[v] = true
	}
	eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(256))
	cnt, err := eng.QueryString(`SELECT ?o WHERE { ?o a <http://purl.org/linked-data/cube#Observation> }`)
	if err != nil || cnt.Len() < 1500 {
		t.Fatalf("counting observations: %d rows, err %v", cnt.Len(), err)
	}
	rowBytes := uint64(cnt.Len()) * uint64(len(width)) * uint64(unsafe.Sizeof(rdf.Term{})) // one row per observation
	budget := rowBytes * 2 / 5

	const runs = 10
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 { // the first run warms the snapshot's lazily built state
			runtime.ReadMemStats(&before)
		}
		if res, err := eng.Select(q); err != nil || res.Len() == 0 {
			t.Fatalf("continent-year/direct: %d cells, err %v", res.Len(), err)
		}
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per query: %.2f rows per observation", perQuery, float64(perQuery)/float64(rowBytes))
	if perQuery > budget {
		t.Errorf("continent-year/direct over %d observations × %d variables allocates %d bytes per query, want at most %d (0.4 rows per observation)",
			cnt.Len(), len(width), perQuery, budget)
	}
}

// TestTracedQueryFitsSameBudget pins the bug the single evaluator
// fixed: a traced (EXPLAIN ANALYZE, ?explain=1, sampled) query used to
// run a separate fully materialized evaluator, so under -max-query-mem
// 40MB the sampled twin of an admitted Mary query was rejected. Traced
// and untraced runs must both fit the budget and return equal results.
func TestTracedQueryFitsSameBudget(t *testing.T) {
	obsCount := 80000
	if testing.Short() {
		obsCount = 5000
	}
	env, err := demo.Build(configFor(obsCount))
	if err != nil {
		t.Fatal(err)
	}
	query := maryDirect(t, env)
	eng := sparql.NewEngine(env.Store, sparql.WithMaxQueryMem(40<<20))
	plain, err := eng.QueryString(query)
	if err != nil {
		t.Fatalf("untraced: %v", err)
	}
	traced, tr, err := eng.QueryTracedString(query)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if plain.Len() == 0 || !reflect.DeepEqual(plain, traced) {
		t.Errorf("traced results differ from untraced (%d vs %d rows)", traced.Len(), plain.Len())
	}
	if tr.PeakBytes == 0 || tr.PeakBytes > 40<<20 {
		t.Errorf("traced peak = %d bytes, want within the 40 MB budget", tr.PeakBytes)
	}
}

// TestConcurrentStreamingUnderBudget runs concurrent streamed clients
// against a shared tracker, each under a per-query budget whole-table
// evaluation cannot meet, and checks they all complete. This is
// the test-shaped version of BenchmarkConcurrentQuery's 64-client
// configuration: admission no longer has to choose between rejecting
// the Mary query and letting 64 × 182 MB pile up.
func TestConcurrentStreamingUnderBudget(t *testing.T) {
	obsCount := 80000
	clients := 16
	if testing.Short() {
		obsCount = 5000
		clients = 4
	}
	env, err := demo.Build(configFor(obsCount))
	if err != nil {
		t.Fatal(err)
	}
	query := maryDirect(t, env)
	tr := obs.NewResourceTracker()
	e := sparql.NewEngine(env.Store,
		sparql.WithChunkSize(1024),
		sparql.WithResources(tr),
		sparql.WithMaxQueryMem(40<<20))

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.QueryString(query)
			if err != nil {
				errs <- err
				return
			}
			if res.Len() == 0 {
				errs <- fmt.Errorf("empty result")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent streamed client: %v", err)
	}
	if tr.Inflight() != 0 {
		t.Errorf("tracker inflight = %d after all queries finished, want 0", tr.Inflight())
	}
	t.Logf("%d clients, process high water %.1f MB", clients, float64(tr.HighWater())/1e6)
}

// TestSemiJoinSetChargedToBudget: a semi-join set lives as long as its
// query, so its members are charged like DISTINCT's seen set (DESIGN
// §12): an EXISTS whose set holds every observation of the 20k cube
// trips, with the typed error, traced or not, a budget half again the
// peak of the same query without it.
func TestSemiJoinSetChargedToBudget(t *testing.T) {
	env, err := demo.Build(configFor(20000))
	if err != nil {
		t.Fatal(err)
	}
	const plain = `PREFIX qb: <http://purl.org/linked-data/cube#>
SELECT (COUNT(*) AS ?n) WHERE { ?o a qb:Observation }`
	const semi = `PREFIX qb: <http://purl.org/linked-data/cube#>
SELECT (COUNT(*) AS ?n) WHERE { ?o a qb:Observation FILTER EXISTS { ?o qb:dataSet ?d } }`
	budget := peakFor(t, env, plain, false) * 3 / 2
	eng := sparql.NewEngine(env.Store, sparql.WithMaxQueryMem(budget))
	if _, err := eng.QueryString(plain); err != nil {
		t.Fatalf("without the EXISTS under a %d-byte budget: %v", budget, err)
	}
	var mle *sparql.MemLimitError
	if _, err := eng.QueryString(semi); !errors.As(err, &mle) {
		t.Errorf("with the EXISTS under a %d-byte budget: err = %v, want *MemLimitError", budget, err)
	}
	if _, _, err := eng.QueryTracedString(semi); !errors.As(err, &mle) {
		t.Errorf("traced, with the EXISTS under a %d-byte budget: err = %v, want *MemLimitError", budget, err)
	}
}
