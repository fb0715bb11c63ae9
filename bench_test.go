// Package repro holds the repository-level benchmark harness: one
// benchmark per experiment of DESIGN.md's per-experiment index. The
// paper (an ICDE demo) publishes no numeric tables; these benchmarks
// regenerate the measurable artifacts behind its figures and claims —
// the enrichment workflow of Figure 2, the querying workflow of
// Figure 3, the direct-versus-alternative translation trade-off, and
// the scaling behaviour on the ≈80,000-observation demo subset.
// EXPERIMENTS.md records the measured outcomes.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/endpoint"
	"repro/internal/enrich"
	"repro/internal/eurostat"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// skipIfShort keeps the 80k-observation (demo-scale) fixtures out of
// short runs, so `go test -short -bench .` stays a quick smoke pass and
// the tier-1 loop never builds the big fixtures.
func skipIfShort(b *testing.B, obs int) {
	b.Helper()
	if testing.Short() && obs >= 80000 {
		b.Skipf("skipping %d-observation fixture in -short mode", obs)
	}
}

// ---------------------------------------------------------------------
// Shared fixtures: generated datasets and enriched cubes per scale,
// built once and reused across benchmarks.

var (
	fixtureMu sync.Mutex
	rawStores = map[int]*fixtureRaw{}
	enriched  = map[int]*demo.Enriched{}
)

type fixtureRaw struct {
	data *eurostat.Dataset
}

func configFor(obs int) eurostat.Config {
	cfg := eurostat.DefaultConfig()
	cfg.TargetObservations = obs
	return cfg
}

// rawDataset returns the generated (un-enriched) dataset for a scale.
func rawDataset(b *testing.B, obs int) *eurostat.Dataset {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := rawStores[obs]; ok {
		return f.data
	}
	d := eurostat.Generate(configFor(obs))
	rawStores[obs] = &fixtureRaw{data: d}
	return d
}

// enrichedEnv returns the fully enriched demo environment for a scale.
func enrichedEnv(b *testing.B, obs int) *demo.Enriched {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if e, ok := enriched[obs]; ok {
		return e
	}
	e, err := demo.Build(configFor(obs))
	if err != nil {
		b.Fatal(err)
	}
	enriched[obs] = e
	return e
}

const demoScale = 20000 // default per-op scale; the sweep covers 80k

// demoQuery is the paper's Section IV query.
const demoQuery = `
PREFIX data: <http://eurostat.linked-statistics.org/data/>
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
PREFIX property: <http://eurostat.linked-statistics.org/property#>
QUERY
$C1 := SLICE (data:migr_asyappctzm, schema:asyl_appDim);
$C2 := SLICE ($C1, schema:sexDim);
$C3 := SLICE ($C2, schema:ageDim);
$C4 := ROLLUP ($C3, schema:citizenDim, schema:continent);
$C5 := ROLLUP ($C4, schema:refPeriodDim, schema:year);
$C6 := DICE ($C5, (schema:citizenDim|schema:continent|schema:continentName = "Africa"));
$C7 := DICE ($C6, schema:geoDim|property:geo|schema:countryName = "France");
`

// ---------------------------------------------------------------------
// E2 / Figure 2 — the Enrichment module workflow.

// BenchmarkGeneration measures synthetic dataset generation (the
// substitute for downloading the Eurostat linked data subset).
func BenchmarkGeneration(b *testing.B) {
	for _, obs := range []int{1000, 5000, 20000, 80000} {
		b.Run(fmt.Sprintf("obs=%d", obs), func(b *testing.B) {
			skipIfShort(b, obs)
			for i := 0; i < b.N; i++ {
				d := eurostat.Generate(configFor(obs))
				if len(d.Observations) == 0 {
					b.Fatal("no observations")
				}
			}
		})
	}
}

// BenchmarkLoad measures bulk-loading the generated triples into the
// store (the "QB data set loaded into the endpoint" step).
func BenchmarkLoad(b *testing.B) {
	for _, obs := range []int{5000, 20000, 80000} {
		if testing.Short() && obs >= 80000 {
			continue
		}
		d := rawDataset(b, obs)
		b.Run(fmt.Sprintf("obs=%d", obs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := newEmptyStore()
				loadDataset(st, d)
			}
		})
	}
}

// BenchmarkRedefinition measures the Redefinition phase: loading the QB
// DSD and producing the QB4OLAP skeleton.
func BenchmarkRedefinition(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enrich.NewSession(env.Client, eurostat.DSDIRI, enrich.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDDiscovery measures candidate discovery (the FD scan) on
// the citizenship level.
func BenchmarkFDDiscovery(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	sess, err := enrich.NewSession(env.Client, eurostat.DSDIRI, enrich.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := sess.Suggest(eurostat.PropCitizen)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := enrich.FindCandidate(cands, eurostat.PropContinent); !ok {
			b.Fatal("continent not found")
		}
	}
}

// BenchmarkQuasiFDSweep (C5) measures discovery across noise rates,
// with the threshold opened up so the quasi-FD is still accepted.
func BenchmarkQuasiFDSweep(b *testing.B) {
	for _, noise := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		b.Run(fmt.Sprintf("noise=%.2f", noise), func(b *testing.B) {
			cfg := configFor(5000)
			cfg.QuasiFDNoise = noise
			st, _ := eurostat.NewStore(cfg)
			client := endpoint.NewLocal(st)
			opts := enrich.DefaultOptions()
			opts.QuasiFDThreshold = 0.2
			sess, err := enrich.NewSession(client, eurostat.DSDIRI, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, err := sess.Suggest(eurostat.PropCitizen)
				if err != nil {
					b.Fatal(err)
				}
				c, ok := enrich.FindCandidate(cands, eurostat.PropContinent)
				if !ok || c.Kind != enrich.LevelCandidate {
					b.Fatalf("continent not accepted at noise %.2f", noise)
				}
			}
		})
	}
}

// BenchmarkTripleGeneration measures the Triple Generation phase for
// the full demo enrichment.
func BenchmarkTripleGeneration(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schema, instances, err := env.Session.GenerateTriples()
		if err != nil {
			b.Fatal(err)
		}
		if len(schema) == 0 || len(instances) == 0 {
			b.Fatal("empty generation")
		}
	}
}

// BenchmarkEnrichmentPipeline measures the whole Figure 2 workflow:
// redefinition, iterative discovery and level addition, triple
// generation, and commit — on a fresh store each iteration.
func BenchmarkEnrichmentPipeline(b *testing.B) {
	for _, obs := range []int{5000, 20000, 80000} {
		if testing.Short() && obs >= 80000 {
			continue
		}
		d := rawDataset(b, obs)
		b.Run(fmt.Sprintf("obs=%d", obs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := newEmptyStore()
				loadDataset(st, d)
				client := endpoint.NewLocal(st)
				b.StartTimer()
				if _, err := demo.EnrichDataset(client); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E3 / Figure 3 — the Querying module workflow.

// BenchmarkQLParse measures QL parsing of the demo program.
func BenchmarkQLParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ql.Parse(demoQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQLSimplify measures analysis plus the Query Simplification
// phase.
func BenchmarkQLSimplify(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	prog, err := ql.Parse(demoQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := ql.Analyze(prog, env.Schema)
		if err != nil {
			b.Fatal(err)
		}
		if s := ql.Simplify(a); len(s.Statements) == 0 {
			b.Fatal("empty simplification")
		}
	}
}

// BenchmarkQLTranslate measures the Query Translation phase (both
// SPARQL variants).
func BenchmarkQLTranslate(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ql.Prepare(demoQuery, env.Schema)
		if err != nil {
			b.Fatal(err)
		}
		if p.Translation.Direct == "" || p.Translation.Alternative == "" {
			b.Fatal("missing translation")
		}
	}
}

// BenchmarkQLExecuteDirect measures the SPARQL Execution phase for the
// direct translation at demo scale.
func BenchmarkQLExecuteDirect(b *testing.B) {
	benchmarkExecute(b, ql.Direct)
}

// BenchmarkQLExecuteAlternative measures execution of the alternative
// translation at demo scale.
func BenchmarkQLExecuteAlternative(b *testing.B) {
	benchmarkExecute(b, ql.Alternative)
}

func benchmarkExecute(b *testing.B, v ql.Variant) {
	env := enrichedEnv(b, demoScale)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube, err := ql.Execute(env.Client, p.Translation, v)
		if err != nil {
			b.Fatal(err)
		}
		if len(cube.Cells) == 0 {
			b.Fatal("empty cube")
		}
	}
}

// BenchmarkBGPStar isolates the join core on the shape every generated
// query has: the nine-pattern BGP of the Mary query
// (testdata/explain_mary.golden) without its FILTERs, so all 20k
// observations cross every join level and nothing else — no grouping,
// no sort — runs. Planned, it is five levels, three of them stars
// (DESIGN §16): the time roll-up rooted at ?m3_0 quarter ?m3_1 with
// its year member, ?o refPeriod ?m3_0 rooting ?o's citizen member, the
// continent join, then a star on the ?o those bind (dataSet, obsValue,
// geo), and the country name. Rows are streamed and counted. The
// consumer is the projection, which returns every chunk to the pipeline
// once it has built its own rows (DESIGN §16), so what is left per
// observation is the projected row: 7.55 MB/op and 21 354 allocs/op,
// where a fresh pipeline row per observation on top took 18.35 MB and
// 40 599 before chunks were returned (A-chunk-return). The rooted star
// took it from 57.0 to 45.6 ms (-benchtime 20x, median of three
// alternating runs, 2 cores; A-rooted-star).
func BenchmarkBGPStar(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	q, err := sparql.ParseQuery(`
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
PREFIX property: <http://eurostat.linked-statistics.org/property#>
PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
PREFIX sdmx-dimension: <http://purl.org/linked-data/sdmx/2009/dimension#>
SELECT ?m1_1 ?m2_0 ?m3_2 ?a2_countryName ?v1 WHERE {
  ?m1_0 schema:continent ?m1_1 .
  ?o property:citizen ?m1_0 .
  ?o qb:dataSet <http://eurostat.linked-statistics.org/data/migr_asyappctzm> .
  ?o sdmx-measure:obsValue ?v1 .
  ?o property:geo ?m2_0 .
  ?o sdmx-dimension:refPeriod ?m3_0 .
  ?m3_0 schema:quarter ?m3_1 .
  ?m3_1 schema:year ?m3_2 .
  ?m2_0 schema:countryName ?a2_countryName .
}`)
	if err != nil {
		b.Fatal(err)
	}
	e := sparql.NewEngine(env.Store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		err := e.StreamSelect(context.Background(), q,
			func([]string) error { return nil },
			func(chunk [][]rdf.Term) error { rows += len(chunk); return nil })
		if err != nil || rows < demoScale*9/10 {
			b.Fatalf("star streamed %d rows (err %v), want about %d", rows, err, demoScale)
		}
	}
}

// BenchmarkTermLookup names the cost the join core pays per bound
// position of every row at every level: resolving a term to its id
// (probe.match → Snapshot.Lookup). The terms are every binding of every
// row of the continent-year observation star — the WHERE of that
// query's aggregating sub-select, 20k rows of
// seven terms — looked up against the 20k cube's snapshot, one lookup
// per op, serially and from GOMAXPROCS goroutines at once as concurrent
// queries do (b.RunParallel). EXPERIMENTS.md A-lockfree-dict has both
// against the dictionary's read-locked map this replaced.
func BenchmarkTermLookup(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	q, err := sparql.ParseQuery(`
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
SELECT * WHERE {
  ?o qb:dataSet <http://eurostat.linked-statistics.org/data/migr_asyappctzm> .
  ?o <http://purl.org/linked-data/sdmx/2009/measure#obsValue> ?v1 .
  ?o <http://eurostat.linked-statistics.org/property#citizen> ?m1_0 .
  ?m1_0 schema:continent ?m1_1 .
  ?o <http://purl.org/linked-data/sdmx/2009/dimension#refPeriod> ?m2_0 .
  ?m2_0 schema:quarter ?m2_1 .
  ?m2_1 schema:year ?m2_2 .
}`)
	if err != nil {
		b.Fatal(err)
	}
	var terms []rdf.Term
	err = sparql.NewEngine(env.Store).StreamSelect(context.Background(), q,
		func([]string) error { return nil },
		func(chunk [][]rdf.Term) error {
			for _, row := range chunk {
				terms = append(terms, row...)
			}
			return nil
		})
	if err != nil || len(terms) < 7*demoScale*9/10 {
		b.Fatalf("star bound %d terms (err %v), want about %d", len(terms), err, 7*demoScale)
	}
	sn := env.Store.Snapshot()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := sn.Lookup(terms[i%len(terms)]); !ok {
				b.Fatalf("%v does not resolve", terms[i%len(terms)])
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if _, ok := sn.Lookup(terms[i%len(terms)]); !ok {
					b.Errorf("%v does not resolve", terms[i%len(terms)])
					return
				}
			}
		})
	})
}

// ---------------------------------------------------------------------
// A1 — direct versus alternative across dataset scales.

// BenchmarkDirectVsAlternative sweeps the observation count and runs
// both translations, exposing where (if anywhere) they cross over.
func BenchmarkDirectVsAlternative(b *testing.B) {
	for _, obs := range []int{1000, 5000, 20000, 80000} {
		if testing.Short() && obs >= 80000 {
			continue
		}
		env := enrichedEnv(b, obs)
		p, err := ql.Prepare(demoQuery, env.Schema)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []ql.Variant{ql.Direct, ql.Alternative} {
			b.Run(fmt.Sprintf("obs=%d/%s", obs, v), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ql.Execute(env.Client, p.Translation, v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPredefinedPrograms runs each of the six predefined QL
// programs (demo.PredefinedQueries) in both translations on the 20k
// cube: the twelve executions olap-20k (bench/) mixes, one
// sub-benchmark each, so a change to the translator or the planner
// shows per program and per arm (EXPERIMENTS.md A-labels-per-group).
func BenchmarkPredefinedPrograms(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	for _, pq := range demo.PredefinedQueries {
		p, err := ql.Prepare(pq.QL, env.Schema)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []ql.Variant{ql.Direct, ql.Alternative} {
			b.Run(pq.Name+"/"+v.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ql.Execute(env.Client, p.Translation, v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// A2 / A-planner — cost-based planner ablation.

// plannerModes are the two evaluation configurations the ablations
// compare: the cost-based planner (the default) and the written order
// (planner off). The off arm keeps the name planner=off/textual it had
// while a runtime greedy reorder also existed under planner=off, so
// `benchjson -compare` sees like-for-like history — and the
// bench-compare ablation gate, which pairs planner=on with planner=off,
// does not gate against the adversarial worst case.
var plannerModes = []struct {
	name   string
	engine func(st *store.Store) *sparql.Engine
}{
	{"planner=on", func(st *store.Store) *sparql.Engine {
		return sparql.NewEngine(st)
	}},
	{"planner=off/textual", func(st *store.Store) *sparql.Engine {
		return sparql.NewEngine(st, sparql.WithPlanner(false))
	}},
}

// BenchmarkPlannerAblation runs the direct demo query under each
// planner mode. The generated query is already well ordered, so this is
// the no-regression side of the ablation: planner=on must not lose to
// the written order.
func BenchmarkPlannerAblation(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sparql.ParseQuery(p.Translation.Direct)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range plannerModes {
		b.Run(mode.name, func(b *testing.B) {
			eng := mode.engine(env.Store)
			for i := 0; i < b.N; i++ {
				res, err := eng.Select(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkPlannerAblationAdversarial reverses the generated query's
// basic graph pattern so the textual order starts from the small
// disconnected dimension patterns. Textual evaluation forces cartesian
// intermediate results; the cost-based planner recovers the order. A
// small dataset keeps the textual case tractable.
func BenchmarkPlannerAblationAdversarial(b *testing.B) {
	env := enrichedEnv(b, 2000)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	adversarial := reverseBGP(p.Translation.Direct)
	q, err := sparql.ParseQuery(adversarial)
	if err != nil {
		b.Fatalf("%v\n%s", err, adversarial)
	}
	for _, mode := range plannerModes {
		b.Run(mode.name, func(b *testing.B) {
			eng := mode.engine(env.Store)
			for i := 0; i < b.N; i++ {
				res, err := eng.Select(q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkPlannerOnOff is the end-to-end planner gate: the full QL
// execution path with the planner on (translation auto-selected by
// estimated cost, joins pre-ordered, filters pushed) versus off (the
// direct translation evaluated as written).
// bench-compare's ablation mode pins planner=on to within the
// threshold of planner=off.
func BenchmarkPlannerOnOff(b *testing.B) {
	for _, obs := range []int{demoScale, 80000} {
		skipIfShort(b, obs)
		env := enrichedEnv(b, obs)
		for _, mode := range []struct {
			name string
			on   bool
			v    ql.Variant
		}{{"planner=on", true, ql.Auto}, {"planner=off", false, ql.Direct}} {
			b.Run(fmt.Sprintf("obs=%d/%s", obs, mode.name), func(b *testing.B) {
				client := endpoint.NewLocal(env.Store, sparql.WithPlanner(mode.on))
				p, err := ql.Prepare(demoQuery, env.Schema)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cube, err := ql.Execute(client, p.Translation, mode.v)
					if err != nil {
						b.Fatal(err)
					}
					if len(cube.Cells) == 0 {
						b.Fatal("empty cube")
					}
				}
			})
		}
	}
}

// reverseBGP reverses the triple-pattern lines of the first WHERE block
// of a generated query, leaving everything else in place.
func reverseBGP(query string) string {
	lines := strings.Split(query, "\n")
	start, end := -1, -1
	for i, l := range lines {
		if start < 0 && strings.HasSuffix(l, "WHERE {") {
			start = i + 1
			continue
		}
		if start >= 0 {
			t := strings.TrimSpace(l)
			if strings.HasPrefix(t, "?") && strings.HasSuffix(t, ".") {
				end = i
				continue
			}
			break
		}
	}
	if start < 0 || end < start {
		return query
	}
	for i, j := start, end; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	return strings.Join(lines, "\n")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks: store and SPARQL engine.

// BenchmarkStoreLoadTriples measures raw triple ingestion.
func BenchmarkStoreLoadTriples(b *testing.B) {
	d := rawDataset(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newEmptyStore()
		loadDataset(st, d)
	}
}

// BenchmarkStorePublish pins the store's publish kernel: the first
// Snapshot after a write burst, which sorts the pending delta and merges
// it into fresh orderings. Only that call is timed. The three cases are
// the refresh-20k cycle (2 250 triples onto the 20k-observation cube,
// about 180k triples), a bulk load (empty base, where the sorted delta
// becomes the ordering) and a delete burst of the same size.
func BenchmarkStorePublish(b *testing.B) {
	d := rawDataset(b, 20000)
	burst := make([]rdf.Triple, 2250)
	for i := range burst {
		burst[i] = rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://example.org/new/obs%d", i/9)),
			rdf.NewIRI(fmt.Sprintf("http://example.org/new/p%d", i%9)),
			rdf.NewInteger(int64(i)))
	}
	loaded := func() *store.Store {
		st := newEmptyStore()
		loadDataset(st, d)
		st.Snapshot()
		return st
	}
	remove := func(st *store.Store) {
		st.Batch(func(w *store.Batch) {
			for _, t := range burst {
				w.Delete(rdf.NewQuad(t.S, t.P, t.O, rdf.Term{}))
			}
		})
	}
	// run times the Snapshot that publishes what write did; undo (also
	// published, untimed) restores the base for the next iteration.
	run := func(b *testing.B, st *store.Store, write, undo func(*store.Store)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			write(st)
			b.StartTimer()
			st.Snapshot()
			b.StopTimer()
			undo(st)
			st.Snapshot()
			b.StartTimer()
		}
	}
	insert := func(st *store.Store) { st.InsertTriples(rdf.Term{}, burst) }
	b.Run("base=180k/insert=2250", func(b *testing.B) { run(b, loaded(), insert, remove) })
	b.Run("base=180k/delete=2250", func(b *testing.B) {
		st := loaded()
		insert(st)
		st.Snapshot()
		run(b, st, remove, insert)
	})
	b.Run("base=0/insert=180k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := newEmptyStore()
			loadDataset(st, d)
			b.StartTimer()
			st.Snapshot()
		}
	})
}

// BenchmarkSPARQLGroupBy measures a flat aggregation over all
// observations (no hierarchy navigation), isolating GROUP BY cost.
func BenchmarkSPARQLGroupBy(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	query := `
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX property: <http://eurostat.linked-statistics.org/property#>
PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
SELECT ?c (SUM(?v) AS ?total) WHERE {
  ?o qb:dataSet <http://eurostat.linked-statistics.org/data/migr_asyappctzm> ;
     property:citizen ?c ;
     sdmx-measure:obsValue ?v .
} GROUP BY ?c`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := env.Client.Select(query)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkGroupFold measures the shape every QL program ends in: the
// direct translation of the predefined continent-year query, whose
// observation star sends all 20k observations through two roll-up
// joins into the GROUP BY of its aggregating sub-select, some twenty
// cells, which two label OPTIONALs then join.
// What the grouping stage holds is per group, not per row, so B/op here
// is the WHERE stream's rows plus a constant (EXPERIMENTS.md
// A-accumulate) — and since PR 24 the WHERE stream's rows are one chunk,
// which the fold hands back for the BGP to build the next in: 0.95 MB/op
// and 2 341 allocs/op, where one fresh row per observation (PR 21,
// A-own-chunks) took 15.41 MB and 21 597 and cloning through every
// OPTIONAL 50.10 MB and 62 147 (A-chunk-return). It reads 33.0 ms/op
// (-benchtime 20x, median of three, 2 cores), 40.9 ms while every
// lookup took the dictionary's read lock (A-lockfree-dict). Walking the
// observation star once per row took it from 59.6 to 40.5 ms and from
// 2 021 to 1 708 allocs/op on a host about 1.7× slower (A-star-walk);
// starting the star at the pattern that binds ?o, from 44.2 to 38.2 ms
// and 1 705 to 1 480 allocs/op (A-rooted-star). Joining the labels per
// cell, where every observation row crossed them before, took it from
// 19.9 to 13.2 ms and 0.92 to 0.67 MB/op (A-labels-per-group).
func BenchmarkGroupFold(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	pq, ok := demo.FindPredefinedQuery("continent-year")
	if !ok {
		b.Fatal("no predefined continent-year query")
	}
	p, err := ql.Prepare(pq.QL, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	q, err := sparql.ParseQuery(p.Translation.Direct)
	if err != nil {
		b.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Select(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkOLAPFloor measures how far the engine is from the floor of
// its own storage layout (ROADMAP item 4(a)): continent-year and Mary
// written by hand in Go against Snapshot.Range and ids — no SPARQL, no
// rows, no term decoded but the measure — beside their direct
// translations run by the engine on the same store (engine). The floor
// reads each roll-up step, Range(*, p, *), into an ID → ID table once
// per query, walks the observations — the dataset's POS run for
// continent-year; for Mary the observations whose geo is the country
// named France, keeping those whose citizen's continent is named
// Africa — reading each observation's SPO run once, sums the measure per
// cell, and looks up the label of every member of every cell. Both arms
// must agree on the number of cells and on their total. engine ÷ floor
// is the headroom left to any join kernel (EXPERIMENTS.md A-star-walk,
// A-rooted-star).
func BenchmarkOLAPFloor(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	snap := env.Store.Snapshot()
	id := func(iri string) store.ID {
		v, ok := snap.Lookup(rdf.NewIRI(iri))
		if !ok {
			b.Fatalf("%s is not in the store", iri)
		}
		return v
	}
	const (
		schema   = "http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#"
		property = "http://eurostat.linked-statistics.org/property#"
	)
	dataSet, ds := id("http://purl.org/linked-data/cube#dataSet"), id("http://eurostat.linked-statistics.org/data/migr_asyappctzm")
	obsValue := id("http://purl.org/linked-data/sdmx/2009/measure#obsValue")
	citizen, geo := id(property+"citizen"), id(property+"geo")
	refPeriod := id("http://purl.org/linked-data/sdmx/2009/dimension#refPeriod")
	continent, quarter, year := id(schema+"continent"), id(schema+"quarter"), id(schema+"year")
	continentName, countryName := id(schema+"continentName"), id(schema+"countryName")
	label := id("http://www.w3.org/2000/01/rdf-schema#label")

	// edges reads the roll-up step p into an ID → ID table.
	edges := func(p store.ID) map[store.ID]store.ID {
		m := make(map[store.ID]store.ID)
		for _, t := range snap.Range(store.NoID, store.IDTriple{P: p}) {
			m[t.S] = t.O
		}
		return m
	}
	// named returns the members whose attribute p reads name.
	named := func(p store.ID, name string) map[store.ID]bool {
		m := make(map[store.ID]bool)
		for _, t := range snap.Range(store.NoID, store.IDTriple{P: p}) {
			if snap.Term(t.O).Value == name {
				m[t.S] = true
			}
		}
		return m
	}
	floor := func(mary bool) (cells int, total float64) {
		cont, quart, yr := edges(continent), edges(quarter), edges(year)
		var obs []store.IDTriple
		var africa map[store.ID]bool
		if mary {
			africa = named(continentName, "Africa")
			for country := range named(countryName, "France") {
				obs = append(obs, snap.Range(store.NoID, store.IDTriple{P: geo, O: country})...)
			}
		} else {
			obs = snap.Range(store.NoID, store.IDTriple{P: dataSet, O: ds})
		}
		sums := make(map[[3]store.ID]float64)
		for _, t := range obs {
			inDS, v, c, g, r := false, store.NoID, store.NoID, store.NoID, store.NoID
			for _, u := range snap.Range(store.NoID, store.IDTriple{S: t.S}) {
				switch u.P {
				case dataSet:
					inDS = inDS || u.O == ds
				case obsValue:
					v = u.O
				case citizen:
					c = u.O
				case geo:
					g = u.O
				case refPeriod:
					r = u.O
				}
			}
			key := [3]store.ID{cont[c], store.NoID, yr[quart[r]]}
			if mary {
				key[1] = g
			}
			if !inDS || v == store.NoID || key[0] == store.NoID || key[2] == store.NoID || mary && !africa[key[0]] {
				continue
			}
			x, err := strconv.ParseFloat(snap.Term(v).Value, 64)
			if err != nil {
				b.Fatal(err)
			}
			sums[key] += x
		}
		labels := 0
		for key, sum := range sums {
			for _, m := range key {
				if m != store.NoID {
					labels += len(snap.Range(store.NoID, store.IDTriple{S: m, P: label}))
				}
			}
			total += sum
		}
		if labels == 0 {
			b.Fatal("no labels")
		}
		return len(sums), total
	}

	for _, name := range []string{"continent-year", "mary"} {
		pq, ok := demo.FindPredefinedQuery(name)
		if !ok {
			b.Fatalf("no predefined %s query", name)
		}
		p, err := ql.Prepare(pq.QL, env.Schema)
		if err != nil {
			b.Fatal(err)
		}
		q, err := sparql.ParseQuery(p.Translation.Direct)
		if err != nil {
			b.Fatal(err)
		}
		eng := sparql.NewEngine(env.Store)
		res, err := eng.Select(q)
		if err != nil {
			b.Fatal(err)
		}
		total := 0.0
		for _, row := range res.Rows {
			x, err := strconv.ParseFloat(row[len(row)-1].Value, 64)
			if err != nil {
				b.Fatal(err)
			}
			total += x
		}
		if cells, sum := floor(name == "mary"); cells != res.Len() || sum != total {
			b.Fatalf("%s: the floor has %d cells totalling %v, the engine %d totalling %v", name, cells, sum, res.Len(), total)
		}
		b.Run(name+"/floor", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				floor(name == "mary")
			}
		})
		b.Run(name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Select(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// A-next — concurrent query throughput (the engine under load).

// BenchmarkConcurrentQuery measures aggregate query throughput with
// concurrent clients hammering the demo-scale (80k-observation) cube:
// both translations of the Mary query, each query evaluating on its
// client's goroutine. clients=N uses
// b.RunParallel with enough goroutines per core to keep N in flight;
// ns/op is per completed query, so queries/sec = clients adjusted
// aggregate 1e9/(ns/op). EXPERIMENTS.md A-next records the measured
// scaling curve.
func BenchmarkConcurrentQuery(b *testing.B) {
	const obs = 80000
	skipIfShort(b, obs)
	env := enrichedEnv(b, obs)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	gmp := runtime.GOMAXPROCS(0)
	for _, v := range []ql.Variant{ql.Direct, ql.Alternative} {
		for _, clients := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", v, clients), func(b *testing.B) {
				client := endpoint.NewLocal(env.Store)
				b.SetParallelism((clients + gmp - 1) / gmp)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						cube, err := ql.Execute(client, p.Translation, v)
						if err != nil {
							b.Fatal(err)
						}
						if len(cube.Cells) == 0 {
							b.Fatal("empty cube")
						}
					}
				})
			})
		}
	}
}

// ---------------------------------------------------------------------
// A-resource — per-query resource accounting: overhead and the
// concurrent-load memory curve.

// BenchmarkAccountingOverhead runs the direct demo translation with
// accounting in its three states: disabled (the default — the hot loops
// see only nil checks), enabled with a process tracker, and enabled
// with a generous admission budget on top. EXPERIMENTS.md A-resource
// records the measured deltas; the acceptance bar is the disabled path
// staying within noise of the pre-accounting snapshot.
func BenchmarkAccountingOverhead(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name string
		opts []sparql.Option
	}{
		{"acct=off", nil},
		{"acct=on", []sparql.Option{sparql.WithResources(obs.NewResourceTracker())}},
		{"acct=budget", []sparql.Option{
			sparql.WithResources(obs.NewResourceTracker()), sparql.WithMaxQueryMem(1 << 32)}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			client := endpoint.NewLocal(env.Store, m.opts...)
			for i := 0; i < b.N; i++ {
				if _, err := ql.Execute(client, p.Translation, ql.Direct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentQueryAccounted repeats BenchmarkConcurrentQuery's
// client sweep (direct translation) with the resource tracker attached, and reports the process-wide peak
// in-flight bytes each load level reached as the peak-bytes metric.
// EXPERIMENTS.md A-resource records the resulting memory curve — the
// measured answer to "how much intermediate state do 64 concurrent
// Mary queries actually hold at once?".
func BenchmarkConcurrentQueryAccounted(b *testing.B) {
	skipIfShort(b, 80000)
	env := enrichedEnv(b, 80000)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	gmp := runtime.GOMAXPROCS(0)
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("direct/clients=%d", clients), func(b *testing.B) {
			tr := obs.NewResourceTracker()
			client := endpoint.NewLocal(env.Store, sparql.WithResources(tr))
			b.SetParallelism((clients + gmp - 1) / gmp)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cube, err := ql.Execute(client, p.Translation, ql.Direct)
					if err != nil {
						b.Fatal(err)
					}
					if len(cube.Cells) == 0 {
						b.Fatal("empty cube")
					}
				}
			})
			b.ReportMetric(float64(tr.HighWater()), "peak-bytes")
		})
	}
}

// BenchmarkParallelGroupBy runs the flat group-by over every
// observation (the hot path the paper's alternative translation works
// around). The sub-benchmark keeps the name par=1, which no longer
// names a width, so that the committed BENCH.json snapshot stays
// comparable.
func BenchmarkParallelGroupBy(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	query := `
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX property: <http://eurostat.linked-statistics.org/property#>
PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
SELECT ?c (SUM(?v) AS ?total) WHERE {
  ?o qb:dataSet <http://eurostat.linked-statistics.org/data/migr_asyappctzm> ;
     property:citizen ?c ;
     sdmx-measure:obsValue ?v .
} GROUP BY ?c`
	q, err := sparql.ParseQuery(query)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("par=1", func(b *testing.B) {
		eng := sparql.NewEngine(env.Store)
		for i := 0; i < b.N; i++ {
			res, err := eng.Select(q)
			if err != nil {
				b.Fatal(err)
			}
			if res.Len() == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkTimeSeriesTick measures one sampler pass over a registry
// sized like a live sparqld (counters, gauges, histograms). This is
// the steady-state cost the time-series layer adds per tick — the
// per-sample budget the observability PR is accountable to — and it
// must stay allocation-free after warm-up.
func BenchmarkTimeSeriesTick(b *testing.B) {
	reg := obs.NewRegistry()
	for i := 0; i < 20; i++ {
		c := reg.Counter(fmt.Sprintf("bench_counter_%d", i))
		c.Add(int64(i * 17))
	}
	for i := 0; i < 5; i++ {
		v := int64(i)
		reg.Gauge(fmt.Sprintf("bench_gauge_%d", i), func() int64 { return v })
	}
	for i := 0; i < 3; i++ {
		h := reg.Histogram(fmt.Sprintf("bench_hist_%d", i))
		for j := 0; j < 256; j++ {
			h.Observe(time.Duration(j%50+1) * time.Millisecond)
		}
	}
	ts := obs.NewTimeSeries(reg, obs.NewLadder(time.Second, 12*time.Hour))
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	ts.SetNow(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	})
	ts.Sample() // warm the sampled-metric cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Sample()
	}
}

// ---------------------------------------------------------------------
// A-streaming — the chunked pull pipeline: chunk-size sweep and
// concurrent throughput under a per-query memory budget a fully
// materialized evaluation cannot meet.

// BenchmarkChunkSize sweeps the pipeline's chunk size on the direct
// Mary translation. The sweep justifies the 1024-row default: small
// chunks pay per-boundary overhead and fall below the BGP's batch
// threshold (minBatchRows, 128), huge chunks converge on whole-table latency while
// growing the per-stage footprint. EXPERIMENTS.md A-streaming records
// the measured curve.
func BenchmarkChunkSize(b *testing.B) {
	env := enrichedEnv(b, demoScale)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, cs := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("chunk=%d", cs), func(b *testing.B) {
			client := endpoint.NewLocal(env.Store, sparql.WithChunkSize(cs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cube, err := ql.Execute(client, p.Translation, ql.Direct)
				if err != nil {
					b.Fatal(err)
				}
				if len(cube.Cells) == 0 {
					b.Fatal("empty cube")
				}
			}
		})
	}
}

// BenchmarkConcurrentQueryStreamed is BenchmarkConcurrentQuery's
// 64-client configuration under a 40 MB per-query budget — less than a
// quarter of the direct Mary query's materialized peak, so only the
// streamed pipeline can run it at all. ns/op per completed query; the
// acceptance bar is 64-client aggregate throughput holding at least
// half the single-client rate.
func BenchmarkConcurrentQueryStreamed(b *testing.B) {
	const obs = 80000
	skipIfShort(b, obs)
	env := enrichedEnv(b, obs)
	p, err := ql.Prepare(demoQuery, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	gmp := runtime.GOMAXPROCS(0)
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			client := endpoint.NewLocal(env.Store,
				sparql.WithChunkSize(1024), sparql.WithMaxQueryMem(40<<20))
			b.SetParallelism((clients + gmp - 1) / gmp)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					cube, err := ql.Execute(client, p.Translation, ql.Direct)
					if err != nil {
						b.Fatal(err)
					}
					if len(cube.Cells) == 0 {
						b.Fatal("empty cube")
					}
				}
			})
		})
	}
}

// ---------------------------------------------------------------------
// A-result-wire — the results codec alone (internal/sparql/resultdec.go).

// wireFixtures returns the two result tables the codec benchmarks run
// on: the 5 000-row half-year extract of the 20k cube with five bound
// variables (the shape the repository benchmark's extract-20k sends)
// and a 7-row OLAP answer (the per-request fixed cost enrich-3k and
// olap-20k pay on every small response).
func wireFixtures(b *testing.B) []wireFixture {
	env := enrichedEnv(b, demoScale)
	extract := fmt.Sprintf(`SELECT ?o ?c ?g ?t ?v WHERE {
  VALUES ?q { %s %s }
  ?t %s ?q .
  ?o %s ?t ; %s ?c ; %s ?g ; %s ?v .
}`, eurostat.QuarterIRI(2013, 1), eurostat.QuarterIRI(2013, 2), eurostat.PropQuarter,
		eurostat.PropTime, eurostat.PropCitizen, eurostat.PropGeo, eurostat.PropObs)
	pq, _ := demo.FindPredefinedQuery("continent-year")
	p, err := ql.Prepare(pq.QL, env.Schema)
	if err != nil {
		b.Fatal(err)
	}
	out := []wireFixture{{name: "extract-5k"}, {name: "olap-7"}}
	for i, query := range []string{extract, p.Translation.Direct} {
		if out[i].res, err = env.Client.Select(query); err != nil {
			b.Fatal(err)
		}
	}
	out[1].res.Rows = out[1].res.Rows[:7]
	if n := out[0].res.Len(); n < 4500 || n > 5500 {
		b.Fatalf("half-year extract has %d rows, want about 5000", n)
	}
	return out
}

type wireFixture struct {
	name string
	res  *sparql.Results
}

// encodeWire serializes res the way endpoint.Server does: Head, one
// Rows call per engine chunk, Close.
func encodeWire(w io.Writer, res *sparql.Results) error {
	const chunk = 1024 // the engine's default chunk size
	enc := sparql.NewResultsEncoder(w)
	if err := enc.Head(res.Vars); err != nil {
		return err
	}
	for lo := 0; lo < len(res.Rows); lo += chunk {
		if err := enc.Rows(res.Rows[lo:min(lo+chunk, len(res.Rows))]); err != nil {
			return err
		}
	}
	return enc.Close()
}

// BenchmarkResultsEncode measures the streaming JSON encoder; MB/s is
// over the encoded document.
func BenchmarkResultsEncode(b *testing.B) {
	for _, f := range wireFixtures(b) {
		res := f.res
		b.Run(f.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := encodeWire(&buf, res); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := encodeWire(&buf, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultsDecode measures the incremental decoder on the
// encoder's output.
func BenchmarkResultsDecode(b *testing.B) {
	for _, f := range wireFixtures(b) {
		res := f.res
		b.Run(f.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := encodeWire(&buf, res); err != nil {
				b.Fatal(err)
			}
			doc, rd := buf.Bytes(), bytes.NewReader(nil)
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(doc)
				got, err := sparql.DecodeResults(rd)
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != res.Len() {
					b.Fatalf("decoded %d rows, want %d", got.Len(), res.Len())
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// helpers

func newEmptyStore() *store.Store { return store.New() }

func loadDataset(st *store.Store, d *eurostat.Dataset) {
	d.LoadInto(st)
}
