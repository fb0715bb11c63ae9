package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/endpoint"
	"repro/internal/enrich"
	"repro/internal/eurostat"
	"repro/internal/qb4olap"
	"repro/internal/ql"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/vocab"
)

// workload is one fixed request list on the serving path. setup
// generates the inputs from the run's seed, brings the served state up
// (its wall time is setup_s) and fills in the run's op list.
type workload struct {
	name, why string
	setup     func(r *run) error
}

// Sizes. The issue sized the cube workloads at the paper's 80k
// observations and enrichment at 10k; the builder's contract gives all
// 92 runs 3420 s, about 35 s each including five set-ups, and the issue
// forbids fewer than 100 ops, so the data is scaled down instead: at
// 20k a round of every op kind takes about a second.
var (
	cubeObs        = 20000
	enrichObs      = 3000
	enrichDatasets = 10
)

const (
	refreshCycles = 4   // write + four reads each, so a round is 20 ops
	refreshBatch  = 250 // observations per write
)

var workloads = []*workload{
	{
		name: "olap-20k",
		why:  "the six predefined QL queries in both translations; results are under 30 rows, so the op is sparql scan, join and group and almost no encode or HTTP",
		setup: func(r *run) error {
			obs, err := r.buildCube()
			if err != nil {
				return err
			}
			return r.olapOps(obs)
		},
	},
	{
		name: "extract-20k",
		why:  "raw SELECTs returning 2.5k, 5k and 10k observation rows; little join and no grouping, so the op is result encode, chunked HTTP and incremental decode",
		setup: func(r *run) error {
			obs, err := r.buildCube()
			if err != nil {
				return err
			}
			r.extractOps(obs)
			return nil
		},
	},
	{
		name: "refresh-20k",
		why:  "cycles of one 250-observation INSERT then four QL reads; the first read after a write pays the store's re-sort, so p90 isolates the write path beside steady reads at p50",
		setup: func(r *run) error {
			obs, err := r.buildCube()
			if err != nil {
				return err
			}
			return r.refreshOps(obs)
		},
	},
	{
		name:  "enrich-3k",
		why:   "full scripted Enrichment sessions over HTTP on freshly loaded raw QB data sets; some thirty small queries and two bulk writes each, so HTTP, parse, plan and the store's first sort dominate, not eval",
		setup: func(r *run) error { return r.enrichOps() },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildCube is the set-up of the cube workloads: generate the Eurostat
// cube from the seed, load it, serve it, and run the demo enrichment
// over HTTP. It returns the generator's raw rows, for the oracles.
func (r *run) buildCube() ([]eurostat.Observation, error) {
	cfg := eurostat.DefaultConfig()
	cfg.TargetObservations = cubeObs
	cfg.Seed = r.seed
	var data *eurostat.Dataset
	_ = r.tr.timed("eurostat.generate", func() error { data = eurostat.Generate(cfg); return nil })
	st := store.New()
	loadInto(r.tr, st, data)
	r.env.serve(st)
	sess, err := r.enrichCube(enrich.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: enriching the %d-observation cube: %w", cubeObs, err)
	}
	r.schema = sess.Schema()
	return data.Observations, nil
}

// loadInto is Dataset.LoadInto, timed as the store's bulk insert.
func loadInto(t *tracer, st *store.Store, d *eurostat.Dataset) {
	_ = t.timed("store.insert", func() error { d.LoadInto(st); return nil })
	t.add("store.insert_triples", float64(len(d.CubeTriples)+len(d.DimensionTriples)+len(d.ExternalTriples)))
}

// enrichCube runs the demo enrichment through the run's client: the
// library's own script when untraced, the same steps one public call
// per span when the client is the traced decorator.
func (r *run) enrichCube(opts enrich.Options) (*enrich.Session, error) {
	if tc, ok := r.client.(*tracedClient); ok {
		return enrichStepwise(tc, opts)
	}
	return demo.EnrichDatasetWithOptions(r.client, opts)
}

// --- olap-20k -------------------------------------------------------

// diceContinents are the continents a seed may dice on. Africa and Asia
// have 16 and 14 citizenship countries; the other three have 2 to 33,
// which would let the seed change how much work the query does.
var diceContinents = []string{"Africa", "Asia"}

// diced names, per predefined query, the DICE constants of its QL text
// that the seed replaces.
var diced = map[string][]string{
	"mary":       {`"Africa"`, `"France"`},
	"busy-cells": {`> 10000`},
}

// olapQL substitutes the seed's DICE constants into the predefined QL
// text, failing if the text no longer carries a constant it replaces.
func olapQL(q demo.PredefinedQuery, continent, destination string, threshold int64) (string, error) {
	for _, old := range diced[q.Name] {
		if !strings.Contains(q.QL, old) {
			return "", fmt.Errorf("bench: predefined query %s no longer dices on %s", q.Name, old)
		}
	}
	return strings.NewReplacer(
		`"Africa"`, strconv.Quote(continent),
		`"France"`, strconv.Quote(destination),
		`> 10000`, "> "+strconv.FormatInt(threshold, 10),
	).Replace(q.QL), nil
}

// qlOp is one QL program run end to end through core.Tool.Query.
func (r *run) qlOp(kind, src string, v ql.Variant, want cells) op {
	return op{
		kind: kind,
		req:  v.String() + "\n" + src,
		run: func(c endpoint.SPARQLClient) (any, error) {
			return core.New(c).Query(src, r.schema, v)
		},
		step: func(c *tracedClient) (any, error) {
			return tracedQL(c, r.schema, src, v)
		},
		check: func(_ endpoint.SPARQLClient, _ *tracer, res any) error { return checkCube(res, want) },
	}
}

func (r *run) olapOps(obs []eurostat.Observation) error {
	continent := diceContinents[r.rng.Intn(len(diceContinents))]
	dests := eurostat.DestinationCountries()
	destination := dests[r.rng.Intn(len(dests))].Name
	// The measure threshold falls between the smallest and the largest
	// continent-year cell, so the DICE keeps some cells and drops others
	// at any cube size.
	lo, hi := int64(-1), int64(0)
	for _, v := range templates("", "", 0)["continent-year"].fold(obs) {
		if lo < 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	threshold := lo + r.rng.Int63n(hi-lo)
	oracle := templates(continent, destination, threshold)

	for _, q := range demo.PredefinedQueries {
		t, ok := oracle[q.Name]
		if !ok {
			return fmt.Errorf("bench: no oracle for predefined query %s", q.Name)
		}
		src, err := olapQL(q, continent, destination, threshold)
		if err != nil {
			return err
		}
		want := t.fold(obs)
		for _, v := range []ql.Variant{ql.Direct, ql.Alternative} {
			r.ops = append(r.ops, r.qlOp(q.Name+"/"+v.String(), src, v, want))
		}
	}
	r.shuffleOps()
	return nil
}

func (r *run) shuffleOps() {
	r.rng.Shuffle(len(r.ops), func(i, j int) { r.ops[i], r.ops[j] = r.ops[j], r.ops[i] })
}

// tracedQL is ql.Run one public call per span: parse, analyze,
// simplify, re-analyze, translate, (choose,) select, materialize.
func tracedQL(c *tracedClient, schema *qb4olap.CubeSchema, src string, v ql.Variant) (any, error) {
	t := c.tr
	var (
		prog, simplified *ql.Program
		analysis         *ql.Analysis
		tr               *ql.Translation
	)
	if err := t.timed("ql.parse", func() (err error) { prog, err = ql.Parse(src); return }); err != nil {
		return nil, err
	}
	if err := t.timed("ql.analyze", func() (err error) { analysis, err = ql.Analyze(prog, schema); return }); err != nil {
		return nil, err
	}
	_ = t.timed("ql.simplify", func() error { simplified = ql.Simplify(analysis); return nil })
	if err := t.timed("ql.analyze", func() (err error) { analysis, err = ql.Analyze(simplified, schema); return }); err != nil {
		return nil, err
	}
	if err := t.timed("ql.translate", func() (err error) { tr, err = ql.Translate(analysis); return }); err != nil {
		return nil, err
	}
	if v == ql.Auto {
		_ = t.timed("ql.choose", func() error {
			sel := ql.Choose(c, tr)
			tr.Selection = &sel
			v = sel.Variant
			return nil
		})
	}
	query := tr.Direct
	if v == ql.Alternative {
		query = tr.Alternative
	}
	t.add("ql.sparql_lines", float64(strings.Count(strings.TrimSpace(query), "\n")+1))
	res, err := c.Select(query)
	if err != nil {
		return nil, err
	}
	var out any
	_ = t.timed("ql.materialize", func() error { out = ql.Materialize(tr, res); return nil })
	return out, nil
}

// --- extract-20k ----------------------------------------------------

// extractQuery selects the observations of the given quarters with
// five bound variables. Only the VALUES block differs between sizes.
func extractQuery(year int, quarters []int) string {
	vals := make([]string, len(quarters))
	for i, q := range quarters {
		vals[i] = eurostat.QuarterIRI(year, q).String()
	}
	return fmt.Sprintf(`SELECT ?o ?c ?g ?t ?v WHERE {
  VALUES ?q { %s }
  ?t %s ?q .
  ?o %s ?t ;
     %s ?c ;
     %s ?g ;
     %s ?v .
}`, strings.Join(vals, " "), eurostat.PropQuarter, eurostat.PropTime,
		eurostat.PropCitizen, eurostat.PropGeo, eurostat.PropObs)
}

// extractOps builds twelve SELECTs, four of each size: a quarter, a
// half-year and a year of observations, the period drawn from the seed.
func (r *run) extractOps(obs []eurostat.Observation) {
	sizes := []struct {
		kind    string
		periods [][]int // quarters of one year
	}{
		{"quarter", [][]int{{1}, {2}, {3}, {4}}},
		{"half-year", [][]int{{1, 2}, {3, 4}}},
		{"year", [][]int{{1, 2, 3, 4}}},
	}
	cfg := eurostat.DefaultConfig()
	for _, s := range sizes {
		for i := 0; i < 4; i++ {
			year := cfg.StartYear + r.rng.Intn(cfg.EndYear-cfg.StartYear+1)
			quarters := s.periods[r.rng.Intn(len(s.periods))]
			query := extractQuery(year, quarters)
			want := foldSlice(obs, year, quarters)
			r.ops = append(r.ops, op{
				kind:  "extract/" + s.kind,
				req:   query,
				run:   func(c endpoint.SPARQLClient) (any, error) { return c.Select(query) },
				check: func(_ endpoint.SPARQLClient, _ *tracer, res any) error { return checkSlice(res, want) },
			})
		}
	}
	r.shuffleOps()
}

// --- refresh-20k ----------------------------------------------------

// refreshReads are the QL programs read back after every write: the
// four predefined queries without a member DICE, whose totals every
// inserted observation changes.
var refreshReads = []string{"grand-total", "continent-year", "quarterly-trend", "minors-by-destination"}

// newObservations draws n observations for one month after the cube's
// last year, as rows for the oracle and as the triples of one INSERT:
// the generator's nine triples per observation plus the month's
// roll-up links, without which the time roll-ups would drop the rows.
func newObservations(rng *rand.Rand, year, month, n int) ([]eurostat.Observation, []rdf.Triple) {
	dests := eurostat.DestinationCountries()
	quarter := eurostat.QuarterIRI(year, (month-1)/3+1)
	triples := []rdf.Triple{
		rdf.NewTriple(eurostat.MonthIRI(year, month), eurostat.PropQuarter, quarter),
		rdf.NewTriple(quarter, eurostat.PropYear, eurostat.YearIRI(year)),
	}
	rows := make([]eurostat.Observation, n)
	for i := range rows {
		o := eurostat.Observation{
			Citizen: eurostat.Countries[rng.Intn(len(eurostat.Countries))].Code,
			Geo:     dests[rng.Intn(len(dests))].Code,
			Sex:     eurostat.SexCodes[rng.Intn(len(eurostat.SexCodes))].Code,
			Age:     eurostat.AgeGroups[rng.Intn(len(eurostat.AgeGroups))].Code,
			AppType: eurostat.AppTypes[rng.Intn(len(eurostat.AppTypes))].Code,
			Year:    year, Month: month,
			Value: int64(rng.Intn(120) + 1),
		}
		rows[i] = o
		s := rdf.NewIRI(fmt.Sprintf("%smigr_asyappctzm/r%04dM%02d_%04d", vocab.EurostatData, year, month, i))
		triples = append(triples,
			rdf.NewTriple(s, vocab.RDFType, vocab.QBObservation),
			rdf.NewTriple(s, vocab.QBDataSetP, eurostat.DataSetIRI),
			rdf.NewTriple(s, eurostat.PropCitizen, eurostat.CitizenIRI(o.Citizen)),
			rdf.NewTriple(s, eurostat.PropGeo, eurostat.GeoIRI(o.Geo)),
			rdf.NewTriple(s, eurostat.PropSex, eurostat.SexIRI(o.Sex)),
			rdf.NewTriple(s, eurostat.PropAge, eurostat.AgeIRI(o.Age)),
			rdf.NewTriple(s, eurostat.PropAsylApp, eurostat.AppTypeIRI(o.AppType)),
			rdf.NewTriple(s, eurostat.PropTime, eurostat.MonthIRI(year, month)),
			rdf.NewTriple(s, eurostat.PropObs, rdf.NewInteger(o.Value)),
		)
	}
	return rows, triples
}

// refreshOps builds one round: refreshCycles cycles of an INSERT of the
// next month's observations followed by the four reads with ql.Auto.
// The read that goes first, and so pays for the write, rotates, so each
// query is a first-read once per round whatever the seed. reset deletes
// the inserted triples and re-sorts, so every round starts from the
// set-up's store.
func (r *run) refreshOps(obs []eurostat.Observation) error {
	oracle := templates("", "", 0)
	reads := make(map[string]string, len(refreshReads))
	for _, name := range refreshReads {
		q, ok := demo.FindPredefinedQuery(name)
		if !ok {
			return fmt.Errorf("bench: predefined query %s is gone", name)
		}
		reads[name] = q.QL
	}
	nextYear := eurostat.DefaultConfig().EndYear + 1
	offset := r.rng.Intn(len(refreshReads))
	var inserted []eurostat.Observation
	var all []rdf.Triple
	for cycle := 0; cycle < refreshCycles; cycle++ {
		rows, batch := newObservations(r.rng, nextYear, cycle+1, refreshBatch)
		all = append(all, batch...)
		inserted = append(inserted, rows...)
		var req strings.Builder
		for _, t := range batch {
			req.WriteString(t.String())
			req.WriteByte('\n')
		}
		r.ops = append(r.ops, op{
			kind: "write",
			req:  req.String(),
			run: func(c endpoint.SPARQLClient) (any, error) {
				return nil, endpoint.InsertTriples(c, rdf.Term{}, batch, 0)
			},
			// Read-your-writes is checked by the four reads that follow.
			check: func(endpoint.SPARQLClient, *tracer, any) error { return nil },
		})
		for i := range refreshReads {
			name := refreshReads[(i+cycle+offset)%len(refreshReads)]
			kind := "read/steady"
			if i == 0 {
				kind = "read/first"
			}
			r.ops = append(r.ops, r.qlOp(kind, reads[name], ql.Auto, oracle[name].fold(obs, inserted)))
		}
	}
	st := r.env.st
	r.reset = func() error {
		for _, t := range all {
			st.Delete(rdf.NewQuad(t.S, t.P, t.O, rdf.Term{}))
		}
		refreshStore(st)
		return nil
	}
	return nil
}

// refreshStore makes the store pay for pending mutations now: the
// first scan after a write re-sorts the three orderings and the first
// statistics read recomputes them.
func refreshStore(st *store.Store) {
	st.GraphStat(store.NoID)
	st.Count(store.NoID, store.IDTriple{})
}

// --- enrich-3k ------------------------------------------------------

// rawDataset is one un-enriched QB data set and what a correct
// enrichment of it must produce.
type rawDataset struct {
	data *eurostat.Dataset
	// ambiguous is how many citizenship members the generator gave a
	// second continent (the quasi-FD noise): exactly the members
	// qb4olap.ValidateInstances must report as double-counted.
	ambiguous int
	// edges is the number of child-to-parent roll-up links the
	// enrichment must materialize.
	edges int
	// citizens is how many citizenship members the observations use: the
	// denominator of the quasi-FD's error rate.
	citizens int
}

// enrichable reports whether the session's QuasiFDThreshold accepts
// continent as a level of citizenship, by the session's own test. The
// generator draws the noise per member, so one data set in some two
// hundred (seed 14 has one: 10 members of 70) realizes more than twice
// the 5 % its rate allows; the session would reject the level and the op
// would fail.
func (d rawDataset) enrichable() bool {
	return float64(d.ambiguous)/float64(d.citizens) <= enrichOptions().QuasiFDThreshold
}

// What the demo enrichment script builds: the six base levels plus
// continent, quarter, year, age class and the citizenship "all" level;
// and the six hierarchy steps between them.
const (
	enrichLevels = 11
	enrichSteps  = 6
)

// enrichOptions accepts the generator's quasi-FD (at most 5 % of
// members violating it) as a level.
func enrichOptions() enrich.Options {
	opts := enrich.DefaultOptions()
	opts.QuasiFDThreshold = 0.1
	return opts
}

// expectEnrichment folds the raw data set into the enrichment oracle.
func expectEnrichment(d *eurostat.Dataset) rawDataset {
	links := make(map[rdf.Term]map[rdf.Term]bool) // citizen member → its continents
	for _, t := range d.DimensionTriples {
		if t.P == eurostat.PropContinent {
			if links[t.S] == nil {
				links[t.S] = make(map[rdf.Term]bool)
			}
			links[t.S][t.O] = true
		}
	}
	type set = map[rdf.Term]bool
	citizens, geos, months, quarters, ages, continents := set{}, set{}, set{}, set{}, set{}, set{}
	for _, o := range d.Observations {
		citizens[eurostat.CitizenIRI(o.Citizen)] = true
		geos[eurostat.GeoIRI(o.Geo)] = true
		months[eurostat.MonthIRI(o.Year, o.Month)] = true
		quarters[eurostat.QuarterIRI(o.Year, (o.Month-1)/3+1)] = true
		ages[eurostat.AgeIRI(o.Age)] = true
	}
	out := rawDataset{data: d, citizens: len(citizens)}
	for c := range citizens {
		out.edges += len(links[c])
		if len(links[c]) > 1 {
			out.ambiguous++
		}
		for k := range links[c] {
			continents[k] = true
		}
	}
	// citizen→continent (above), continent→all, geo→continent,
	// month→quarter, quarter→year, age→age class.
	out.edges += len(continents) + len(geos) + len(months) + len(quarters) + len(ages)
	return out
}

// enrichOps generates the raw data sets (this is the workload's
// set-up) and builds one session op per data set. Every session starts
// from a freshly loaded store, swapped in and collected untimed.
func (r *run) enrichOps() error {
	sets := make([]rawDataset, enrichDatasets)
	for i := range sets {
		cfg := eurostat.DefaultConfig()
		cfg.TargetObservations = enrichObs
		cfg.Seed = r.seed*1000 + int64(i)
		cfg.QuasiFDNoise = 0.05 * r.rng.Float64()
		cfg.DropLabelRate = 0.3 * r.rng.Float64()
		// A data set the session would reject is drawn again from the
		// next sub-seed, so the same seed still gives the same inputs.
		for {
			_ = r.tr.timed("eurostat.generate", func() error { sets[i] = expectEnrichment(eurostat.Generate(cfg)); return nil })
			if sets[i].enrichable() {
				break
			}
			cfg.Seed += int64(enrichDatasets)
		}
		ds := &sets[i]
		r.ops = append(r.ops, op{
			kind: "session",
			req:  fmt.Sprintf("%+v", cfg),
			prepare: func(t *tracer) error {
				st := store.New()
				loadInto(t, st, ds.data)
				r.env.serve(st)
				runtime.GC()
				return nil
			},
			run: func(c endpoint.SPARQLClient) (any, error) {
				return demo.EnrichDatasetWithOptions(c, enrichOptions())
			},
			step: func(c *tracedClient) (any, error) { return enrichStepwise(c, enrichOptions()) },
			check: func(c endpoint.SPARQLClient, t *tracer, res any) error {
				return r.checkEnrichment(c, t, res, ds)
			},
		})
	}
	// The first session's store is served from the start, so a run is
	// never without a handler.
	return r.ops[0].prepare(r.tr)
}

// checkEnrichment is the enrich-3k oracle: the session's schema is
// well-formed, the schema read back from the endpoint has the expected
// levels and steps, the instance checks report exactly the ambiguity
// the generator injected, and the committed roll-up links match the
// fold over the raw rows.
func (r *run) checkEnrichment(c endpoint.SPARQLClient, t *tracer, res any, want *rawDataset) error {
	sess, ok := res.(*enrich.Session)
	if !ok || sess == nil {
		return fmt.Errorf("oracle: result is %T, not a session", res)
	}
	if probs := sess.Schema().Validate(); len(probs) > 0 {
		return fmt.Errorf("oracle: enriched schema is not well-formed: %v", probs)
	}
	var schema *qb4olap.CubeSchema
	err := t.timed("qb4olap.load_schema", func() (err error) {
		schema, err = qb4olap.LoadCubeSchema(c, sess.Schema().DSD)
		return
	})
	if err != nil {
		return err
	}
	steps := 0
	for _, d := range schema.Dimensions {
		for _, h := range d.Hierarchies {
			steps += len(h.Steps)
		}
	}
	if len(schema.Levels) != enrichLevels || steps != enrichSteps {
		return fmt.Errorf("oracle: committed schema has %d levels and %d steps, want %d and %d",
			len(schema.Levels), steps, enrichLevels, enrichSteps)
	}
	var probs []qb4olap.InstanceProblem
	err = t.timed("qb4olap.validate", func() (err error) {
		probs, err = qb4olap.ValidateInstances(c, schema)
		return
	})
	if err != nil {
		return err
	}
	ambiguous := 0
	for _, p := range probs {
		if p.Code != "rollup-ambiguous" {
			return fmt.Errorf("oracle: unexpected instance problem %s", p)
		}
		ambiguous += p.Count
	}
	if ambiguous != want.ambiguous {
		return fmt.Errorf("oracle: %d ambiguous roll-ups reported, generator injected %d", ambiguous, want.ambiguous)
	}
	edges, err := c.Select(fmt.Sprintf("SELECT (COUNT(?c) AS ?n) WHERE { ?c %s ?p }", vocab.SKOSBroader))
	if err != nil {
		return err
	}
	if n, _ := strconv.Atoi(edges.Binding(0, "n").Value); n != want.edges {
		return fmt.Errorf("oracle: %d roll-up links committed, want %d", n, want.edges)
	}
	r.schema = schema
	return nil
}

// enrichScript is demo.EnrichDatasetWithOptions as data: the
// candidates Mary picks, in order. A test pins it to the library's
// script by comparing the generated triples.
var enrichScript = []struct {
	kind        string // level | attribute | all
	level, pick rdf.Term
}{
	{"level", eurostat.PropCitizen, eurostat.PropContinent},
	{"attribute", eurostat.PropCitizen, rdf.NewIRI(vocab.Schema + "countryName")},
	{"attribute", eurostat.PropContinent, rdf.NewIRI(vocab.Schema + "continentName")},
	{"all", eurostat.PropCitizen, rdf.Term{}},
	{"level", eurostat.PropGeo, eurostat.PropContinent},
	{"attribute", eurostat.PropGeo, rdf.NewIRI(vocab.Schema + "countryName")},
	{"level", eurostat.PropTime, eurostat.PropQuarter},
	{"level", eurostat.PropQuarter, eurostat.PropYear},
	{"level", eurostat.PropAge, eurostat.PropAgeClass},
	{"attribute", eurostat.PropAgeClass, vocab.SKOSNotation},
}

// enrichStepwise is the demo enrichment one public call per span:
// NewSession, Suggest, AddLevel/AddAttribute/AddAllLevel, Commit. The
// decorated client puts every request the session makes under the call
// that made it, so the session's own time is what its client calls do
// not cover.
func enrichStepwise(c *tracedClient, opts enrich.Options) (*enrich.Session, error) {
	t := c.tr
	clientCalls := func() (n int, total float64) {
		for _, name := range []string{"endpoint.select", "endpoint.update", "endpoint.cost"} {
			for _, m := range []map[string][]float64{t.samples, t.around} {
				n += len(m[name])
				total += sum(m[name])
			}
		}
		return
	}
	calls0, wait0 := clientCalls()
	aside0, start := t.aside, t.begin("enrich.session")

	var sess *enrich.Session
	err := t.timed("enrich.new_session", func() (err error) {
		sess, err = enrich.NewSession(c, eurostat.DSDIRI, opts)
		return
	})
	for _, s := range enrichScript {
		if err != nil {
			break
		}
		if s.kind == "all" {
			err = t.timed("enrich.apply", func() error {
				dim, ok := sess.Schema().DimensionOfLevel(s.level)
				if !ok {
					return fmt.Errorf("bench: no dimension for level %s", s.level.Value)
				}
				_, err := sess.AddAllLevel(dim.IRI)
				return err
			})
			continue
		}
		var cand enrich.Candidate
		err = t.timed("enrich.suggest", func() error {
			cands, err := sess.Suggest(s.level)
			if err != nil {
				return err
			}
			var ok bool
			if cand, ok = enrich.FindCandidate(cands, s.pick); !ok {
				return fmt.Errorf("bench: %s not suggested for level %s", s.pick.Value, s.level.Value)
			}
			return nil
		})
		if err != nil {
			break
		}
		err = t.timed("enrich.apply", func() error {
			if s.kind == "level" {
				return sess.AddLevel(cand)
			}
			return sess.AddAttribute(cand)
		})
	}
	if err == nil {
		// Commit generates the triples itself; generating them first, as
		// the GUI's preview does, times the Triple Generation phase on
		// its own and leaves Commit the load (plus a cached regenerate).
		err = t.timed("enrich.generate", func() error {
			schema, instances, err := sess.GenerateTriples()
			t.add("enrich.triples_out", float64(len(schema)+len(instances)))
			return err
		})
	}
	if err == nil {
		err = t.timed("enrich.commit", sess.Commit)
	}
	total := ms(t.end(start) - (t.aside - aside0))
	if err != nil {
		return nil, err
	}
	calls1, wait1 := clientCalls()
	t.add("enrich.client_calls", float64(calls1-calls0))
	t.add("enrich.client_wait", wait1-wait0)
	t.add("enrich.self", total-(wait1-wait0))
	return sess, nil
}

// --- probes ---------------------------------------------------------

// probeLayers fills the per-layer metrics the workload's own requests
// did not sample, each by one fixed call on the workload's own served
// store, so a traced run measures every line and never prints a
// literal zero for "not exercised".
func (r *run) probeLayers(c *tracedClient) error {
	t := c.tr
	if !t.has("ql.parse") {
		q, _ := demo.FindPredefinedQuery("grand-total")
		if _, err := tracedQL(c, r.schema, q.QL, ql.Direct); err != nil {
			return fmt.Errorf("bench: QL probe: %w", err)
		}
	}
	if !t.has("qb4olap.load_schema") {
		err := t.timed("qb4olap.load_schema", func() error {
			_, err := qb4olap.LoadCubeSchema(c, r.schema.DSD)
			return err
		})
		if err != nil {
			return fmt.Errorf("bench: schema probe: %w", err)
		}
	}
	if !t.has("qb4olap.validate") {
		err := t.timed("qb4olap.validate", func() error {
			_, err := qb4olap.ValidateInstances(c, r.schema)
			return err
		})
		if err != nil {
			return fmt.Errorf("bench: instance-check probe: %w", err)
		}
	}
	// Exploration: the members of the citizenship level and the
	// citizenship→continent roll-up edges, the views of the paper's
	// Exploration module.
	ex := core.New(c).Explorer()
	dim, ok := r.schema.DimensionOfLevel(eurostat.PropCitizen)
	if !ok || len(dim.Hierarchies) == 0 || len(dim.Hierarchies[0].Steps) == 0 {
		return fmt.Errorf("bench: exploration probe: citizenship has no hierarchy step")
	}
	err := t.timed("explore.members", func() error {
		_, err := ex.Members(eurostat.PropCitizen)
		return err
	})
	if err == nil {
		err = t.timed("explore.rollup_edges", func() error {
			_, err := ex.RollupEdges(dim.Hierarchies[0].Steps[0])
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("bench: exploration probe: %w", err)
	}

	// Store: three write-then-read cycles straight on the store, then a
	// full scan. refresh is what the first read after a write costs
	// beyond a second read: the re-sort and the statistics recompute.
	st := r.env.st
	rng := rand.New(rand.NewSource(r.seed))
	for i := 0; i < 3; i++ {
		_, batch := newObservations(rng, 2099, i+1, refreshBatch)
		_ = t.timed("store.insert", func() error { st.InsertTriples(rdf.Term{}, batch); return nil })
		t.add("store.insert_triples", float64(len(batch)))
		var first, second float64
		_ = t.timed("store.refresh_probe", func() error {
			id := t.begin("store.first_read")
			refreshStore(st)
			first = ms(t.end(id))
			id = t.begin("store.second_read")
			refreshStore(st)
			second = ms(t.end(id))
			return nil
		})
		t.add("store.refresh", first-second)
	}
	_ = t.timed("store.scan", func() error {
		n := 0
		for sc := st.ScanIDs(store.NoID, store.IDTriple{}); ; n++ {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
		t.add("store.scan_triples", float64(n))
		return nil
	})
	t.add("endpoint.retries", float64(r.env.rem.RetryCount()))
	return nil
}
