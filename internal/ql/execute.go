package ql

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/endpoint"
	"repro/internal/obs"
	"repro/internal/olap"
	"repro/internal/qb4olap"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Variant selects which generated SPARQL query to execute.
type Variant int

// Query variants.
const (
	// Direct runs the translation that applies DICE before aggregating.
	Direct Variant = iota
	// Alternative runs the translation that applies DICE to the
	// aggregated cells.
	Alternative
	// Auto asks the endpoint's cost-based planner to price both
	// translations and runs the cheaper one (see Choose). On a client
	// without a usable cost surface it falls back to the direct form.
	Auto
)

func (v Variant) String() string {
	switch v {
	case Alternative:
		return "alternative"
	case Auto:
		return "auto"
	}
	return "direct"
}

// Selection records how an Auto execution resolved: which translation
// ran and why. It is stored on the Translation so callers (the CLI, the
// EXPLAIN ANALYZE plan line) can report the decision.
type Selection struct {
	// Variant is the translation chosen.
	Variant Variant
	// Cost and Other are the planner's estimated C_out costs for the
	// chosen and the rejected translation. Both are zero when the
	// decision was heuristic.
	Cost, Other float64
	// Heuristic is set when no cost estimate was available (the client
	// does not implement endpoint.CostEstimator, or its planner is off)
	// and the direct form was run by default.
	Heuristic bool
}

// String renders the decision as the one-line plan summary used by
// EXPLAIN ANALYZE, e.g. "alternative (est cost 10458)".
func (s Selection) String() string {
	if s.Heuristic {
		return s.Variant.String() + " (heuristic)"
	}
	return fmt.Sprintf("%s (est cost %.0f)", s.Variant, s.Cost)
}

// Process-wide counters of how Auto executions resolved, one per
// Selection kind. PR 6 made the decision visible per query in EXPLAIN;
// these make the aggregate visible in metrics, so an operator can see
// at a glance whether the cost surface is actually being consulted or
// every client is falling back to the heuristic.
var chooseDirect, chooseAlternative, chooseHeuristic atomic.Int64

// ChooseStats returns the process-wide Choose decision counts:
// cost-based direct wins, cost-based alternative wins, and heuristic
// fallbacks (no usable cost surface).
func ChooseStats() (direct, alternative, heuristic int64) {
	return chooseDirect.Load(), chooseAlternative.Load(), chooseHeuristic.Load()
}

// RegisterChooseMetrics publishes the decision counters on reg as
// gauges (ql_choose_direct, ql_choose_alternative,
// ql_choose_heuristic), for embedders that serve a metrics registry
// next to a QL workload.
func RegisterChooseMetrics(reg *obs.Registry) {
	reg.Gauge("ql_choose_direct", chooseDirect.Load)
	reg.Gauge("ql_choose_alternative", chooseAlternative.Load)
	reg.Gauge("ql_choose_heuristic", chooseHeuristic.Load)
}

// Choose picks which translation an Auto execution runs. When the
// client can price queries with the cost-based planner (it implements
// endpoint.CostEstimator and the planner is on), both translations are
// planned — never evaluated — and the cheaper estimated C_out cost
// wins, ties going to the direct form. Otherwise it falls back to the
// direct form: a program without DICE translates to one text, and with
// DICE the direct form filters observations before it aggregates, which
// no planner need move for it (EXPERIMENTS.md A-semijoin). Both shipped
// clients implement CostEstimator, so the fallback is for third-party
// clients and planner-off endpoints.
func Choose(c endpoint.SPARQLClient, t *Translation) Selection {
	if ce, ok := c.(endpoint.CostEstimator); ok {
		dc, derr := ce.EstimateCost(t.Direct)
		ac, aerr := ce.EstimateCost(t.Alternative)
		if derr == nil && aerr == nil {
			if ac < dc {
				chooseAlternative.Add(1)
				return Selection{Variant: Alternative, Cost: ac, Other: dc}
			}
			chooseDirect.Add(1)
			return Selection{Variant: Direct, Cost: dc, Other: ac}
		}
	}
	chooseHeuristic.Add(1)
	return Selection{Variant: Direct, Heuristic: true}
}

// Execute runs one of the translated queries on the endpoint and
// materializes the result cube on the fly (the SPARQL Execution phase).
func Execute(c endpoint.SPARQLClient, t *Translation, v Variant) (*olap.Cube, error) {
	return ExecuteContext(context.Background(), c, t, v)
}

// ExecuteContext is Execute under a context: ctx bounds the SPARQL
// execution when the client supports cancellation (both built-in
// endpoint clients do).
func ExecuteContext(ctx context.Context, c endpoint.SPARQLClient, t *Translation, v Variant) (*olap.Cube, error) {
	if v == Auto {
		if t.Selection == nil {
			sel := Choose(c, t)
			t.Selection = &sel
		}
		v = t.Selection.Variant
	}
	query := t.Direct
	if v == Alternative {
		query = t.Alternative
	}
	res, err := endpoint.SelectContext(ctx, c, query)
	if err != nil {
		return nil, fmt.Errorf("ql: executing %s query: %w", v, err)
	}
	return Materialize(t, res), nil
}

// Materialize builds the result cube from an already-evaluated SPARQL
// result table of either translated query. It is the second half of
// Execute, split out so callers that run the SPARQL themselves (e.g. a
// traced engine evaluation) can still produce a cube.
func Materialize(t *Translation, res *sparql.Results) *olap.Cube {
	cube := &olap.Cube{}
	for _, ds := range t.Analysis.VisibleDims() {
		cube.Axes = append(cube.Axes, olap.Axis{Dimension: ds.Dimension.IRI, Level: ds.Level})
	}
	for _, m := range t.Analysis.Schema.Measures {
		cube.Measures = append(cube.Measures, fmt.Sprintf("%s(%s)", m.Agg, localOf(m.Property)))
	}
	for i := range res.Rows {
		cell := olap.Cell{
			Coords: make([]rdf.Term, len(t.GroupVars)),
			Labels: make([]string, len(t.GroupVars)),
			Values: make([]rdf.Term, len(t.MeasureVars)),
		}
		for j, v := range t.GroupVars {
			cell.Coords[j] = res.Binding(i, v)
			cell.Labels[j] = res.Binding(i, t.LabelVars[j]).Value
		}
		for j, v := range t.MeasureVars {
			cell.Values[j] = res.Binding(i, v)
		}
		cube.Cells = append(cube.Cells, cell)
	}
	cube.Sort()
	return cube
}

// Pipeline bundles the full Querying-module workflow of Figure 3:
// parse → analyze → simplify → re-analyze → translate. Execute the
// result with Execute, or inspect the intermediate artifacts.
type Pipeline struct {
	// Parsed is the program as written.
	Parsed *Program
	// Simplified is the program after the Query Simplification phase.
	Simplified *Program
	// Translation holds both SPARQL queries.
	Translation *Translation
	// Timings records the wall time of each pipeline phase in execution
	// order: parse, analyze, simplify, re-analyze, translate, plus one
	// execute(<variant>) entry per Run call — preceded, for Auto runs,
	// by a plan(<selection>) entry timing the cost-based choice.
	Timings []PhaseTiming
}

// PhaseTiming is the wall time of one Querying-module phase.
type PhaseTiming struct {
	Phase string        `json:"phase"`
	Wall  time.Duration `json:"wallNs"`
}

// Prepare runs parsing, analysis, simplification, and translation for a
// QL source text against a cube schema.
func Prepare(src string, schema *qb4olap.CubeSchema) (*Pipeline, error) {
	p := &Pipeline{}
	phase := func(name string, start time.Time) {
		p.Timings = append(p.Timings, PhaseTiming{Phase: name, Wall: time.Since(start)})
	}

	start := time.Now()
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	phase("parse", start)

	start = time.Now()
	analysis, err := Analyze(prog, schema)
	if err != nil {
		return nil, err
	}
	phase("analyze", start)

	start = time.Now()
	simplified := Simplify(analysis)
	phase("simplify", start)

	start = time.Now()
	finalAnalysis, err := Analyze(simplified, schema)
	if err != nil {
		return nil, fmt.Errorf("ql: internal error — simplified program failed analysis: %w", err)
	}
	phase("re-analyze", start)

	start = time.Now()
	tr, err := Translate(finalAnalysis)
	if err != nil {
		return nil, err
	}
	phase("translate", start)

	p.Parsed, p.Simplified, p.Translation = prog, simplified, tr
	return p, nil
}

// Run is the one-call convenience: Prepare then Execute. The returned
// pipeline's Timings include the execution phase for the chosen
// variant.
func Run(c endpoint.SPARQLClient, schema *qb4olap.CubeSchema, src string, v Variant) (*olap.Cube, *Pipeline, error) {
	return RunContext(context.Background(), c, schema, src, v)
}

// RunContext is Run under a context; preparation is pure computation,
// so ctx effectively bounds the SPARQL execution phase.
func RunContext(ctx context.Context, c endpoint.SPARQLClient, schema *qb4olap.CubeSchema, src string, v Variant) (*olap.Cube, *Pipeline, error) {
	p, err := Prepare(src, schema)
	if err != nil {
		return nil, nil, err
	}
	if v == Auto {
		start := time.Now()
		sel := Choose(c, p.Translation)
		p.Translation.Selection = &sel
		p.Timings = append(p.Timings, PhaseTiming{Phase: "plan(" + sel.String() + ")", Wall: time.Since(start)})
		v = sel.Variant
	}
	start := time.Now()
	cube, err := ExecuteContext(ctx, c, p.Translation, v)
	p.Timings = append(p.Timings, PhaseTiming{Phase: "execute(" + v.String() + ")", Wall: time.Since(start)})
	if err != nil {
		return nil, p, err
	}
	return cube, p, nil
}
