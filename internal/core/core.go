// Package core is the top-level QB2OLAP facade: one type wiring the
// three modules of the paper's architecture (Figure 1) — Enrichment,
// Exploration, and Querying — around a SPARQL endpoint. Library users
// who want finer control can use the underlying packages directly
// (enrich, explore, ql); this facade covers the common tool workflow.
package core

import (
	"context"
	"fmt"

	"repro/internal/endpoint"
	"repro/internal/enrich"
	"repro/internal/explore"
	"repro/internal/olap"
	"repro/internal/qb"
	"repro/internal/qb4olap"
	"repro/internal/ql"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// Tool is a QB2OLAP instance bound to a SPARQL endpoint.
type Tool struct {
	client endpoint.SPARQLClient
}

// New returns a tool speaking to the given endpoint client.
func New(client endpoint.SPARQLClient) *Tool {
	return &Tool{client: client}
}

// NewLocal returns a tool over an in-process store (convenient for
// embedding and tests). Engine options (e.g. sparql.WithPlanner)
// configure the embedded SPARQL engine.
func NewLocal(st *store.Store, opts ...sparql.Option) *Tool {
	return New(endpoint.NewLocal(st, opts...))
}

// NewRemote returns a tool speaking the SPARQL protocol to a remote
// endpoint rooted at base URL.
func NewRemote(base string) *Tool {
	return New(endpoint.NewRemote(base))
}

// Client exposes the underlying SPARQL client.
func (t *Tool) Client() endpoint.SPARQLClient { return t.client }

// --- Input data -----------------------------------------------------

// DataSets lists the QB data sets on the endpoint.
func (t *Tool) DataSets() ([]qb.DataSet, error) {
	return qb.ListDataSets(t.client)
}

// LoadDSD reads a QB data structure definition.
func (t *Tool) LoadDSD(dsd rdf.Term) (*qb.DSD, error) {
	return qb.LoadDSD(t.client, dsd)
}

// --- Enrichment module ----------------------------------------------

// Enrich starts an enrichment session for the given QB DSD (the
// Redefinition phase runs immediately).
func (t *Tool) Enrich(dsd rdf.Term, opts enrich.Options) (*enrich.Session, error) {
	return enrich.NewSession(t.client, dsd, opts)
}

// --- Exploration module ----------------------------------------------

// Explorer returns the exploration module.
func (t *Tool) Explorer() *explore.Explorer {
	return explore.New(t.client)
}

// Cubes lists the QB4OLAP cubes available for exploration and querying.
func (t *Tool) Cubes() ([]rdf.Term, error) {
	return qb4olap.ListCubes(t.client)
}

// Schema loads a QB4OLAP cube schema from the endpoint.
func (t *Tool) Schema(dsd rdf.Term) (*qb4olap.CubeSchema, error) {
	return qb4olap.LoadCubeSchema(t.client, dsd)
}

// --- Querying module -------------------------------------------------

// Prepare parses, analyzes, simplifies, and translates a QL program
// against a cube schema, returning both generated SPARQL queries.
func (t *Tool) Prepare(src string, schema *qb4olap.CubeSchema) (*ql.Pipeline, error) {
	return ql.Prepare(src, schema)
}

// Query runs a QL program end to end and returns the result cube.
// Pass ql.Auto to let the endpoint's cost-based planner pick the
// cheaper of the two generated SPARQL translations (see ql.Choose);
// ql.Direct and ql.Alternative pin a translation explicitly.
func (t *Tool) Query(src string, schema *qb4olap.CubeSchema, v ql.Variant) (*olap.Cube, error) {
	cube, _, err := ql.Run(t.client, schema, src, v)
	return cube, err
}

// QueryAuto runs a QL program letting the planner auto-select the
// translation — Query with ql.Auto.
func (t *Tool) QueryAuto(src string, schema *qb4olap.CubeSchema) (*olap.Cube, error) {
	return t.Query(src, schema, ql.Auto)
}

// QueryContext is Query under a context: ctx cancels or bounds the
// SPARQL execution phase (evaluation in-process, the HTTP exchange for
// remote endpoints).
func (t *Tool) QueryContext(ctx context.Context, src string, schema *qb4olap.CubeSchema, v ql.Variant) (*olap.Cube, error) {
	cube, _, err := ql.RunContext(ctx, t.client, schema, src, v)
	return cube, err
}

// Run is Query with the pipeline exposed: the returned ql.Pipeline
// carries the intermediate artifacts and the per-phase wall times
// (parse / analyze / simplify / translate / execute), the
// Querying-module observability surface.
func (t *Tool) Run(src string, schema *qb4olap.CubeSchema, v ql.Variant) (*olap.Cube, *ql.Pipeline, error) {
	return ql.Run(t.client, schema, src, v)
}

// RunContext is Run under a context (see QueryContext).
func (t *Tool) RunContext(ctx context.Context, src string, schema *qb4olap.CubeSchema, v ql.Variant) (*olap.Cube, *ql.Pipeline, error) {
	return ql.RunContext(ctx, t.client, schema, src, v)
}

// SPARQL runs a raw SPARQL SELECT, mirroring the Querying module's
// option to formulate SPARQL queries manually.
func (t *Tool) SPARQL(query string) (*olap.Cube, error) {
	return t.SPARQLContext(context.Background(), query)
}

// SPARQLContext is SPARQL under a context.
func (t *Tool) SPARQLContext(ctx context.Context, query string) (*olap.Cube, error) {
	res, err := endpoint.SelectContext(ctx, t.client, query)
	if err != nil {
		return nil, err
	}
	cube := &olap.Cube{Measures: res.Vars}
	for _, row := range res.Rows {
		cell := olap.Cell{Values: make([]rdf.Term, len(row))}
		copy(cell.Values, row)
		cube.Cells = append(cube.Cells, cell)
	}
	return cube, nil
}

// QueryBoth runs both translations and verifies they agree, returning
// the direct result. It is the programmatic analogue of the demo's
// "run either one or both queries".
func (t *Tool) QueryBoth(src string, schema *qb4olap.CubeSchema) (*olap.Cube, error) {
	direct, err := t.Query(src, schema, ql.Direct)
	if err != nil {
		return nil, err
	}
	alt, err := t.Query(src, schema, ql.Alternative)
	if err != nil {
		return nil, err
	}
	if len(direct.Cells) != len(alt.Cells) {
		return nil, fmt.Errorf("core: translations disagree: %d vs %d cells", len(direct.Cells), len(alt.Cells))
	}
	return direct, nil
}
