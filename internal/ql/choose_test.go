package ql

import (
	"testing"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// plainClient implements endpoint.SPARQLClient but not
// endpoint.CostEstimator — the shape of a third-party client Choose
// must degrade gracefully for.
type plainClient struct{}

func (plainClient) Select(string) (*sparql.Results, error) { return nil, nil }
func (plainClient) Update(string) error                    { return nil }

func TestChooseFallsBackWithoutEstimator(t *testing.T) {
	tr := &Translation{Direct: "SELECT * WHERE { ?s ?p ?o }", Alternative: "SELECT * WHERE { ?s ?p ?o }"}
	sel := Choose(plainClient{}, tr)
	if !sel.Heuristic {
		t.Fatalf("Choose over a non-estimator client: %+v, want heuristic", sel)
	}
	if sel.Variant != Direct {
		t.Fatalf("heuristic variant = %s, want direct", sel.Variant)
	}
	if got := sel.String(); got != "direct (heuristic)" {
		t.Fatalf("Selection.String() = %q", got)
	}
}

func TestChooseFallsBackWhenPlannerOff(t *testing.T) {
	client := endpoint.NewLocal(store.New(), sparql.WithPlanner(false))
	tr := &Translation{Direct: "SELECT * WHERE { ?s ?p ?o }", Alternative: "SELECT * WHERE { ?s ?p ?o }"}
	sel := Choose(client, tr)
	if !sel.Heuristic || sel.Variant != Direct {
		t.Fatalf("Choose against a planner-off local: %+v, want heuristic direct", sel)
	}
}

func TestChooseTieBreaksToDirect(t *testing.T) {
	// Identical translations estimate identical costs; the tie must go
	// to the direct variant deterministically.
	client := endpoint.NewLocal(store.New())
	const q = "SELECT * WHERE { ?s ?p ?o }"
	sel := Choose(client, &Translation{Direct: q, Alternative: q})
	if sel.Heuristic {
		t.Fatalf("planner-on local fell back to heuristic: %+v", sel)
	}
	if sel.Variant != Direct {
		t.Fatalf("tie broke to %s, want direct", sel.Variant)
	}
	if sel.Cost > sel.Other || sel.Cost < 0 {
		t.Fatalf("selection costs inconsistent: %+v", sel)
	}
}

func TestChooseDemoQueryPicksCheaperTranslation(t *testing.T) {
	env := demoCube(t)
	p, err := Prepare(demoQuery, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	client := endpoint.NewLocal(env.Store)
	sel := Choose(client, p.Translation)
	if sel.Heuristic {
		t.Fatalf("planner-on local fell back to heuristic: %+v", sel)
	}
	if sel.Cost > sel.Other {
		t.Fatalf("Choose picked the costlier arm: %+v", sel)
	}
	// Executing through the Auto variant must resolve and cache the
	// same selection, then run the chosen translation.
	cube, err := Execute(client, p.Translation, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if len(cube.Cells) == 0 {
		t.Fatal("Auto execution returned an empty cube")
	}
	if p.Translation.Selection == nil {
		t.Fatal("Auto execution did not cache its selection on the translation")
	}
	if p.Translation.Selection.Variant != sel.Variant {
		t.Fatalf("cached selection %s differs from Choose result %s",
			p.Translation.Selection.Variant, sel.Variant)
	}
}

// TestChooseDecisionCounters checks every Choose return path bumps its
// process-wide decision counter: a cost-based pick moves direct or
// alternative, an estimator-less client moves heuristic.
func TestChooseDecisionCounters(t *testing.T) {
	st := store.New()
	client := endpoint.NewLocal(st)
	q := "SELECT * WHERE { ?s ?p ?o }"

	d0, a0, h0 := ChooseStats()
	Choose(client, &Translation{Direct: q, Alternative: q}) // tie → direct
	if d, _, _ := ChooseStats(); d != d0+1 {
		t.Fatalf("direct counter = %d, want %d", d, d0+1)
	}
	Choose(plainClient{}, &Translation{Direct: q, Alternative: q}) // no estimator → heuristic
	if _, _, h := ChooseStats(); h != h0+1 {
		t.Fatalf("heuristic counter = %d, want %d", h, h0+1)
	}
	// An alternative win: on a populated store a two-pattern join costs
	// more than the single-pattern alternative arm.
	st.InsertTriples(rdf.Term{}, []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b")),
		rdf.NewTriple(rdf.NewIRI("http://ex/b"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/c")),
	})
	sel := Choose(client, &Translation{
		Direct:      "SELECT * WHERE { ?s ?p ?o . ?o ?p2 ?x . ?x ?p3 ?y }",
		Alternative: "SELECT * WHERE { ?s <http://ex/p> ?o }",
	})
	if sel.Variant != Alternative || sel.Heuristic {
		t.Fatalf("selection = %+v, want cost-based alternative", sel)
	}
	if _, a, _ := ChooseStats(); a != a0+1 {
		t.Fatalf("alternative counter = %d, want %d", a, a0+1)
	}
}
