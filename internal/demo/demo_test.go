package demo

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/eurostat"
	"repro/internal/olap"
	"repro/internal/qb4olap"
	"repro/internal/ql"
	"repro/internal/rdf"
)

func TestBuildProducesValidSchema(t *testing.T) {
	env, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if probs := env.Schema.Validate(); len(probs) != 0 {
		t.Fatalf("schema problems: %v", probs)
	}
	// The demonstration hierarchy shapes from the paper.
	cit, ok := env.Schema.DimensionOfLevel(eurostat.PropCitizen)
	if !ok {
		t.Fatal("citizenship dimension missing")
	}
	if _, ok := cit.PathToLevel(eurostat.PropContinent); !ok {
		t.Error("citizenship lacks continent level")
	}
	all, ok := cit.PathToLevel(rdf.NewIRI("http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#citizenAll"))
	if !ok || len(all) != 2 {
		t.Errorf("citizenship all level path: %v %v", all, ok)
	}
	timeDim, _ := env.Schema.DimensionOfLevel(eurostat.PropTime)
	if p, ok := timeDim.PathToLevel(eurostat.PropYear); !ok || len(p) != 2 {
		t.Errorf("time hierarchy path: %v %v", p, ok)
	}
	age, _ := env.Schema.DimensionOfLevel(eurostat.PropAge)
	if _, ok := age.PathToLevel(eurostat.PropAgeClass); !ok {
		t.Error("age class level missing")
	}
	// Attributes used by the demo query's dices.
	geoLvl := env.Schema.Level(eurostat.PropGeo)
	if len(geoLvl.Attributes) == 0 {
		t.Error("geo countryName attribute missing")
	}
	contLvl := env.Schema.Level(eurostat.PropContinent)
	if len(contLvl.Attributes) == 0 {
		t.Error("continent continentName attribute missing")
	}
	// Measure default.
	if m, ok := env.Schema.Measure(eurostat.PropObs); !ok || m.Agg != qb4olap.Sum {
		t.Errorf("measure: %+v %v", m, ok)
	}
}

func TestBuildCommitsTriples(t *testing.T) {
	env, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Client.Select(`
PREFIX qb4o: <http://purl.org/qb4olap/cubes#>
SELECT (COUNT(?s) AS ?n) WHERE { ?s a qb4o:HierarchyStep }`)
	if err != nil {
		t.Fatal(err)
	}
	// citizen->continent, continent->all, geo->continent,
	// month->quarter, quarter->year, age->class = 6 steps.
	if got := res.Binding(0, "n").Value; got != "6" {
		t.Fatalf("committed steps = %s, want 6", got)
	}
}

// TestPredefinedQueriesAllRun executes every canned query in both
// translation variants and checks the variants agree.
func TestPredefinedQueriesAllRun(t *testing.T) {
	env, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range PredefinedQueries {
		t.Run(pq.Name, func(t *testing.T) {
			direct, _, err := ql.Run(env.Client, env.Schema, pq.QL, ql.Direct)
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			alt, _, err := ql.Run(env.Client, env.Schema, pq.QL, ql.Alternative)
			if err != nil {
				t.Fatalf("alternative: %v", err)
			}
			if len(direct.Cells) != len(alt.Cells) {
				t.Fatalf("variants disagree: %d vs %d cells", len(direct.Cells), len(alt.Cells))
			}
			if pq.Name != "busy-cells" && len(direct.Cells) == 0 {
				t.Fatalf("query %s returned no cells", pq.Name)
			}
		})
	}
	if _, ok := FindPredefinedQuery("mary"); !ok {
		t.Error("FindPredefinedQuery(mary) failed")
	}
	if _, ok := FindPredefinedQuery("nope"); ok {
		t.Error("FindPredefinedQuery(nope) should fail")
	}
}

// TestSecondLabelDoesNotMultiply gives every continent and every year
// member a second label, in French, as multilingual Linked Data
// dictionaries do. A label names a member and must not count its
// observations again: every predefined program yields the same
// coordinates and measures through both translations as on the cube
// with one label per member.
func TestSecondLabelDoesNotMultiply(t *testing.T) {
	plain, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = twice.Client.Update(`
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
INSERT { ?m rdfs:label ?fr }
WHERE {
  { ?c schema:continent ?m } UNION { ?q schema:year ?m }
  ?m rdfs:label ?en .
  BIND(STRLANG(CONCAT(STR(?en), " (fr)"), "fr") AS ?fr)
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := twice.Client.Select(`
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
SELECT DISTINCT ?m WHERE { ?c schema:continent ?m . ?m rdfs:label ?fr FILTER(LANG(?fr) = "fr") }`)
	if err != nil || res.Len() == 0 {
		t.Fatalf("no continent got a second label: %d rows, err %v", res.Len(), err)
	}
	sameCells(t, plain, twice, "two labels per member")
}

// TestSecondAttributeValueDoesNotMultiply gives the members a DICE
// attribute selects a second value: the geo and citizen members named
// France a second countryName "France"@fr, which a string comparison
// matches too, and every continent a second continentName in French,
// which it does not. A DICE keeps a member when some value of the
// attribute satisfies it, and counts the member's observations once:
// every predefined program yields, through both translations, the cells
// of the cube with one value per attribute.
func TestSecondAttributeValueDoesNotMultiply(t *testing.T) {
	plain, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Build(eurostat.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	err = twice.Client.Update(`
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
INSERT { ?m schema:countryName "France"@fr }
WHERE { ?m schema:countryName ?n FILTER(STR(?n) = "France") } ;
INSERT { ?c schema:continentName ?fr }
WHERE {
  ?c schema:continentName ?n .
  BIND(STRLANG(CONCAT(STR(?n), " (fr)"), "fr") AS ?fr)
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := twice.Client.Select(`
PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>
SELECT ?m WHERE { ?m schema:countryName "France"@fr . ?m schema:countryName "France" }`)
	if err != nil || res.Len() == 0 {
		t.Fatalf("no member named France got a second countryName: %d rows, err %v", res.Len(), err)
	}
	sameCells(t, plain, twice, "two values per DICE attribute")
}

// sameCells runs every predefined program on both cubes and requires the
// mutated cube to give, through both translations, the plain cube's
// coordinates and measures.
func sameCells(t *testing.T, plain, mutated *Enriched, what string) {
	t.Helper()
	for _, pq := range PredefinedQueries {
		want, _, err := ql.Run(plain.Client, plain.Schema, pq.QL, ql.Direct)
		if err != nil {
			t.Fatalf("%s: %v", pq.Name, err)
		}
		for _, v := range []ql.Variant{ql.Direct, ql.Alternative} {
			got, _, err := ql.Run(mutated.Client, mutated.Schema, pq.QL, v)
			if err != nil {
				t.Fatalf("%s/%s: %v", pq.Name, v, err)
			}
			if g, w := cellLines(got), cellLines(want); g != w {
				t.Errorf("%s/%s with %s:\n%s\nwant, as with one:\n%s", pq.Name, v, what, g, w)
			}
		}
	}
}

// cellLines renders a cube's coordinates and measures, one sorted line
// per cell, leaving out the labels.
func cellLines(c *olap.Cube) string {
	lines := make([]string, 0, len(c.Cells))
	for _, cell := range c.Cells {
		lines = append(lines, fmt.Sprint(cell.Coords, cell.Values))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
