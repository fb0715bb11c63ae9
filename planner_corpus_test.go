package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/ql"
	"repro/internal/sparql"
)

// TestPlannerCorpusByteIdentical is the planner's acceptance gate for
// correctness: every QL program under queries/, through both SPARQL
// translations, run 1, 4 and 8 at once on each engine (par=N, atOnce),
// must return byte-identical JSON result tables with the planner on and
// off. Join reordering and filter pushdown may only change the
// evaluation order, never the rows, their order (ORDER BY pins it), or
// their serialization. The suite runs under -race via `make race`, so
// this doubles as a data-race check on queries that plan and evaluate
// side by side on one engine.
func TestPlannerCorpusByteIdentical(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("queries/*.ql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no QL programs found under queries/: %v", err)
	}
	for _, par := range []int{1, 4, 8} {
		on := sparql.NewEngine(env.Store)
		off := sparql.NewEngine(env.Store, sparql.WithPlanner(false))
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ql.Prepare(string(src), env.Schema)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for _, q := range []struct{ variant, text string }{
				{"direct", p.Translation.Direct},
				{"alternative", p.Translation.Alternative},
			} {
				t.Run(fmt.Sprintf("par=%d/%s/%s", par, filepath.Base(file), q.variant), func(t *testing.T) {
					resOn, errsOn := atOnce(par, func() (*sparql.Results, error) { return on.QueryString(q.text) })
					resOff, errsOff := atOnce(par, func() (*sparql.Results, error) { return off.QueryString(q.text) })
					for i := range resOn {
						if errsOn[i] != nil {
							t.Fatalf("planner on: %v", errsOn[i])
						}
						if errsOff[i] != nil {
							t.Fatalf("planner off: %v", errsOff[i])
						}
						jsonOn := resultsJSON(t, resOn[i])
						if !bytes.Equal(jsonOn, resultsJSON(t, resOff[i])) {
							t.Errorf("planner on/off results differ (%d vs %d rows)",
								resOn[i].Len(), resOff[i].Len())
						}
						if !bytes.Equal(jsonOn, resultsJSON(t, resOn[0])) {
							t.Errorf("query %d of %d at once differs from the first", i+1, par)
						}
					}
				})
			}
		}
	}
}

// TestPlannerKeepsObservationStar EXPLAINs the alternative translation
// of the paper's Mary query. Its inner BGP joins five patterns on ?o
// whose estimates tie after the first; the planner takes, of equal
// estimates, one that shares the last pattern's subject, so all five
// form one STAR level. Written order alone interposes the citizen roll-up
// and leaves ?o geo as a JOIN after the star, which probes the
// snapshot once more per observation.
func TestPlannerKeepsObservationStar(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := demo.FindPredefinedQuery("mary")
	p, err := ql.Prepare(pq.QL, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := sparql.NewEngine(env.Store).QueryTracedString(p.Translation.Alternative)
	if err != nil {
		t.Fatal(err)
	}
	outline := tr.Outline()
	star := false
	for _, line := range strings.Split(outline, "\n") {
		switch {
		case strings.Contains(line, "STAR ?o "):
			star = true
		case star && strings.Contains(line, "JOIN ?o "):
			t.Fatalf("a JOIN on ?o follows the ?o star:\n%s", outline)
		}
	}
	if !star {
		t.Fatalf("no STAR level on ?o:\n%s", outline)
	}
}
