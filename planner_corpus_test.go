package repro

import (
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
// translations, with the engine built under GOMAXPROCS 1, 4 and 8
// (par=N, atProcs) so that its join fans out that wide, must return
// byte-identical JSON result tables with the planner on and off. Join
// reordering and filter pushdown may only change the evaluation order,
// never the rows, their order (ORDER BY pins it), or their
// serialization. The suite runs under -race via `make race`, so this
// doubles as a data-race check on plan sharing across the join's
// workers.
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
		on := atProcs(par, func() *sparql.Engine { return sparql.NewEngine(env.Store) })
		off := atProcs(par, func() *sparql.Engine { return sparql.NewEngine(env.Store, sparql.WithPlanner(false)) })
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
					resOn, err := on.QueryString(q.text)
					if err != nil {
						t.Fatalf("planner on: %v", err)
					}
					resOff, err := off.QueryString(q.text)
					if err != nil {
						t.Fatalf("planner off: %v", err)
					}
					jsonOn, err := resOn.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					jsonOff, err := resOff.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if string(jsonOn) != string(jsonOff) {
						t.Errorf("planner on/off results differ (%d vs %d rows)",
							resOn.Len(), resOff.Len())
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
