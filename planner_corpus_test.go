package repro

import (
	"fmt"
	"os"
	"path/filepath"
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
