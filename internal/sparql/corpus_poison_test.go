package sparql_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/eurostat"
	"repro/internal/ql"
	"repro/internal/sparql"
)

// TestCorpusByteIdenticalPoisoned is TestStreamingCorpusByteIdentical of
// the repository root with the rows a pipeline's consumer returns
// poisoned: the poison switch is unexported, so the twin lives here.
// Every query under queries/ — each QL program through both translations,
// each raw .rq probe — over the same 5 000-observation cube must hash to
// its line of testdata/corpus_results.golden at every chunk size of the
// original.
func TestCorpusByteIdenticalPoisoned(t *testing.T) {
	const root = "../../"
	cfg := eurostat.DefaultConfig()
	cfg.TargetObservations = 5000
	env, err := demo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]string{}
	files, _ := filepath.Glob(root + "queries/*.ql")
	rq, _ := filepath.Glob(root + "queries/*.rq")
	for _, file := range append(files, rq...) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(file)
		if strings.HasSuffix(name, ".rq") {
			probes[name] = string(src)
			continue
		}
		p, err := ql.Prepare(string(src), env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		probes[name+"/direct"], probes[name+"/alternative"] = p.Translation.Direct, p.Translation.Alternative
	}
	golden, err := os.ReadFile(root + "testdata/corpus_results.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(lines) != len(probes) {
		t.Fatalf("the golden file has %d entries, the corpus %d probes", len(lines), len(probes))
	}
	for _, cs := range []int{1, 7, 1024} {
		eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(cs))
		for _, want := range lines {
			name, _, _ := strings.Cut(want, "\t")
			var res *sparql.Results
			sparql.WithPoison(true, func() { res, err = eng.QueryString(probes[name]) })
			if err != nil {
				t.Fatalf("chunk=%d %s: %v", cs, name, err)
			}
			doc, err := res.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%s\t%d\t%x", name, res.Len(), sha256.Sum256(doc)); got != want {
				t.Errorf("chunk=%d: result differs from the frozen reference\ngot  %s\nwant %s", cs, got, want)
			}
		}
	}
}
