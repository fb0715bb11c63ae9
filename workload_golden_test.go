package repro

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/demo"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/sparql"
)

// TestWorkloadGoldenQueriesCorpus pins the canonical /workload view of
// the queries/ corpus against a golden file: every QL program's two
// SPARQL translations are evaluated with resource accounting on a
// deterministic demo store (seed 42), folded into a
// workload registry, and rendered with the timing-dependent columns
// zeroed (Canonical). Shape hashes, per-shape counts, and the
// accounted rows/bytes are all deterministic for a fixed corpus, so
// this catches silent drift in the shape normalizer, the hash, and the
// byte cost model alike.
func TestWorkloadGoldenQueriesCorpus(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store)

	files, err := filepath.Glob("queries/*.ql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no QL programs found under queries/: %v", err)
	}
	wl := obs.NewWorkload()
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ql.Prepare(string(src), env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, text := range []string{p.Translation.Direct, p.Translation.Alternative} {
			acct := obs.NewQueryAcct(nil, 0)
			ctx := sparql.WithQueryAcct(context.Background(), acct)
			if _, err := eng.QueryStringContext(ctx, text); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			acct.Finish()
			wl.Record(obs.QueryRecord{Query: text, Rows: acct.Rows(), MemBytes: acct.Bytes(), Outcome: obs.OutcomeOK})
		}
	}
	got := wl.Snapshot().Canonical().RenderText()

	golden := filepath.Join("testdata", "workload_queries.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run WorkloadGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("workload view drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
