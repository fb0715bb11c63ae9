package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/demo"
	"repro/internal/ql"
	"repro/internal/sparql"
)

// atOnce calls query from n goroutines at once and returns what each
// call returned. A query evaluates on its caller's goroutine, so the one
// concurrency evaluation has is queries beside each other on one engine
// and store: the corpus and cancellation matrices run each query n at
// once (par=n) and hold every copy to the same answer.
func atOnce[T any](n int, query func() (T, error)) ([]T, []error) {
	out, errs := make([]T, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = query()
		}()
	}
	wg.Wait()
	return out, errs
}

// corpusProbe is one query of the queries/ corpus.
type corpusProbe struct{ name, text string }

// corpusProbes collects the corpus: both translations of every QL
// program under queries/, plus every raw SPARQL probe.
func corpusProbes(t *testing.T, env *demo.Enriched) []corpusProbe {
	t.Helper()
	var probes []corpusProbe
	qlFiles, err := filepath.Glob("queries/*.ql")
	if err != nil || len(qlFiles) == 0 {
		t.Fatalf("no QL programs found under queries/: %v", err)
	}
	for _, file := range qlFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ql.Prepare(string(src), env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		probes = append(probes,
			corpusProbe{filepath.Base(file) + "/direct", p.Translation.Direct},
			corpusProbe{filepath.Base(file) + "/alternative", p.Translation.Alternative})
	}
	rqFiles, err := filepath.Glob("queries/*.rq")
	if err != nil || len(rqFiles) == 0 {
		t.Fatalf("no .rq probes found under queries/: %v", err)
	}
	for _, file := range rqFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, corpusProbe{filepath.Base(file), string(src)})
	}
	return probes
}

// corpusLine renders one line of testdata/corpus_results.golden: probe
// name, row count, and the SHA-256 of the result's JSON serialization.
func corpusLine(t *testing.T, name string, res *sparql.Results) string {
	t.Helper()
	return fmt.Sprintf("%s\t%d\t%x", name, res.Len(), sha256.Sum256(resultsJSON(t, res)))
}

// resultsJSON serializes res in the SPARQL JSON results format, through
// the encoder the endpoint streams with.
func resultsJSON(t *testing.T, res *sparql.Results) []byte {
	t.Helper()
	var doc bytes.Buffer
	if err := encodeWire(&doc, res); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

const corpusGolden = "testdata/corpus_results.golden"

// corpusReference reads the frozen reference, keyed by probe name.
func corpusReference(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run StreamingCorpus -update): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, _, _ := strings.Cut(line, "\t")
		want[name] = line
	}
	return want
}

// TestStreamingCorpusByteIdentical is the pipeline's acceptance gate
// for correctness: every query under queries/ — each QL program through
// both SPARQL translations, plus the raw .rq probes — must return JSON
// result tables byte-identical to the frozen reference in
// testdata/corpus_results.golden at chunk sizes 1 (every boundary
// exercised), 7 (misaligned boundaries), and 1024 (the default), each
// probe run 1, 4 and 8 at once on one engine (par=N, atOnce). The
// reference was recorded from the fully materialized evaluator before
// it was deleted; -update rewrites it from the default engine, so any
// drift is a reviewable diff. The suite runs under -race via `make
// race`, so it doubles as a data-race check on queries that share an
// engine and a store snapshot.
func TestStreamingCorpusByteIdentical(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	probes := corpusProbes(t, env)

	if *updateGolden {
		eng := sparql.NewEngine(env.Store)
		var b strings.Builder
		for _, p := range probes {
			res, err := eng.QueryString(p.text)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			b.WriteString(corpusLine(t, p.name, res) + "\n")
		}
		if err := os.WriteFile(corpusGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", corpusGolden)
		return
	}

	want := corpusReference(t)
	if len(want) != len(probes) {
		t.Fatalf("%s has %d entries, corpus has %d probes (run with -update and review the diff)",
			corpusGolden, len(want), len(probes))
	}

	for _, par := range []int{1, 4, 8} {
		for _, cs := range []int{1, 7, 1024} {
			eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(cs))
			for _, p := range probes {
				t.Run(fmt.Sprintf("par=%d/chunk=%d/%s", par, cs, p.name), func(t *testing.T) {
					got, errs := atOnce(par, func() (*sparql.Results, error) { return eng.QueryString(p.text) })
					for i, res := range got {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						if line := corpusLine(t, p.name, res); line != want[p.name] {
							t.Errorf("result differs from the frozen reference\ngot  %s\nwant %s", line, want[p.name])
						}
					}
				})
			}
		}
	}
}
