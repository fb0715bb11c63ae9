package repro

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/ql"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// streamCancelSeed fixes the randomized cancel points so a run that
// exposes a slow cancellation path can be replayed.
const streamCancelSeed = 23

// TestStreamingCancellationCorpus cancels streamed evaluations of the
// whole query corpus at seeded random points and asserts the
// chunk-boundary cancellation contract: prompt return (<250ms from
// cancel), a cooperative *sparql.CanceledError, and no leaked
// goroutines. Evaluation is synchronous — a query starts no goroutine
// of its own — so the leak check guards that it stays so.
func TestStreamingCancellationCorpus(t *testing.T) {
	env, err := demo.Build(configFor(5000))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("queries/*.ql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no QL programs under queries/: %v", err)
	}
	var queries []string
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ql.Prepare(string(src), env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		queries = append(queries, p.Translation.Direct, p.Translation.Alternative)
	}

	// Chunk size 1 maximizes the number of chunk boundaries a cancel
	// can land on.
	eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(1))
	rng := rand.New(rand.NewSource(streamCancelSeed))
	before := runtime.NumGoroutine()

	canceled := 0
	var maxLat time.Duration
	for qi, query := range queries {
		// Uncanceled baseline: correctness anchor and the window the
		// cancel point is drawn from.
		start := time.Now()
		if _, err := eng.QueryStringContext(context.Background(), query); err != nil {
			t.Fatalf("query %d baseline: %v", qi, err)
		}
		full := time.Since(start)

		for round := 0; round < 2; round++ {
			delay := time.Duration(rng.Int63n(int64(full) + 1))
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := eng.QueryStringContext(ctx, query)
				done <- err
			}()
			time.Sleep(delay)
			cancelAt := time.Now()
			cancel()
			var runErr error
			select {
			case runErr = <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("query %d round %d: streamed evaluation ignored cancel", qi, round)
			}
			if lat := time.Since(cancelAt); lat > maxLat {
				maxLat = lat
			}
			if lat := time.Since(cancelAt); lat > 250*time.Millisecond {
				t.Errorf("query %d round %d: returned %v after cancel, want <250ms", qi, round, lat)
			}
			if runErr == nil {
				continue // finished before the cancel landed
			}
			canceled++
			var ce *sparql.CanceledError
			if !errors.As(runErr, &ce) || !errors.Is(runErr, context.Canceled) {
				t.Errorf("query %d round %d: error is not a cooperative cancel: %v", qi, round, runErr)
			}
		}
	}
	t.Logf("%d queries, %d mid-flight cancels, max cancel→return latency %v",
		len(queries), canceled, maxLat)
	if canceled == 0 {
		t.Log("no cancel landed mid-flight; corpus too fast for the drawn delays")
	}

	// Leak check: join workers must drain after canceled runs.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after canceled streamed runs: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamSelectCancelEveryBoundary drives StreamSelect directly and
// cancels at every possible chunk boundary of the heaviest corpus
// query, proving no boundary index leaks a held charge or hangs: the
// deterministic complement of the randomized test above.
func TestStreamSelectCancelEveryBoundary(t *testing.T) {
	env, err := demo.Build(configFor(2000))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("queries/mary.ql")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ql.Prepare(string(src), env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.ParseQuery(p.Translation.Direct)
	if err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(64))

	// Count the boundaries once.
	total := 0
	err = eng.StreamSelect(context.Background(), q,
		func([]string) error { return nil },
		func([][]rdf.Term) error { total++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("query produced no chunks")
	}

	for at := 0; at < total; at++ {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := eng.StreamSelect(ctx, q,
			func([]string) error { return nil },
			func([][]rdf.Term) error {
				if seen == at {
					cancel()
				}
				seen++
				return nil
			})
		cancel()
		if at == total-1 && err == nil {
			// A cancel landing in the final chunk's callback may lose
			// the race with a clean EOF; full delivery is a valid
			// outcome there.
			continue
		}
		var ce *sparql.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("cancel at boundary %d/%d: err = %v, want *CanceledError", at, total, err)
		}
	}
}
