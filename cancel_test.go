package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/endpoint"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/sparql"
)

// cancelSeed fixes the randomized cancel points, so a run that
// exposes a slow cancellation path can be replayed.
const cancelSeed = 11

// TestQueryCancellationProperty cancels the paper's Mary query at
// seeded random points during evaluation, run 1, 4 and 8 at once on one
// client (parallel=N) under one context, and asserts the cancellation
// contract for every copy: the call returns promptly (well under 250ms
// from cancel), the error is a cooperative *sparql.CanceledError
// satisfying errors.Is(err, context.Canceled), and no goroutines are
// leaked. Run under -race (the Makefile default) this also validates
// that cancelling queries never races the queries beside them.
func TestQueryCancellationProperty(t *testing.T) {
	obsCount := 80000
	if testing.Short() {
		obsCount = 5000
	}
	env, err := demo.Build(configFor(obsCount))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("queries/mary.ql")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := ql.Prepare(string(src), env.Schema)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(cancelSeed))
	for _, par := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			client := endpoint.NewLocal(env.Store)
			before := runtime.NumGoroutine()

			// Uncanceled baseline: both the correctness anchor and the
			// window the random cancel points are drawn from.
			start := time.Now()
			if _, err := ql.ExecuteContext(context.Background(), client, pipe.Translation, ql.Direct); err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			full := time.Since(start)

			const rounds = 6
			canceled := 0
			var maxLat time.Duration
			for i := 0; i < rounds; i++ {
				delay := time.Duration(rng.Int63n(int64(full) + 1))
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, par)
				for k := 0; k < par; k++ {
					go func() {
						_, err := ql.ExecuteContext(ctx, client, pipe.Translation, ql.Direct)
						done <- err
					}()
				}
				time.Sleep(delay)
				cancelAt := time.Now()
				cancel()
				for k := 0; k < par; k++ {
					var runErr error
					select {
					case runErr = <-done:
					case <-time.After(5 * time.Second):
						t.Fatalf("round %d (delay %v): evaluation ignored cancel", i, delay)
					}
					lat := time.Since(cancelAt)
					if lat > maxLat {
						maxLat = lat
					}
					if lat > 250*time.Millisecond {
						t.Errorf("round %d (delay %v): returned %v after cancel, want <250ms", i, delay, lat)
					}
					if runErr == nil {
						continue // finished before the cancel landed
					}
					canceled++
					if !errors.Is(runErr, context.Canceled) {
						t.Errorf("round %d: error does not unwrap to context.Canceled: %v", i, runErr)
					}
					var ce *sparql.CanceledError
					if !errors.As(runErr, &ce) {
						t.Errorf("round %d: error is not a cooperative *sparql.CanceledError: %v", i, runErr)
					}
				}
			}
			t.Logf("baseline %v, %d/%d queries canceled mid-flight, max cancel→return latency %v",
				full, canceled, rounds*par, maxLat)

			// Leak check: nothing a canceled query started may linger,
			// parked on a channel.
			deadline := time.Now().Add(2 * time.Second)
			for {
				if n := runtime.NumGoroutine(); n <= before+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutine leak after canceled runs: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestCancelMidFold cancels a grouped query while its GROUP BY is
// folding the WHERE stream: the fold checks the context at every chunk,
// so the call returns promptly with the cooperative error, and the
// trace of the interrupted run shows the AGGREGATE span stopped part
// way — some rows folded, fewer than the query has, no group emitted.
// The query is the aggregating sub-select of the predefined
// continent-year roll-up, whose every observation reaches the fold.
func TestCancelMidFold(t *testing.T) {
	obsCount := 80000
	if testing.Short() {
		obsCount = 5000
	}
	env, err := demo.Build(configFor(obsCount))
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := demo.FindPredefinedQuery("continent-year")
	pipe, err := ql.Prepare(pq.QL, env.Schema)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := aggregatingSubSelect(t, pipe.Translation.Direct)
	// A small chunk gives the cancel many boundaries to land on.
	eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(64))
	folded := func(tr *obs.Trace) (in, out int) {
		tr.Root.Visit(func(sp *obs.Span) {
			if sp.Op == "AGGREGATE" {
				in, out = sp.In, sp.Out
			}
		})
		return in, out
	}

	start := time.Now()
	_, tr, err := eng.QueryTracedContext(context.Background(), q)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	full := time.Since(start)
	total, groups := folded(tr)
	if total < obsCount/2 || groups == 0 {
		t.Fatalf("baseline folded %d rows into %d groups: the query no longer sends the cube through GROUP BY", total, groups)
	}

	// Cancel at shrinking fractions of the uncancelled run time until one
	// lands inside the fold.
	for _, frac := range []float64{0.5, 0.3, 0.15, 0.7, 0.05} {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelAt time.Time
		timer := time.AfterFunc(time.Duration(frac*float64(full)), func() { cancelAt = time.Now(); cancel() })
		_, tr, err := eng.QueryTracedContext(ctx, q)
		returned := time.Now()
		timer.Stop()
		cancel()
		if err == nil {
			continue // finished before the cancel landed
		}
		var ce *sparql.CanceledError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: err = %v, want a *sparql.CanceledError wrapping context.Canceled", err)
		}
		if lat := returned.Sub(cancelAt); lat > 250*time.Millisecond {
			t.Errorf("returned %v after cancel, want <250ms", lat)
		}
		in, out := folded(tr)
		if in == 0 {
			continue // cancelled before the first chunk reached the fold
		}
		if in >= total || out != 0 {
			t.Fatalf("cancelled run folded %d of %d rows and emitted %d groups, want a partial fold and none", in, total, out)
		}
		t.Logf("cancelled at %.0f %% of %v: %d of %d rows folded", 100*frac, full, in, total)
		return
	}
	t.Fatal("no cancel landed inside the fold in five attempts")
}

// TestCancelMidSemiJoin cancels a query while it evaluates a semi-join
// set: the set's pattern streams through the pipeline, which checks the
// context at every chunk, so the call returns within TestCancelMidFold's
// bound with the cooperative error, and the trace of the interrupted run
// shows the SEMIJOIN span stopped part way — rows of its pattern read,
// the set never finished. The set is the data sets with a negative
// observation: none, found by reading every observation.
func TestCancelMidSemiJoin(t *testing.T) {
	obsCount := 80000
	if testing.Short() {
		obsCount = 5000
	}
	env, err := demo.Build(configFor(obsCount))
	if err != nil {
		t.Fatal(err)
	}
	q, err := sparql.ParseQuery(`PREFIX qb: <http://purl.org/linked-data/cube#>
SELECT ?d WHERE {
  VALUES ?d { <http://eurostat.linked-statistics.org/data/migr_asyappctzm> }
  FILTER EXISTS { ?o qb:dataSet ?d . ?o <http://purl.org/linked-data/sdmx/2009/measure#obsValue> ?v . FILTER(?v < 0) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(env.Store, sparql.WithChunkSize(64))
	// read reports the rows the set's pattern produced and whether the
	// set was finished.
	read := func(tr *obs.Trace) (rows int, done bool) {
		tr.Root.Visit(func(sp *obs.Span) {
			if sp.Op != "SEMIJOIN" {
				return
			}
			done = sp.Estimated()
			for _, c := range sp.Children {
				rows = max(rows, c.Out)
			}
		})
		return rows, done
	}

	start := time.Now()
	_, tr, err := eng.QueryTracedContext(context.Background(), q)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	full := time.Since(start)
	if total, done := read(tr); total < obsCount/2 || !done {
		t.Fatalf("baseline set read %d rows (finished %v): the query no longer evaluates a set over the cube", total, done)
	}

	for _, frac := range []float64{0.5, 0.3, 0.15, 0.7, 0.05} {
		ctx, cancel := context.WithCancel(context.Background())
		var cancelAt time.Time
		timer := time.AfterFunc(time.Duration(frac*float64(full)), func() { cancelAt = time.Now(); cancel() })
		_, tr, err := eng.QueryTracedContext(ctx, q)
		returned := time.Now()
		timer.Stop()
		cancel()
		if err == nil {
			continue // finished before the cancel landed
		}
		var ce *sparql.CanceledError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: err = %v, want a *sparql.CanceledError wrapping context.Canceled", err)
		}
		if lat := returned.Sub(cancelAt); lat > 250*time.Millisecond {
			t.Errorf("returned %v after cancel, want <250ms", lat)
		}
		rows, done := read(tr)
		if rows == 0 || done {
			continue // cancelled before the set's first chunk, or after the set
		}
		t.Logf("cancelled at %.0f %% of %v: the set's pattern read %d rows", 100*frac, full, rows)
		return
	}
	t.Fatal("no cancel landed inside the set's evaluation in five attempts")
}

// aggregatingSubSelect parses a QL translation and returns the sub-select
// that folds the observations into their groups, beside the outer query
// that joins labels to those groups.
func aggregatingSubSelect(t *testing.T, text string) (sub, outer *sparql.Query) {
	t.Helper()
	outer, err := sparql.ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range outer.Where.Elements {
		if ss, ok := el.(sparql.SubSelectElement); ok {
			return ss.Query, outer
		}
	}
	t.Fatalf("translation has no aggregating sub-select:\n%s", text)
	return nil, nil
}
