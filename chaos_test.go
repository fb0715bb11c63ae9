package repro

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/demo"
	"repro/internal/endpoint"
	"repro/internal/faults"
	"repro/internal/ql"
)

// chaosSeed fixes the fault injector's decision sequence: queries run
// sequentially against the server, so a given (profile, seed) pair
// injects the same faults at the same points on every run.
const chaosSeed = 7

// preparedQuery is one corpus program with its clean-run expectations.
type preparedQuery struct {
	file string
	pipe *ql.Pipeline
	want map[ql.Variant]string // variant -> CSV of the fault-free cube
}

// TestChaosQueryCorpus runs the whole queries/ corpus through
// endpoint.Remote against a SPARQL server wrapped in the deterministic
// fault injector, one profile at a time. The resilience contract under
// faults: every query either produces a cube byte-identical to the
// fault-free run, or fails with a typed retryable *endpoint.Error —
// never a hang, a panic, or a silently wrong answer.
func TestChaosQueryCorpus(t *testing.T) {
	env, err := demo.Build(configFor(2000))
	if err != nil {
		t.Fatal(err)
	}

	// Clean expectations come from the in-process client: the same
	// store the chaos server evaluates against, with no HTTP in between.
	clean := endpoint.NewLocal(env.Store)
	files, err := filepath.Glob("queries/*.ql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no QL programs found under queries/: %v", err)
	}
	variants := []ql.Variant{ql.Direct, ql.Alternative}
	var corpus []preparedQuery
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ql.Prepare(string(src), env.Schema)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		q := preparedQuery{file: file, pipe: p, want: map[ql.Variant]string{}}
		for _, v := range variants {
			cube, err := ql.Execute(clean, p.Translation, v)
			if err != nil {
				t.Fatalf("%s/%s clean run: %v", file, v, err)
			}
			q.want[v] = cube.EncodeCSV()
		}
		corpus = append(corpus, q)
	}

	handler := endpoint.NewServer(env.Store).Handler()
	for _, name := range []string{"drops", "flaky5xx", "slow", "truncate", "chaos"} {
		t.Run(name, func(t *testing.T) {
			profile, ok := faults.ByName(name)
			if !ok {
				t.Fatalf("unknown fault profile %q", name)
			}
			inj := faults.New(profile, chaosSeed)
			hs := httptest.NewServer(inj.Handler(handler))
			defer hs.Close()

			r := endpoint.NewRemote(hs.URL)
			r.Retries = 5
			r.Timeout = 2 * time.Second
			r.Backoff = time.Millisecond // keep the schedule fast under test

			// The context bounds the whole profile run, so a resilience
			// bug shows up as a test failure, not a suite hang.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			matched, failedRetryable := 0, 0
			for _, q := range corpus {
				for _, v := range variants {
					cube, err := ql.ExecuteContext(ctx, r, q.pipe.Translation, v)
					if err != nil {
						if !endpoint.IsRetryable(err) {
							t.Errorf("%s/%s: non-retryable failure under %s: %v", q.file, v, name, err)
						} else {
							failedRetryable++
						}
						continue
					}
					if got := cube.EncodeCSV(); got != q.want[v] {
						t.Errorf("%s/%s: silently wrong result under %s faults", q.file, v, name)
						continue
					}
					matched++
				}
			}
			if matched == 0 {
				t.Errorf("no query survived the %s profile (retries exhausted on all %d runs)", name, failedRetryable)
			}
			t.Logf("%s: %d matched clean run, %d exhausted retries (typed retryable), %d retries by client, %d faults injected %v",
				name, matched, failedRetryable, r.RetryCount(), inj.Injected(), inj.Counts())
		})
	}
}
