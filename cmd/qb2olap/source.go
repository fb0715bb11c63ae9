package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/endpoint"
	"repro/internal/eurostat"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// sourceFlags are the shared data-source flags.
type sourceFlags struct {
	endpointURL string
	dataFiles   fileList
	quadFiles   fileList
	demoObs     int
	seed        int64
	planner     string
	retries     int
	timeout     time.Duration
}

type fileList []string

func (f *fileList) String() string { return fmt.Sprint(*f) }

func (f *fileList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func (s *sourceFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&s.endpointURL, "endpoint", "", "remote SPARQL endpoint base URL")
	fs.Var(&s.dataFiles, "data", "Turtle file to load in-process (repeatable)")
	fs.Var(&s.quadFiles, "quads", "N-Quads file to load in-process, preserving named graphs (repeatable)")
	fs.IntVar(&s.demoObs, "demo", 0, "generate the demo cube with this many observations")
	fs.Int64Var(&s.seed, "seed", 42, "generator seed for -demo")
	fs.StringVar(&s.planner, "planner", "on", "cost-based query planner: on (reorder joins, push filters, auto-select QL translation) or off (joins and filters run as written)")
	fs.IntVar(&s.retries, "retries", 2, "retries per idempotent remote query on transient failures (0 disables; updates are never retried)")
	fs.DurationVar(&s.timeout, "timeout", 0, "per-attempt timeout for remote endpoint requests (0 = none)")
}

// plannerOn reports the -planner flag verdict. For remote sources the
// flag only governs client-side behavior (QL translation auto-selection
// falls back to the direct default); the server's own -planner flag
// governs its evaluation.
func (s *sourceFlags) plannerOn() bool { return s.planner != "off" }

// open builds the tool around the selected source.
func (s *sourceFlags) open() (*core.Tool, error) {
	if s.planner != "on" && s.planner != "off" && s.planner != "" {
		return nil, fmt.Errorf("invalid -planner value %q (want on or off)", s.planner)
	}
	if s.endpointURL != "" {
		r := endpoint.NewRemote(s.endpointURL)
		r.Retries = s.retries
		r.Timeout = s.timeout
		if s.retries > 0 {
			r.Breaker = endpoint.NewBreaker(5, time.Second)
		}
		return core.New(r), nil
	}
	st := store.New()
	for _, path := range s.dataFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		triples, _, err := turtle.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		st.InsertTriples(rdf.Term{}, triples)
	}
	for _, path := range s.quadFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		quads, err := turtle.ParseNQuads(string(data))
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		turtle.LoadQuads(st, quads)
	}
	if s.demoObs > 0 {
		cfg := eurostat.DefaultConfig()
		cfg.TargetObservations = s.demoObs
		cfg.Seed = s.seed
		eurostat.Generate(cfg).LoadInto(st)
	}
	if st.TotalLen() == 0 {
		return nil, fmt.Errorf("no data source: pass -endpoint, -data, or -demo")
	}
	return core.New(endpoint.NewLocal(st, sparql.WithPlanner(s.plannerOn()))), nil
}

// parseIRI reads an IRI flag value, accepting <...> or bare form.
func parseIRI(v string) rdf.Term {
	if len(v) >= 2 && v[0] == '<' && v[len(v)-1] == '>' {
		v = v[1 : len(v)-1]
	}
	return rdf.NewIRI(v)
}
