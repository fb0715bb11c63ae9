package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/endpoint"
	"repro/internal/eurostat"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// concurrencyQuery is a flat aggregation touching every observation —
// the group-by shape the engine is hammered with.
const concurrencyQuery = `
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX property: <http://eurostat.linked-statistics.org/property#>
PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>
SELECT ?c (SUM(?v) AS ?total) WHERE {
  ?o qb:dataSet <http://eurostat.linked-statistics.org/data/migr_asyappctzm> ;
     property:citizen ?c ;
     sdmx-measure:obsValue ?v .
} GROUP BY ?c`

// hammerQueriesAndUpdates runs parallel SELECTs against concurrent
// INSERT DATA updates through one SPARQL client and fails on any error
// or empty result. Run under -race (the Makefile's default check) this
// validates the engine/store/endpoint concurrency contract.
func hammerQueriesAndUpdates(t *testing.T, label string, c endpoint.SPARQLClient) {
	t.Helper()
	const (
		readers = 4
		queries = 8
		updates = 32
	)
	errc := make(chan error, readers*queries+updates)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				res, err := c.Select(concurrencyQuery)
				if err != nil {
					errc <- fmt.Errorf("%s: select: %w", label, err)
					return
				}
				if len(res.Rows) == 0 {
					errc <- fmt.Errorf("%s: select returned no rows", label)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			u := fmt.Sprintf(
				"INSERT DATA { <http://example.org/conc/s%d> <http://example.org/conc/p> %d . }", i, i)
			if err := c.Update(u); err != nil {
				errc <- fmt.Errorf("%s: update %d: %w", label, i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentQueryUpdate exercises parallel SELECTs racing INSERT
// DATA updates through both the in-process client (core.NewLocal) and
// the HTTP SPARQL protocol endpoint.
func TestConcurrentQueryUpdate(t *testing.T) {
	cfg := eurostat.DefaultConfig()
	cfg.TargetObservations = 2000

	t.Run("local", func(t *testing.T) {
		st, _ := eurostat.NewStore(cfg)
		tool := core.NewLocal(st)
		hammerQueriesAndUpdates(t, "local", tool.Client())
	})

	t.Run("http", func(t *testing.T) {
		st, _ := eurostat.NewStore(cfg)
		srv := httptest.NewServer(endpoint.NewServer(st).Handler())
		defer srv.Close()
		hammerQueriesAndUpdates(t, "http", endpoint.NewRemote(srv.URL))
	})
}

// The pair workload of TestSnapshotIsolationPairs: every subject under
// pair/ carries ex:left and ex:right with one value, always written and
// deleted together in one update operation.
const (
	pairHalves = `
PREFIX ex: <http://example.org/pair/>
SELECT ?s WHERE {
  { ?s ex:left ?v . FILTER NOT EXISTS { ?s ex:right ?v } }
  UNION
  { ?s ex:right ?v . FILTER NOT EXISTS { ?s ex:left ?v } }
}`
	pairCount = `
PREFIX ex: <http://example.org/pair/>
SELECT (COUNT(*) AS ?n) WHERE { { ?s ex:left ?v } UNION { ?s ex:right ?v } }`
	pairJoin = `
PREFIX ex: <http://example.org/pair/>
SELECT ?s ?v WHERE { ?s ex:left ?v . ?s ex:right ?v }`
)

func pairUpdate(verb string, i int) string {
	return fmt.Sprintf("PREFIX ex: <http://example.org/pair/>\n%s DATA { ex:s%d ex:left %d . ex:s%d ex:right %d . }", verb, i, i, i, i)
}

// hammerPairs runs a writer that alternately inserts and deletes a pair
// of triples in one operation against readers running a two-pattern
// anti-join and a two-scan COUNT. Under per-query snapshot isolation
// with atomic update operations no query sees half a pair.
func hammerPairs(t *testing.T, label string, c endpoint.SPARQLClient) {
	t.Helper()
	const (
		basePairs = 200
		readers   = 4
		queries   = 40
		flips     = 300
	)
	for i := 0; i < basePairs; i++ {
		if err := c.Update(pairUpdate("INSERT", i)); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, readers+1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < flips; i++ {
			verb := "INSERT"
			if i%2 == 1 {
				verb = "DELETE"
			}
			if err := c.Update(pairUpdate(verb, basePairs+i/2%7)); err != nil {
				errc <- fmt.Errorf("%s: update: %w", label, err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				select {
				case <-stop:
					return
				default:
				}
				halves, err := c.Select(pairHalves)
				if err != nil {
					errc <- fmt.Errorf("%s: select: %w", label, err)
					return
				}
				if len(halves.Rows) != 0 {
					errc <- fmt.Errorf("%s: a query saw half a pair: %v", label, halves.Rows)
					return
				}
				count, err := c.Select(pairCount)
				if err != nil {
					errc <- fmt.Errorf("%s: select: %w", label, err)
					return
				}
				if n, _ := strconv.Atoi(count.Binding(0, "n").Value); n%2 != 0 || n < 2*basePairs {
					errc <- fmt.Errorf("%s: COUNT over both halves = %d, want an even number ≥ %d", label, n, 2*basePairs)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSnapshotIsolationPairs checks the two halves of the store's
// isolation contract through the local engine and the HTTP endpoint:
// update operations are atomic to concurrent queries (hammerPairs), and
// a multi-scan query that started before a write sees none of it, even
// when the write is published while the query is still scanning.
func TestSnapshotIsolationPairs(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		hammerPairs(t, "local", core.NewLocal(store.New()).Client())
	})
	t.Run("http", func(t *testing.T) {
		srv := httptest.NewServer(endpoint.NewServer(store.New()).Handler())
		defer srv.Close()
		hammerPairs(t, "http", endpoint.NewRemote(srv.URL))
	})
	t.Run("started-before-write", func(t *testing.T) {
		st := store.New()
		e := sparql.NewEngine(st)
		const before = 50
		for i := 0; i < before; i++ {
			if err := e.ExecuteString(pairUpdate("INSERT", i)); err != nil {
				t.Fatal(err)
			}
		}
		q, err := sparql.ParseQuery(pairJoin)
		if err != nil {
			t.Fatal(err)
		}
		old := st.Snapshot()
		rows := 0
		err = e.StreamSelect(context.Background(), q,
			// The header arrives once the query has pinned its snapshot
			// and before its first scan: write and publish now.
			func([]string) error {
				for i := before; i < 2*before; i++ {
					if err := e.ExecuteString(pairUpdate("INSERT", i)); err != nil {
						return err
					}
				}
				if err := e.ExecuteString(pairUpdate("DELETE", 0)); err != nil {
					return err
				}
				if n := st.Len(rdf.Term{}); n != 2*(2*before-1) {
					return fmt.Errorf("store holds %d triples after the write, want %d", n, 2*(2*before-1))
				}
				return nil
			},
			func(chunk [][]rdf.Term) error { rows += len(chunk); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if rows != before {
			t.Errorf("a query started before the write joined %d pairs, want the %d of its snapshot", rows, before)
		}
		// The write interned a hundred new terms; every id the old
		// snapshot holds still lies inside the table it pinned (Term
		// would panic otherwise) and decodes as the dictionary does.
		for _, tr := range old.Range(store.NoID, store.IDTriple{}) {
			for _, id := range [3]store.ID{tr.S, tr.P, tr.O} {
				if got, want := old.Term(id), st.Dict().Term(id); got != want {
					t.Fatalf("the old snapshot decodes id %d as %v, the dictionary as %v", id, got, want)
				}
			}
		}
		if res, err := e.QueryString(pairJoin); err != nil || len(res.Rows) != 2*before-1 {
			t.Errorf("a query started after the write joined %d pairs (err %v), want %d", len(res.Rows), err, 2*before-1)
		}
	})
}
