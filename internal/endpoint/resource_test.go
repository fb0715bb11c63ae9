package endpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// resourceFixture builds a store with n items carrying a type, a value,
// and a label — enough rows for a join to materialize real intermediate
// bytes.
func resourceFixture(n int) *store.Store {
	st := store.New()
	typ := rdf.NewIRI("http://ex/type")
	item := rdf.NewIRI("http://ex/Item")
	val := rdf.NewIRI("http://ex/value")
	lbl := rdf.NewIRI("http://ex/label")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/item/%05d", i))
		ts = append(ts,
			rdf.NewTriple(s, typ, item),
			rdf.NewTriple(s, val, rdf.NewInteger(int64(i))),
			rdf.NewTriple(s, lbl, rdf.NewLiteral(fmt.Sprintf("item number %d with some label text", i))),
		)
	}
	st.InsertTriples(rdf.Term{}, ts)
	return st
}

const wideQuery = `SELECT ?s ?v ?l WHERE {
	?s <http://ex/type> <http://ex/Item> ;
	   <http://ex/value> ?v ;
	   <http://ex/label> ?l }`

// TestMemLimitHTTP checks the admission limit end to end: an
// over-budget query gets 429 with the marker header, the counter moves,
// and the in-flight gauge returns to zero afterwards.
func TestMemLimitHTTP(t *testing.T) {
	srv := NewServer(resourceFixture(2000))
	srv.MaxQueryMem = 4 << 10
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.PostForm(hs.URL+"/sparql", url.Values{"query": {wideQuery}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(MemLimitHeader) == "" {
		t.Error("429 missing the mem-limit marker header")
	}
	if !strings.Contains(string(body), "memory budget") {
		t.Errorf("body = %q", body)
	}
	m := metricsSnapshot(t, hs.URL)
	if got, _ := m["queries_over_mem_total"].(float64); got != 1 {
		t.Errorf("queries_over_mem_total = %v, want 1", got)
	}
	if got, _ := m["query_mem_inflight_bytes"].(float64); got != 0 {
		t.Errorf("query_mem_inflight_bytes = %v after abort, want 0", got)
	}
	if got, _ := m["query_mem_highwater_bytes"].(float64); got <= 0 {
		t.Errorf("query_mem_highwater_bytes = %v, want > 0", got)
	}

	// An affordable query on the same server still works.
	resp, err = http.PostForm(hs.URL+"/sparql", url.Values{
		"query": {`SELECT ?s WHERE { <http://ex/item/00000> <http://ex/value> ?s }`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small query status = %d, want 200", resp.StatusCode)
	}
}

// TestMemLimitNotRetried checks the client treats the 429 mem-limit
// rejection as permanent: the same query against the same budget fails
// the same way, so the retry loop must not spin.
func TestMemLimitNotRetried(t *testing.T) {
	srv := NewServer(resourceFixture(2000))
	srv.MaxQueryMem = 4 << 10
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := NewRemote(hs.URL)
	c.Retries = 3
	_, err := c.Select(wideQuery)
	if err == nil {
		t.Fatal("over-budget query succeeded")
	}
	if IsRetryable(err) {
		t.Errorf("mem-limit rejection classified retryable: %v", err)
	}
	if n := c.RetryCount(); n != 0 {
		t.Errorf("client retried %d times on a deterministic rejection", n)
	}
	var ee *Error
	if !errors.As(err, &ee) || ee.Status != http.StatusTooManyRequests || ee.Attempts != 1 {
		t.Errorf("error = %+v, want status 429 after 1 attempt", err)
	}
	m := metricsSnapshot(t, hs.URL)
	if got, _ := m["queries_over_mem_total"].(float64); got != 1 {
		t.Errorf("queries_over_mem_total = %v, want 1 (exactly one attempt)", got)
	}
}

// TestWorkloadEndpoint drives queries of two shapes through the
// protocol and checks /workload aggregates them: literal changes fold
// into one shape, both views render, and rows/bytes are recorded.
func TestWorkloadEndpoint(t *testing.T) {
	srv := NewServer(resourceFixture(50))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := NewRemote(hs.URL)
	for i := 0; i < 3; i++ {
		q := fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/value> %d }`, i)
		if _, err := c.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Select(`SELECT ?s ?v WHERE { ?s <http://ex/value> ?v }`); err != nil {
		t.Fatal(err)
	}
	// A ?cost=1 request must stay out of the workload registry.
	if _, err := c.EstimateCost(`SELECT ?s ?v WHERE { ?s <http://ex/value> ?v }`); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/workload")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.WorkloadSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Shapes != 2 || snap.Queries != 4 {
		t.Fatalf("snapshot = %+v, want 2 shapes / 4 queries", snap)
	}
	if snap.Top[0].Count != 3 {
		t.Fatalf("top shape count = %d, want 3 (literal variants fold)", snap.Top[0].Count)
	}
	if snap.Top[0].Rows == 0 && snap.Top[1].Rows == 0 {
		t.Error("no shape recorded any rows")
	}

	tresp, err := http.Get(hs.URL + "/workload?text=1")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if !strings.Contains(string(text), "workload: 2 shapes, 4 queries") {
		t.Fatalf("text view: %s", text)
	}
}

// TestCostMetrics checks the ?cost=1 surface is counted in request
// metrics, including the 409 planner-off path.
func TestCostMetrics(t *testing.T) {
	st := resourceFixture(10)
	on := httptest.NewServer(NewServer(st).Handler())
	defer on.Close()
	resp, err := http.PostForm(on.URL+"/sparql", url.Values{
		"query": {`SELECT ?s WHERE { ?s <http://ex/value> ?v }`}, "cost": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cost status = %d", resp.StatusCode)
	}
	m := metricsSnapshot(t, on.URL)
	if got, _ := m["cost_estimates_total"].(float64); got != 1 {
		t.Errorf("cost_estimates_total = %v, want 1", got)
	}

	off := httptest.NewServer(NewServer(st, sparql.WithPlanner(false)).Handler())
	defer off.Close()
	resp, err = http.PostForm(off.URL+"/sparql", url.Values{
		"query": {`SELECT ?s WHERE { ?s <http://ex/value> ?v }`}, "cost": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("planner-off cost status = %d, want 409", resp.StatusCode)
	}
	m = metricsSnapshot(t, off.URL)
	if got, _ := m["cost_unavailable_total"].(float64); got != 1 {
		t.Errorf("cost_unavailable_total = %v, want 1", got)
	}
}

// TestConcurrentMixedWorkload hammers one server with concurrent
// queries and updates (run under -race in CI) and then checks the
// shared surfaces stayed coherent: the workload registry saw every
// query, the in-flight gauge drained to zero, and the high-water mark
// moved.
func TestConcurrentMixedWorkload(t *testing.T) {
	srv := NewServer(resourceFixture(500))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const (
		readers = 6
		writers = 2
		rounds  = 15
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewRemote(hs.URL)
			for i := 0; i < rounds; i++ {
				q := wideQuery
				if i%2 == 0 {
					q = fmt.Sprintf(`SELECT ?s WHERE { ?s <http://ex/value> %d }`, g*rounds+i)
				}
				if _, err := c.Select(q); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewRemote(hs.URL)
			for i := 0; i < rounds; i++ {
				u := fmt.Sprintf(`INSERT DATA { <http://ex/new/%d-%d> <http://ex/value> %d }`, g, i, i)
				if err := c.Update(u); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := srv.Resources.Inflight(); got != 0 {
		t.Errorf("inflight bytes = %d after all queries drained, want 0", got)
	}
	if srv.Resources.HighWater() == 0 {
		t.Error("high-water mark never moved")
	}
	// Every request that evaluates opens an account: the queries and,
	// for the WHERE rows a DELETE/INSERT drains, the updates.
	if got, want := srv.Resources.Queries(), int64((readers+writers)*rounds); got != want {
		t.Errorf("accounted requests = %d, want %d", got, want)
	}
	snap := srv.Workload.Snapshot()
	if snap.Queries != int64(readers*rounds) {
		t.Errorf("workload queries = %d, want %d", snap.Queries, readers*rounds)
	}
	// Two shapes: the wide join and the by-value point lookup (whose
	// literal varies per request but whose shape does not).
	if snap.Shapes != 2 {
		t.Errorf("workload shapes = %d, want 2", snap.Shapes)
	}
}
