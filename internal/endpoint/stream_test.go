package endpoint

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// sampleAll makes a server trace every request it is not told about
// (Tracer + Sampler rate 1): the configuration where, before the one
// response path, every response came from a collected table.
func sampleAll(s *Server) { s.Tracer, s.Sampler = obs.NewTracer(8), obs.NewSampler(1) }

// TestStreamedResponseByteIdentical checks every SELECT/ASK response —
// traced or not, JSON, CSV, TSV — leaves through the one streaming loop
// and carries exactly the bytes of the whole-table serialization, at
// every chunk size: clients cannot tell (and must not need to know) how
// the body was cut into flushes, nor whether the server sampled the
// request. The declared stream-error trailer is the loop's signature;
// at the parent commit only the untraced JSON variant has it.
func TestStreamedResponseByteIdentical(t *testing.T) {
	const (
		query    = `PREFIX ex: <http://example.org/> SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?s`
		ask      = `PREFIX ex: <http://example.org/> ASK { ex:a ex:p ?o }`
		jsonType = "application/sparql-results+json"
		wantJSON = `{"head":{"vars":["s","o"]},"results":{"bindings":[` +
			`{"o":{"type":"literal","value":"1"},"s":{"type":"uri","value":"http://example.org/a"}},` +
			`{"o":{"type":"literal","value":"2"},"s":{"type":"uri","value":"http://example.org/b"}}]}}`
		wantCSV = "s,o\r\nhttp://example.org/a,1\r\nhttp://example.org/b,2\r\n"
		wantTSV = "?s\t?o\n<http://example.org/a>\t\"1\"\n<http://example.org/b>\t\"2\"\n"
		wantAsk = `{"head":{"vars":["ask"]},"results":{"bindings":[{"ask":{"type":"literal","value":"true",` +
			`"datatype":"http://www.w3.org/2001/XMLSchema#boolean"}}]}}`
	)
	for _, v := range []struct {
		name, query, accept string
		cfg                 func(*Server)
		ctype, want         string
	}{
		{"json", query, "", nil, jsonType, wantJSON},
		{"json-sampled", query, "", sampleAll, jsonType, wantJSON},
		{"csv", query, "text/csv", nil, "text/csv", wantCSV},
		{"csv-sampled", query, "text/csv", sampleAll, "text/csv", wantCSV},
		{"tsv", query, "text/tab-separated-values", nil, "text/tab-separated-values", wantTSV},
		{"tsv-sampled", query, "text/tab-separated-values", sampleAll, "text/tab-separated-values", wantTSV},
		{"ask", ask, "", nil, jsonType, wantAsk},
		{"ask-sampled-csv", ask, "text/csv", sampleAll, "text/csv", "ask\r\ntrue\r\n"},
	} {
		for _, chunk := range []int{1, 2, 1024} {
			srv, hs := newResilientServer(t, v.cfg)
			srv.engine.SetChunkSize(chunk)
			req, _ := http.NewRequest(http.MethodGet, hs.URL+"/sparql?query="+url.QueryEscape(v.query), nil)
			if v.accept != "" {
				req.Header.Set("Accept", v.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s chunk=%d: status = %d (%s)", v.name, chunk, resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != v.ctype {
				t.Errorf("%s chunk=%d: Content-Type = %q", v.name, chunk, ct)
			}
			if string(body) != v.want {
				t.Errorf("%s chunk=%d: body differs\nwant %q\ngot  %q", v.name, chunk, v.want, body)
			}
			if code, declared := resp.Trailer[StreamErrorTrailer]; !declared || len(code) != 0 {
				t.Errorf("%s chunk=%d: stream-error trailer declared=%v value=%v, want declared and empty",
					v.name, chunk, declared, code)
			}
			if v.cfg != nil && len(srv.Tracer.Recent()) != 1 {
				t.Errorf("%s chunk=%d: sampled request left %d traces", v.name, chunk, len(srv.Tracer.Recent()))
			}
		}
	}
}

// TestTraceparentSampledStreams checks the caller-sampled twin of a
// streamed SELECT: the body is the same document closed by one extra
// "trace" member (the span tree is known only when evaluation ends, and
// by then the header block is gone), the client decodes the same Results
// from it and stitches the same server tree at every chunk size.
func TestTraceparentSampledStreams(t *testing.T) {
	_, plainHS := newResilientServer(t, nil)
	want, err := NewRemote(plainHS.URL).Select(obsQuery)
	if err != nil {
		t.Fatal(err)
	}
	var outline string
	for _, chunk := range []int{1, 2, 1024} {
		srv, hs := newResilientServer(t, nil)
		srv.engine.SetChunkSize(chunk)

		c := NewRemote(hs.URL)
		c.Tracer = obs.NewTracer(4)
		got, err := c.Select(obsQuery)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("chunk=%d: traced results differ from untraced\nwant %v\ngot  %v", chunk, want, got)
		}
		root := c.Tracer.Recent()[0].Root
		if len(root.Children) != 1 || root.Children[0].Op != "SELECT" || len(root.Children[0].Children) == 0 {
			t.Fatalf("chunk=%d: no stitched server tree:\n%s", chunk, root.Render())
		}
		if o := root.Children[0].Outline(); outline == "" {
			outline = o
		} else if o != outline {
			t.Errorf("chunk=%d: server tree depends on the chunk size\nfirst %s\nnow   %s", chunk, outline, o)
		}

		// On the wire: no header (the body had started), one member.
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/sparql?query="+url.QueryEscape(obsQuery), nil)
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID(), true))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if h := resp.Header.Get(obs.ServerTraceHeader); h != "" {
			t.Errorf("chunk=%d: streamed response also carries a %d-byte trace header", chunk, len(h))
		}
		if !strings.Contains(string(body), `]},"trace":"`) || !strings.HasSuffix(string(body), `"}`) {
			t.Errorf("chunk=%d: body does not end in the trace member: %s", chunk, body)
		}
	}
}

// TestChunkFlushReachesTheWire pins the chunk flush at the handler
// level: the instrumentation wrapper used to hide http.Flusher from the
// streaming loop, so no served request ever flushed before net/http's
// own 4 KiB buffer filled. A result of several chunks is flushed when
// each further chunk arrives; a one-chunk result leaves in one write.
func TestChunkFlushReachesTheWire(t *testing.T) {
	for _, c := range []struct {
		chunk   int
		flushed bool
	}{{1, true}, {1024, false}} {
		srv, _ := newResilientServer(t, nil)
		srv.engine.SetChunkSize(c.chunk)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(obsQuery), nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "http://example.org/b") {
			t.Fatalf("chunk=%d: status %d body %s", c.chunk, rec.Code, rec.Body)
		}
		if rec.Flushed != c.flushed {
			t.Errorf("chunk=%d: two-row response flushed = %v, want %v", c.chunk, rec.Flushed, c.flushed)
		}
	}
}

// TestMidStreamAbortIsBookedAsFailure drives a real mid-stream abort —
// chunk size 1 and a cross product commit the 200 at once, then the
// deadline expires with rows still flowing — and checks the server books
// it like the equivalent pre-body 504: the request used to be counted
// and logged as a success because the wire status was 200.
func TestMidStreamAbortIsBookedAsFailure(t *testing.T) {
	srv := NewServer(resourceFixture(400))
	srv.QueryTimeout = 100 * time.Millisecond
	srv.SlowQuery = time.Nanosecond
	srv.engine.SetChunkSize(1)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.PostForm(hs.URL+"/sparql", url.Values{"query": {`SELECT ?a ?b WHERE {
		?a <http://ex/type> <http://ex/Item> . ?b <http://ex/type> <http://ex/Item> }`}})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) // trailers arrive once the body is consumed
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want a committed 200", resp.StatusCode, body)
	}
	if code := resp.Trailer.Get(StreamErrorTrailer); code != "timeout" {
		t.Fatalf("trailer = %q, want timeout (body %d bytes)", code, len(body))
	}
	for name, want := range map[string]int64{
		"queries_total": 1, "queries_timeout_total": 1, "queries_failed_total": 1, "errors_total": 1,
	} {
		if got := counterValue(t, srv, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if top := srv.Workload.Snapshot().Top; len(top) != 1 || top[0].Timeouts != 1 {
		t.Errorf("workload shapes = %+v, want one shape with one timeout", top)
	}
	if slow := srv.Slow.Recent(); len(slow) != 1 || slow[0].Status != http.StatusGatewayTimeout {
		t.Errorf("slow log = %+v, want one entry booked as 504", slow)
	}
}

// TestTwinsFitTheSameBudget checks admission does not depend on how a
// result leaves: under one MaxQueryMem that admits an untraced 5000-row
// SELECT (the pipeline holds a few 64-row chunks, never the table), its
// server-sampled, traceparent-sampled, CSV and TSV twins are admitted
// too. Each was collected into a whole table, charged in full, and a 429
// at the parent commit.
func TestTwinsFitTheSameBudget(t *testing.T) {
	st := resourceFixture(5000)
	for _, v := range []struct {
		name, accept string
		cfg          func(*Server)
		traceparent  bool
	}{
		{"untraced", "", nil, false},
		{"sampled", "", sampleAll, false},
		{"traceparent", "", nil, true},
		{"csv", "text/csv", nil, false},
		{"tsv", "text/tab-separated-values", nil, false},
	} {
		srv := NewServer(st)
		srv.MaxQueryMem = 256 << 10 // the 5000-row table alone is ~1.7 MB
		srv.engine.SetChunkSize(64)
		if v.cfg != nil {
			v.cfg(srv)
		}
		hs := httptest.NewServer(srv.Handler())
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/sparql",
			strings.NewReader(url.Values{"query": {wideQuery}}.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if v.accept != "" {
			req.Header.Set("Accept", v.accept)
		}
		if v.traceparent {
			req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID(), true))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		hs.Close()
		if resp.StatusCode != http.StatusOK || resp.Trailer.Get(StreamErrorTrailer) != "" {
			t.Errorf("%s: status %d trailer %q, want admitted: %.120s", v.name,
				resp.StatusCode, resp.Trailer.Get(StreamErrorTrailer), body)
		}
		if n := strings.Count(string(body), "item number"); n != 5000 {
			t.Errorf("%s: %d rows in the body, want 5000", v.name, n)
		}
	}
}

// TestStreamMemLimitKeepsCleanStatus checks a budget that trips at the
// first chunk boundary — before any response bytes — still yields the
// clean 429 + MemLimitHeader contract rather than a committed 200.
func TestStreamMemLimitKeepsCleanStatus(t *testing.T) {
	srv, hs := newResilientServer(t, func(s *Server) { s.MaxQueryMem = 64 })
	resp, err := http.Get(hs.URL + "/sparql?query=" + url.QueryEscape(anyQuery))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get(MemLimitHeader) == "" {
		t.Fatal("429 missing MemLimitHeader")
	}
	if got := counterValue(t, srv, "queries_over_mem_total"); got != 1 {
		t.Fatalf("queries_over_mem_total = %d, want 1", got)
	}
}

// TestUpdateMemLimit checks /update holds the WHERE rows of a
// DELETE/INSERT to the same budget, with the same typed answer, as
// /sparql holds a query — and that an update refused for them has
// written nothing.
func TestUpdateMemLimit(t *testing.T) {
	for _, budget := range []int64{64, 0} {
		srv, hs := newResilientServer(t, func(s *Server) { s.MaxQueryMem = budget })
		before := srv.Engine().Store().Len(rdf.Term{})
		resp, err := http.PostForm(hs.URL+"/update", url.Values{"update": {`DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }`}})
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		after := srv.Engine().Store().Len(rdf.Term{})
		if budget == 0 { // unbounded, the same request goes through
			if resp.StatusCode != http.StatusNoContent || after != 0 {
				t.Fatalf("unbounded update: status %d, %d triples left", resp.StatusCode, after)
			}
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get(MemLimitHeader) == "" {
			t.Fatalf("status = %d, %s = %q (%s), want 429 with the header",
				resp.StatusCode, MemLimitHeader, resp.Header.Get(MemLimitHeader), body)
		}
		if after != before || before == 0 {
			t.Fatalf("store has %d triples after the refused update, %d before", after, before)
		}
	}
}

// streamAbortResponse scripts a mid-stream server abort: a committed
// 200 with the trailer announced, a truncated JSON body, and the given
// stream-error code in the trailer — exactly what Server.streamQuery
// produces when evaluation fails after bytes have flowed.
func streamAbortResponse(code string) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/sparql-results+json")
		w.Header().Set("Trailer", StreamErrorTrailer)
		io.WriteString(w, `{"head":{"vars":["s"]},"results":{"bindings":[{"s":{"type":"uri","value":"http://x/a"}}`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		w.Header().Set(StreamErrorTrailer, code)
	}
}

// TestRemoteStreamTrailerErrors checks the client maps a mid-stream
// abort trailer to the same typed error the equivalent pre-body
// failure would produce — and honors its retry classification, so a
// mem-limit abort is not hammered while a timeout gets its retry.
func TestRemoteStreamTrailerErrors(t *testing.T) {
	cases := []struct {
		code      string
		status    int
		retryable bool
	}{
		{"mem-limit", http.StatusTooManyRequests, false},
		{"timeout", http.StatusGatewayTimeout, true},
		{"canceled", statusClientClosedRequest, false},
		{"internal", http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			hs, n := scriptedServer(t, streamAbortResponse(tc.code))
			r := NewRemote(hs.URL)
			_, err := r.Select(anyQuery)
			var ee *Error
			if !errors.As(err, &ee) {
				t.Fatalf("err = %v, want *Error", err)
			}
			if ee.Status != tc.status {
				t.Errorf("status = %d, want %d", ee.Status, tc.status)
			}
			if IsRetryable(err) != tc.retryable {
				t.Errorf("retryable = %v, want %v", IsRetryable(err), tc.retryable)
			}
			if n.Load() != 1 {
				t.Errorf("server saw %d requests before retry policy, want 1", n.Load())
			}
		})
	}
}

// TestRemoteStreamTrailerRetryPolicy checks the retry loop acts on the
// trailer classification: a timeout abort retries to success, a
// mem-limit abort fails fast on the first attempt.
func TestRemoteStreamTrailerRetryPolicy(t *testing.T) {
	hs, n := scriptedServer(t, streamAbortResponse("timeout"), respondOK)
	r := NewRemote(hs.URL)
	r.Retries = 2
	r.sleep = noSleep(&[]time.Duration{})
	res, err := r.Select(anyQuery)
	if err != nil {
		t.Fatalf("timeout abort should retry to success: %v", err)
	}
	if res.Len() != 1 || n.Load() != 2 {
		t.Fatalf("rows = %d, requests = %d; want 1 row after 2 requests", res.Len(), n.Load())
	}

	hs2, n2 := scriptedServer(t, streamAbortResponse("mem-limit"), respondOK)
	r2 := NewRemote(hs2.URL)
	r2.Retries = 2
	r2.sleep = noSleep(&[]time.Duration{})
	if _, err := r2.Select(anyQuery); err == nil {
		t.Fatal("mem-limit abort must not retry to success")
	}
	if n2.Load() != 1 {
		t.Fatalf("mem-limit abort retried: %d requests, want 1", n2.Load())
	}
}

// TestRemoteDecodesStreamedServer round-trips a real streamed server
// through the real incremental client decoder.
func TestRemoteDecodesStreamedServer(t *testing.T) {
	srv, hs := newResilientServer(t, nil)
	srv.engine.SetChunkSize(1)
	r := NewRemote(hs.URL)
	res, err := r.Select(`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Binding(0, "s").Value != "http://example.org/a" {
		t.Fatalf("rows = %d, first = %v", res.Len(), res.Rows)
	}
}
