package endpoint

import (
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestStreamedResponseByteIdentical checks the chunk-flushed streaming
// response carries exactly the bytes Results.MarshalJSON produces for
// the whole table, at every chunk size: clients cannot tell (and must
// not need to know) how the body was cut into flushes.
func TestStreamedResponseByteIdentical(t *testing.T) {
	query := `PREFIX ex: <http://example.org/> SELECT ?s ?o WHERE { ?s ex:p ?o } ORDER BY ?s`
	const want = `{"head":{"vars":["s","o"]},"results":{"bindings":[` +
		`{"o":{"type":"literal","value":"1"},"s":{"type":"uri","value":"http://example.org/a"}},` +
		`{"o":{"type":"literal","value":"2"},"s":{"type":"uri","value":"http://example.org/b"}}]}}`

	for _, chunk := range []int{1, 2, 1024} {
		srv, hs := newResilientServer(t, nil)
		srv.engine.SetChunkSize(chunk)
		resp, err := http.Get(hs.URL + "/sparql?query=" + url.QueryEscape(query))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk=%d: status = %d (%s)", chunk, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
			t.Errorf("chunk=%d: Content-Type = %q", chunk, ct)
		}
		if string(body) != want {
			t.Errorf("chunk=%d: streamed body differs\nwant %s\ngot  %s",
				chunk, want, body)
		}
		if code := resp.Trailer.Get(StreamErrorTrailer); code != "" {
			t.Errorf("chunk=%d: clean stream carries error trailer %q", chunk, code)
		}
	}
}

// TestStreamedAcceptFallbacks checks the non-streamable encodings
// (CSV/TSV) still serve correctly with streaming enabled.
func TestStreamedAcceptFallbacks(t *testing.T) {
	_, hs := newResilientServer(t, nil)
	req, _ := http.NewRequest(http.MethodGet,
		hs.URL+"/sparql?query="+url.QueryEscape(`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:p ?o } ORDER BY ?s`), nil)
	req.Header.Set("Accept", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "s\r\n") {
		t.Fatalf("CSV under streaming: status %d body %q", resp.StatusCode, body)
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
