package obs

import (
	"encoding/base64"
	"strings"
	"testing"
)

// FuzzParseTraceparent checks the traceparent parser never panics and
// that every accepted value round-trips through FormatTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	seeds := []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00",
		"ff-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-03",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"  00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01  ",
		"00-short-b7ad6b7169203331-01",
		"traceparent",
		"",
		"----",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		if len(tc.TraceID) != 32 || !isHex(string(tc.TraceID)) {
			t.Fatalf("accepted trace ID %q is not 32 hex chars", tc.TraceID)
		}
		if len(tc.Parent) != 16 || !isHex(tc.Parent) {
			t.Fatalf("accepted parent %q is not 16 hex chars", tc.Parent)
		}
		if strings.ToLower(string(tc.TraceID)) != string(tc.TraceID) {
			t.Fatalf("trace ID %q not normalized to lower case", tc.TraceID)
		}
		// A formatted round-trip must parse back to the same identity.
		rt, ok := ParseTraceparent(FormatTraceparent(tc.TraceID, tc.Parent, tc.Sampled))
		if !ok || rt != tc {
			t.Fatalf("round-trip mismatch: %+v vs %+v", tc, rt)
		}
	})
}

// FuzzDecodeSpanWire checks the base64(JSON) span-tree decoder never
// panics, rejects oversized values without decoding them, and returns
// either an error or a usable span for every input.
func FuzzDecodeSpanWire(f *testing.F) {
	// A genuine encoded tree as produced by the server.
	root := StartSpan("SELECT", "", 1)
	child := root.StartChild("BGP", "?s ?p ?o", 1)
	child.SetEst(42)
	child.Finish(10)
	root.Finish(10)
	if wire, ok := EncodeSpanWire(root); ok {
		f.Add(wire)
	}
	f.Add(workersSpanWire) // a tree whose spans still carry worker counts
	f.Add("")
	f.Add("not base64!")
	f.Add(base64.StdEncoding.EncodeToString([]byte(`{"op":"SELECT"`)))
	f.Add(base64.StdEncoding.EncodeToString([]byte(`[1,2,3]`)))
	f.Add(base64.StdEncoding.EncodeToString([]byte(`{"op":"X","children":[{"op":"Y"}]}`)))
	f.Fuzz(func(t *testing.T, v string) {
		s, err := DecodeSpanWire(v)
		if err != nil {
			return
		}
		if v == "" {
			if s != nil {
				t.Fatal("empty wire value decoded to a span")
			}
			return
		}
		if len(v) > MaxWireSpanBytes {
			t.Fatalf("oversized value (%d bytes) was accepted", len(v))
		}
		// Whatever decoded must be traversable and renderable without
		// panicking — this is what the client does with it.
		n := 0
		s.Visit(func(*Span) { n++ })
		_ = s.Outline()
	})
}
