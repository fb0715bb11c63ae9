package main

import (
	"bufio"
	"path/filepath"
	"strings"
	"testing"

	"os"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
BenchmarkLoad/obs=5000-8         	      10	 12345678 ns/op	 4096 B/op	     42 allocs/op
BenchmarkQLParse-8               	  100000	    10432 ns/op
PASS
ok  	repro	1.234s
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %v", len(got), got)
	}
	load, ok := got["BenchmarkLoad/obs=5000"]
	if !ok {
		t.Fatalf("proc suffix not stripped: %v", got)
	}
	if load.NsPerOp != 12345678 || load.BytesPerOp != 4096 || load.AllocsPerOp != 42 || load.Iterations != 10 {
		t.Errorf("load = %+v", load)
	}
	p, ok := got["BenchmarkQLParse"]
	if !ok || p.NsPerOp != 10432 || p.BytesPerOp != 0 {
		t.Errorf("parse = %+v ok=%v", p, ok)
	}
}

// TestParseKeepsFastestOfRepeats pins -count N as best-of-N: a repeated
// name keeps the whole line of its fastest sample, wherever it comes.
func TestParseKeepsFastestOfRepeats(t *testing.T) {
	in := `BenchmarkQLParse-2   1   52000 ns/op   900 B/op   9 allocs/op
BenchmarkQLParse-2   1   40000 ns/op   800 B/op   8 allocs/op
BenchmarkQLParse-2   1   95000 ns/op   700 B/op   7 allocs/op
BenchmarkOther-2     1   10 ns/op
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Iterations: 1, NsPerOp: 40000, BytesPerOp: 800, AllocsPerOp: 8}
	if len(got) != 2 || got["BenchmarkQLParse"] != want {
		t.Fatalf("parsed %v, want BenchmarkQLParse = %+v", got, want)
	}
}

func TestCompareSnapshots(t *testing.T) {
	oldRes := map[string]Result{
		"BenchmarkStable":   {NsPerOp: 1000},
		"BenchmarkFaster":   {NsPerOp: 2000},
		"BenchmarkSlower":   {NsPerOp: 1000},
		"BenchmarkRetired":  {NsPerOp: 500},
		"BenchmarkBoundary": {NsPerOp: 1000},
	}
	newRes := map[string]Result{
		"BenchmarkStable":   {NsPerOp: 1050}, // +5%: within threshold
		"BenchmarkFaster":   {NsPerOp: 1000}, // -50%: improvement, never fails
		"BenchmarkSlower":   {NsPerOp: 1300}, // +30%: regression
		"BenchmarkBoundary": {NsPerOp: 1100}, // exactly +10%: not beyond threshold
		"BenchmarkNew":      {NsPerOp: 99},   // added, never fails
	}
	var out strings.Builder
	regs := compareSnapshots(oldRes, newRes, 0.10, &out)
	if len(regs) != 1 || regs[0] != "BenchmarkSlower" {
		t.Fatalf("regressions = %v, want [BenchmarkSlower]\n%s", regs, out.String())
	}
	got := out.String()
	for _, want := range []string{"REGRESSION", "added", "removed", "4 compared, 1 added, 1 removed, 1 regression(s)"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "REGRESSION") != 1 {
		t.Errorf("want exactly one REGRESSION mark:\n%s", got)
	}
}

func TestCompareAblation(t *testing.T) {
	res := map[string]Result{
		"BenchmarkA/x=1/planner=on":          {NsPerOp: 1000},
		"BenchmarkA/x=1/planner=off":         {NsPerOp: 1200}, // on faster: fine
		"BenchmarkA/x=2/planner=on":          {NsPerOp: 1500},
		"BenchmarkA/x=2/planner=off":         {NsPerOp: 1000}, // on +50%: regression
		"BenchmarkB/planner=on":              {NsPerOp: 1050},
		"BenchmarkB/planner=off":             {NsPerOp: 1000}, // on +5%: within threshold
		"BenchmarkB/planner=off/textual":     {NsPerOp: 9000}, // third arm: never paired
		"BenchmarkC/planner=on":              {NsPerOp: 2000},
		"BenchmarkC/planner=off/textual":     {NsPerOp: 1000}, // lone off/* arm: paired, on +100%: regression
		"BenchmarkTwoOff/planner=on":         {NsPerOp: 5000},
		"BenchmarkTwoOff/planner=off/a":      {NsPerOp: 1}, // two off/* arms: ambiguous, unpaired
		"BenchmarkTwoOff/planner=off/b":      {NsPerOp: 1},
		"BenchmarkLonely/planner=on":         {NsPerOp: 100}, // no off sibling: unpaired
		"BenchmarkUnrelated/other=on":        {NsPerOp: 1},   // different key: ignored
		"BenchmarkUnrelated/no-ablation-arm": {NsPerOp: 1},
	}
	var out strings.Builder
	regs := compareAblation(res, "planner", 0.10, &out)
	if len(regs) != 2 || regs[0] != "BenchmarkA/x=2/planner=on" || regs[1] != "BenchmarkC/planner=on" {
		t.Fatalf("regressions = %v, want [BenchmarkA/x=2/planner=on BenchmarkC/planner=on]\n%s", regs, out.String())
	}
	got := out.String()
	for _, want := range []string{"REGRESSION", "unpaired", "4 pair(s) compared, 2 unpaired, 2 regression(s)"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "REGRESSION") != 2 {
		t.Errorf("want exactly two REGRESSION marks:\n%s", got)
	}
}

func TestCompareSnapshotsRoundTripFiles(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	os.WriteFile(oldPath, []byte(`{"BenchmarkX": {"iterations": 1, "nsPerOp": 100}}`), 0o644)
	os.WriteFile(newPath, []byte(`{"BenchmarkX": {"iterations": 1, "nsPerOp": 400}}`), 0o644)
	oldRes, err := loadSnapshot(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newRes, err := loadSnapshot(newPath)
	if err != nil {
		t.Fatal(err)
	}
	regs := compareSnapshots(oldRes, newRes, 0.10, &strings.Builder{})
	if len(regs) != 1 {
		t.Fatalf("regressions = %v", regs)
	}
	if _, err := loadSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
