package sparql

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// naiveJoin is the nested-loop reference for one row × one pattern: every
// triple of the graph, filtered and bound by term equality in Go, in the
// order the store documents for Range — the ordering whose prefix the
// bound positions form (S, SP, SPO and nothing → SPO; P, PO → POS; O,
// OS → OSP).
func naiveJoin(dict *store.Dict, all []rdf.Triple, tp TriplePattern, vt *varTable, row solution) []solution {
	var bound [3]bool
	for i, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
		bound[i] = !pt.IsVar || !row[vt.index[pt.Var]].IsZero()
	}
	perm := [3]int{0, 1, 2} // SPO
	switch s, p, o := bound[0], bound[1], bound[2]; {
	case s && (p || !o):
	case o && (s || !p):
		perm = [3]int{2, 0, 1} // OSP
	case p:
		perm = [3]int{1, 2, 0} // POS
	}
	type match struct {
		key [3]store.ID
		row solution
	}
	var ms []match
	for _, t := range all {
		nrow := row.clone()
		ok := true
		var ids [3]store.ID
		for i, c := range [3]struct {
			pt PatternTerm
			t  rdf.Term
		}{{tp.S, t.S}, {tp.P, t.P}, {tp.O, t.O}} {
			ids[i], _ = dict.Lookup(c.t)
			if !c.pt.IsVar {
				ok = ok && c.pt.Term == c.t
				continue
			}
			slot := vt.index[c.pt.Var]
			ok = ok && (nrow[slot].IsZero() || nrow[slot] == c.t)
			nrow[slot] = c.t
		}
		if ok {
			ms = append(ms, match{[3]store.ID{ids[perm[0]], ids[perm[1]], ids[perm[2]]}, nrow})
		}
	}
	slices.SortFunc(ms, func(a, b match) int { return slices.Compare(a.key[:], b.key[:]) })
	out := make([]solution, len(ms))
	for i, m := range ms {
		out[i] = m.row
	}
	return out
}

func cloneRows(rows []solution) []solution {
	out := make([]solution, len(rows))
	for i, row := range rows {
		out[i] = row.clone()
	}
	return out
}

func sameRows(a, b []solution) bool {
	return slices.EqualFunc(a, b, func(x, y solution) bool { return slices.Equal(x, y) })
}

// TestProbeAgainstNaiveScan is the differential test under the join
// core: on seeded random small stores (default graph plus one named
// graph), random patterns (every constant/variable mix, repeated
// variables, constants the dictionary has never seen, fully bound
// existence checks) and random input rows (slots unbound, bound to a
// stored term, or bound to a never-interned term as a BIND would), the
// three consumers of probe — joinPatternOwned, rowScan cut at 1, 2, 7,
// 1 024 and unlimited rows per emit, and optionalSingle — must produce
// exactly the nested-loop reference, in its order, and leave rows they
// do not own untouched. So must the batch kernel over a batch of at
// least minBatchRows of those rows: on every other pattern the rows with
// one match come first, so they are compacted in place and the
// multi-match rows after them must spill before they overtake the row
// being read. The star
// and rooted subtests hold the BGP kernels to the same reference for star
// levels.
func TestProbeAgainstNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	named := rdf.NewIRI("http://t/g")
	nodes := make([]rdf.Term, 6)
	for i := range nodes {
		nodes[i] = rdf.NewIRI(fmt.Sprintf("http://t/n%d", i))
	}
	nodes = append(nodes, rdf.NewInteger(7), rdf.NewLiteral("seven"))
	preds := []rdf.Term{rdf.NewIRI("http://t/p"), rdf.NewIRI("http://t/q"), nodes[0]}
	unseen := []rdf.Term{rdf.NewIRI("http://t/unseen"), rdf.NewInteger(8)}
	vars := []string{"x", "y", "z"}
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }

	for trial := 0; trial < 400; trial++ {
		st := store.New()
		for _, g := range []rdf.Term{{}, named} {
			ts := make([]rdf.Triple, 5+rng.Intn(40))
			for i := range ts {
				ts[i] = rdf.NewTriple(pick(nodes[:6]), pick(preds), pick(nodes))
			}
			st.InsertTriples(g, ts)
		}
		r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
		for _, v := range append(vars, "w") {
			r.vt.slot(v)
		}
		var gterm rdf.Term
		var gctx graphCtx
		if rng.Intn(2) == 0 {
			gterm = named
			gctx.gid, _ = r.snap.GraphID(named)
		}
		all := r.snap.MatchAll(gterm, rdf.Term{}, rdf.Term{}, rdf.Term{})

		for pi := 0; pi < 8; pi++ {
			position := func(consts []rdf.Term) PatternTerm {
				switch k := rng.Intn(10); {
				case k < 5:
					return VarTerm(vars[rng.Intn(len(vars))])
				case k < 9:
					return ConstTerm(pick(consts))
				}
				return ConstTerm(pick(unseen))
			}
			tp := TriplePattern{S: position(nodes), P: position(preds), O: position(nodes)}
			rows := make([]solution, 1+rng.Intn(6))
			for i := range rows {
				rows[i] = make(solution, len(r.vt.names))
				for slot := range rows[i] {
					switch k := rng.Intn(8); {
					case k < 4:
					case k < 7:
						rows[i][slot] = pick(append(nodes, preds...))
					default:
						rows[i][slot] = pick(unseen)
					}
				}
			}
			if pi == 0 { // an existence check: every position bound to a stored triple
				tp = TriplePattern{S: VarTerm("x"), P: ConstTerm(all[0].P), O: VarTerm("y")}
				rows[0][r.vt.index["x"]], rows[0][r.vt.index["y"]] = all[0].S, all[0].O
			}

			var wantOpt []solution
			perRow := make([][]solution, len(rows))
			for i, row := range rows {
				ms := naiveJoin(st.Dict(), all, tp, r.vt, row)
				perRow[i] = ms
				if len(ms) == 0 {
					ms = []solution{row}
				}
				wantOpt = append(wantOpt, ms...)
			}
			p := r.compile(tp, gctx)
			fail := func(what string, got, want []solution) {
				t.Fatalf("trial %d, %s in graph %v over rows %v: %s =\n%v\nwant\n%v", trial, patternDetail(tp), gterm, rows, what, got, want)
			}
			for _, owned := range []bool{false, true} {
				in := cloneRows(rows)
				if got := r.optionalSingle(p, in, owned); !sameRows(got, wantOpt) {
					fail(fmt.Sprintf("optionalSingle(owned=%v)", owned), got, wantOpt)
				}
				if !owned && !sameRows(in, rows) {
					fail("input rows after an OPTIONAL that does not own them", in, rows)
				}
			}
			checkJoinKernels(t, rng, r, p, rows, perRow, pi%2 == 1, fail)
		}
	}
	t.Run("star", func(t *testing.T) { probeStarsAgainstLevels(t, rng, false) })
	t.Run("rooted", func(t *testing.T) { probeStarsAgainstLevels(t, rng, true) })
	t.Run("memo", func(t *testing.T) { probeMemoAgainstRuns(t, rng) })
}

// probeMemoAgainstRuns is the memo arm of TestProbeAgainstNaiveScan: the
// rows come in runs that repeat the key of a plain pattern, the way a
// rooted star emits a member's rows and observations sit in load order,
// so that each kernel's lastMatch hits. Beside the runs stand the rows a
// memo keyed too loosely would confuse: a key term that differs from the
// previous row's only in Kind, Datatype or Lang; a row that binds the
// free position to what the run matched, between two that leave it
// free; terms the dictionary lacks, repeated; and ?x p ?x. An owned row
// with one match is extended in place before the next row of its run is
// matched. Every kernel must produce the nested-loop reference, row for
// row, in order.
func probeMemoAgainstRuns(t *testing.T, rng *rand.Rand) {
	kind := rdf.NewIRI("http://t/k")
	twins := [][]rdf.Term{
		{kind, rdf.NewBlank(kind.Value), {Kind: rdf.KindLiteral, Value: kind.Value}},
		{rdf.NewLiteral("7"), rdf.NewInteger(7), {Kind: rdf.KindLiteral, Value: "7"}},
		{rdf.NewLangLiteral("x", "en"), rdf.NewLangLiteral("x", "fr")},
	}
	subjects := []rdf.Term{rdf.NewIRI("http://t/s0"), rdf.NewIRI("http://t/s1"), kind, twins[0][1]}
	objects := slices.Concat(subjects, twins[0][2:], twins[1], twins[2])
	preds := []rdf.Term{rdf.NewIRI("http://t/p"), rdf.NewIRI("http://t/q")}
	unseen := []rdf.Term{rdf.NewIRI("http://t/unseen"), rdf.NewLangLiteral("x", "de"), rdf.NewTypedLiteral("7", "http://t/dt")}
	vars := []string{"x", "y", "w"}
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }

	var hits, twinned, freed int // rows whose key repeats the previous row's, is its twin's, binds what it left free
	for trial := 0; trial < 40; trial++ {
		st := store.New()
		ts := []rdf.Triple{rdf.NewTriple(subjects[0], preds[0], subjects[0]), rdf.NewTriple(kind, preds[0], kind)}
		for i := 20 + rng.Intn(30); i > 0; i-- {
			ts = append(ts, rdf.NewTriple(pick(subjects), pick(preds), pick(objects)))
		}
		st.InsertTriples(rdf.Term{}, ts)
		r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
		for _, v := range vars {
			r.vt.slot(v)
		}
		all := r.snap.MatchAll(rdf.Term{}, rdf.Term{}, rdf.Term{}, rdf.Term{})

		for pi := 0; pi < 6; pi++ {
			tp := TriplePattern{S: VarTerm("x"), P: ConstTerm(preds[0]), O: VarTerm("x")}
			if pi > 0 {
				if rng.Intn(4) > 0 {
					tp.O = VarTerm("y")
				}
				if rng.Intn(4) == 0 {
					tp.S = ConstTerm(pick(subjects))
				}
				switch k := rng.Intn(6); {
				case k == 0:
					tp.P = VarTerm("w")
				case k < 3:
					tp.O = ConstTerm(pick(objects))
				}
			}
			p := r.compile(tp, graphCtx{})
			key := func(row solution) (k [3]rdf.Term) {
				for i, slot := range p.slot {
					if slot >= 0 {
						k[i] = row[slot]
					}
				}
				return k
			}
			// Runs of a drawn row, two in three followed by a neighbour
			// and the run's row again.
			var rows []solution
			for n := 192 + rng.Intn(64); len(rows) < n; {
				proto := make(solution, len(vars))
				for slot := range proto {
					switch k := rng.Intn(10); {
					case k < 3:
					case k < 9:
						proto[slot] = pick(objects)
					default:
						proto[slot] = pick(unseen)
					}
				}
				var twin rdf.Term
				vslot := p.slot[rng.Intn(3)]
				if g := twins[rng.Intn(len(twins))]; vslot >= 0 {
					i := rng.Intn(len(g))
					proto[vslot], twin = g[i], g[(i+1)%len(g)]
				}
				for k := 1 + rng.Intn(8); k > 0; k-- {
					rows = append(rows, proto.clone())
				}
				switch rng.Intn(3) {
				case 0:
					if !twin.IsZero() {
						nb := proto.clone()
						nb[vslot] = twin
						rows = append(rows, nb, proto.clone())
					}
				case 1:
					if ms := naiveJoin(st.Dict(), all, tp, r.vt, proto); len(ms) > 0 && key(ms[0]) != key(proto) {
						rows = append(rows, ms[0], proto.clone())
					}
				}
			}
			for i := 1; i < len(rows); i++ {
				prev, cur := key(rows[i-1]), key(rows[i])
				switch {
				case cur == prev:
					hits++
				case slices.EqualFunc(cur[:], prev[:], func(a, b rdf.Term) bool { return a.Value == b.Value && a.IsZero() == b.IsZero() }):
					twinned++
				case slices.EqualFunc(cur[:], prev[:], func(a, b rdf.Term) bool { return a.IsZero() || a == b }):
					freed++
				}
			}

			var wantJoin, wantOpt []solution
			perRow := make([][]solution, len(rows))
			for i, row := range rows {
				ms := naiveJoin(st.Dict(), all, tp, r.vt, row)
				perRow[i] = ms
				wantJoin = append(wantJoin, ms...)
				if len(ms) == 0 {
					ms = []solution{row}
				}
				wantOpt = append(wantOpt, ms...)
			}
			fail := func(what string, got, want []solution) {
				t.Fatalf("trial %d, %s over %d rows in runs: %s =\n%v\nwant\n%v", trial, patternDetail(tp), len(rows), what, got, want)
			}
			for _, owned := range []bool{false, true} {
				in := cloneRows(rows)
				if got := r.optionalSingle(p, in, owned); !sameRows(got, wantOpt) {
					fail(fmt.Sprintf("optionalSingle(owned=%v)", owned), got, wantOpt)
				}
			}
			checkJoinKernels(t, rng, r, p, rows, perRow, pi%2 == 1, fail)
		}
	}
	if hits < 4*(twinned+freed) || twinned < 40 || freed < 40 {
		t.Fatalf("%d rows repeat the previous row's key, %d are its twin, %d bind what it left free: the generator no longer makes runs", hits, twinned, freed)
	}
}

// checkJoinKernels runs probe p over rows through every consumer of a
// BGP level — joinPatternOwned, rowScan cut at 1, 2, 7, 1 024 and
// unlimited rows per emit, and joinPatternOwned again over a batch of
// at least minBatchRows of those rows, with the rows with one match
// first and then the rows with the most when singlesFirst is set — on
// owned and unowned input. Each must produce perRow, the reference output of every row,
// in order, and leave rows it does not own untouched.
func checkJoinKernels(t *testing.T, rng *rand.Rand, r *run, p *probe, rows []solution, perRow [][]solution, singlesFirst bool, fail func(what string, got, want []solution)) {
	t.Helper()
	var wantJoin []solution
	for _, ms := range perRow {
		wantJoin = append(wantJoin, ms...)
	}
	for _, owned := range []bool{false, true} {
		in := cloneRows(rows)
		got, err := r.joinPatternOwned(p, in, owned)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, wantJoin) {
			fail(fmt.Sprintf("joinPatternOwned(owned=%v)", owned), got, wantJoin)
		}
		if !owned && !sameRows(in, rows) {
			fail("input rows after a join that does not own them", in, rows)
		}

		for _, max := range []int{1, 2, 7, 1024, 1 << 20} {
			in, got := cloneRows(rows), []solution(nil)
			var last lastMatch // the level's, shared by its row scans
			for _, row := range in {
				rs := r.newRowScan(p, row, owned, nil, &last)
				for done := false; !done; {
					var chunk []solution
					if done, err = rs.emit(&chunk, max); err != nil {
						t.Fatal(err)
					}
					if len(chunk) > max {
						t.Fatalf("rowScan emitted %d rows past max %d", len(chunk), max)
					}
					got = append(got, chunk...)
				}
			}
			if !sameRows(got, wantJoin) {
				fail(fmt.Sprintf("rowScan(owned=%v, max=%d)", owned, max), got, wantJoin)
			}
			if !owned && !sameRows(in, rows) {
				fail("input rows after a scan that does not own them", in, rows)
			}
		}
	}

	from := make([]int, minBatchRows+rng.Intn(192)) // which row each batch row is
	for i := range from {
		from[i] = rng.Intn(len(rows))
	}
	if singlesFirst {
		rank := func(k int) int { // one match first, then the most matches
			if n := len(perRow[k]); n != 1 {
				return -n
			}
			return math.MinInt32
		}
		slices.SortStableFunc(from, func(a, b int) int { return rank(a) - rank(b) })
	}
	batch := make([]solution, len(from))
	var wantBatch []solution
	for i, k := range from {
		batch[i] = rows[k]
		wantBatch = append(wantBatch, perRow[k]...)
	}
	for _, owned := range []bool{false, true} {
		in := cloneRows(batch)
		got, err := r.joinPatternOwned(p, in, owned)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(got, wantBatch) {
			fail(fmt.Sprintf("joinPatternOwned(owned=%v) over a batch of %d rows", owned, len(in)), got, wantBatch)
		}
		if !owned && !sameRows(in, batch) {
			fail("input rows after a batch join that does not own them", in, batch)
		}
	}
}

// probeStarsAgainstLevels is the star arm of TestProbeAgainstNaiveScan:
// on seeded random stores whose subjects carry several values for one
// predicate (default graph plus one named graph, objects including the
// value twins "7"^^xsd:integer, "07"^^xsd:integer and "7"), a star of two
// to four members on ?x — variable objects drawn from a pool of three, so
// that an earlier member or the input row may bind them, constant
// objects, and a predicate or object the dictionary has never seen —
// joined with rows binding ?x to a stored subject or to a never-interned
// term must produce, through every consumer of a BGP level, exactly the
// level-by-level join of its members over the nested-loop reference, in
// its order. With rooted set it is the rooted arm: each star has a root
// pattern before its members, holding ?x at S — with an object that is
// free (a POS run whose subjects do not ascend), bound by the row, a
// constant or ?x again — or at O, under a subject that is a variable or a
// constant, and its predicate and constants may be unknown to the
// dictionary; rows mostly leave ?x for the root to bind.
func probeStarsAgainstLevels(t *testing.T, rng *rand.Rand, rooted bool) {
	const xsdInteger = "http://www.w3.org/2001/XMLSchema#integer"
	named := rdf.NewIRI("http://t/g")
	subjects := make([]rdf.Term, 4)
	for i := range subjects {
		subjects[i] = rdf.NewIRI(fmt.Sprintf("http://t/s%d", i))
	}
	objects := append(slices.Clone(subjects), rdf.NewIRI("http://t/o"),
		rdf.NewInteger(7), rdf.NewTypedLiteral("07", xsdInteger), rdf.NewLiteral("7"))
	preds := []rdf.Term{rdf.NewIRI("http://t/p"), rdf.NewIRI("http://t/q"), rdf.NewIRI("http://t/r")}
	unseen := []rdf.Term{rdf.NewIRI("http://t/unseen"), rdf.NewTypedLiteral("007", xsdInteger)}
	vars := []string{"y", "z", "w"}
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }

	stars, multi, descend := 0, 0, 0 // stars drawn, those a row extends to several rows, and rooted ones whose root run's subjects descend
	trials := 300
	if rooted {
		trials = 100 // a root multiplies the rows the reference joins level by level
	}
	for trial := 0; trial < trials; trial++ {
		st := store.New()
		for _, g := range []rdf.Term{{}, named} {
			ts := make([]rdf.Triple, 10+rng.Intn(50))
			for i := range ts {
				ts[i] = rdf.NewTriple(pick(subjects), pick(preds), pick(objects))
			}
			st.InsertTriples(g, ts)
		}
		r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
		x := r.vt.slot("x")
		for _, v := range vars {
			r.vt.slot(v)
		}
		var gterm rdf.Term
		var gctx graphCtx
		if rng.Intn(2) == 0 {
			gterm = named
			gctx.gid, _ = r.snap.GraphID(named)
		}
		all := r.snap.MatchAll(gterm, rdf.Term{}, rdf.Term{}, rdf.Term{})

		for si := 0; si < 6; si++ {
			members := make([]TriplePattern, 2+rng.Intn(3))
			for i := range members {
				pred := pick(preds)
				if rng.Intn(15) == 0 {
					pred = pick(unseen)
				}
				obj := VarTerm(vars[rng.Intn(len(vars))])
				switch k := rng.Intn(12); {
				case k < 3:
					obj = ConstTerm(pick(objects))
				case k == 3:
					obj = ConstTerm(pick(unseen))
				}
				members[i] = TriplePattern{S: VarTerm("x"), P: ConstTerm(pred), O: obj}
			}
			rows := make([]solution, 1+rng.Intn(6))
			for i := range rows {
				rows[i] = make(solution, len(r.vt.names))
				for slot := range rows[i] {
					switch k := rng.Intn(8); {
					case k < 5:
					case k < 7:
						rows[i][slot] = pick(objects)
					default:
						rows[i][slot] = pick(unseen)
					}
				}
				rows[i][x] = pick(subjects) // an earlier level bound it
				switch k := rng.Intn(10); {
				case k == 0:
					rows[i][x] = pick(unseen)
				case rooted && k < 8:
					rows[i][x] = rdf.Term{} // the root binds it
				}
			}
			var root *TriplePattern
			levels := members
			if rooted {
				term := func(consts []rdf.Term) PatternTerm {
					switch k := rng.Intn(12); {
					case k < 7:
						return VarTerm(vars[rng.Intn(len(vars))])
					case k == 7:
						return ConstTerm(pick(unseen))
					}
					return ConstTerm(pick(consts))
				}
				tp := TriplePattern{S: VarTerm("x"), P: ConstTerm(pick(preds)), O: term(objects)}
				switch k := rng.Intn(20); {
				case k < 9:
					tp.S, tp.O = term(subjects), VarTerm("x")
				case k == 9:
					tp.O = VarTerm("x")
				case k == 10:
					tp.P = ConstTerm(pick(unseen))
				case k == 11:
					tp.P = VarTerm(vars[rng.Intn(len(vars))])
				}
				root, levels = &tp, append([]TriplePattern{tp}, members...)
			}
			perRow := make([][]solution, len(rows))
			for i, row := range rows {
				level := []solution{row}
				for _, tp := range levels {
					var next []solution
					for _, lr := range level {
						next = append(next, naiveJoin(st.Dict(), all, tp, r.vt, lr)...)
					}
					level = next
				}
				perRow[i] = level
			}
			p := r.compileStar(root, members, gctx)
			for _, ms := range perRow {
				if len(ms) > 1 {
					multi++
					break
				}
			}
			for _, row := range rows {
				var m matches
				if p.matchRow(row, &m, new(lastMatch)); rooted && !slices.IsSortedFunc(m.run, func(a, b store.IDTriple) int { return int(p.subject(a)) - int(p.subject(b)) }) {
					descend++
					break
				}
			}
			stars++
			fail := func(what string, got, want []solution) {
				detail := make([]string, len(levels))
				for i, tp := range levels {
					detail[i] = patternDetail(tp)
				}
				t.Fatalf("trial %d, star %v in graph %v over rows %v: %s =\n%v\nwant\n%v", trial, detail, gterm, rows, what, got, want)
			}
			checkJoinKernels(t, rng, r, p, rows, perRow, si%2 == 1, fail)
		}
	}
	if multi < stars/8 {
		t.Fatalf("only %d of %d stars extend a row to several rows: the generator no longer reaches multi-valued members", multi, stars)
	}
	if rooted && descend < stars/8 {
		t.Fatalf("only %d of %d rooted stars have a root run whose subjects descend: the generator no longer reaches the search's fallback", descend, stars)
	}
}

// TestOwnedOptionalRepeatedVariable is the one case in-place extension
// gets wrong without the probe's repeated-variable mark: ?x <p> ?x over
// the single triple (a p b) matches the unbound row once by index, binds
// ?x to a, then fails on b — and the row OPTIONAL keeps must still be
// unbound.
func TestOwnedOptionalRepeatedVariable(t *testing.T) {
	st := store.New()
	a, b, pred := rdf.NewIRI("http://t/a"), rdf.NewIRI("http://t/b"), rdf.NewIRI("http://t/p")
	st.InsertTriples(rdf.Term{}, []rdf.Triple{rdf.NewTriple(a, pred, b)})
	r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
	x := r.vt.slot("x")
	p := r.compile(TriplePattern{S: VarTerm("x"), P: ConstTerm(pred), O: VarTerm("x")}, graphCtx{})
	for _, owned := range []bool{false, true} {
		got := r.optionalSingle(p, []solution{make(solution, 1)}, owned)
		if len(got) != 1 || !got[0][x].IsZero() {
			t.Errorf("optionalSingle(owned=%v) = %v, want one row with ?x unbound", owned, got)
		}
	}
}

// TestRootedStarInPlaceNeedsOneRootTriple pins the in-place rule of a
// rooted star: a row is extended in place only when its root run has one
// triple and every member one match. Here the root run has two triples
// and the first one member match: extending the owned row in place for
// the first triple would lose the second triple's row.
func TestRootedStarInPlaceNeedsOneRootTriple(t *testing.T) {
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	st := store.New()
	st.InsertTriples(rdf.Term{}, []rdf.Triple{
		rdf.NewTriple(ex("a"), ex("p"), ex("o")), rdf.NewTriple(ex("b"), ex("p"), ex("o")),
		rdf.NewTriple(ex("a"), ex("q"), rdf.NewInteger(1)), rdf.NewTriple(ex("b"), ex("q"), rdf.NewInteger(2)),
	})
	r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
	r.vt.slot("x")
	r.vt.slot("v")
	p := r.compileStar(&TriplePattern{S: VarTerm("x"), P: ConstTerm(ex("p")), O: ConstTerm(ex("o"))},
		[]TriplePattern{{S: VarTerm("x"), P: ConstTerm(ex("q")), O: VarTerm("v")}}, graphCtx{})
	rows := []solution{make(solution, 2)}
	want := [][]solution{{{ex("a"), rdf.NewInteger(1)}, {ex("b"), rdf.NewInteger(2)}}}
	checkJoinKernels(t, rand.New(rand.NewSource(1)), r, p, rows, want, false, func(what string, got, want []solution) {
		t.Fatalf("%s =\n%v\nwant\n%v", what, got, want)
	})
}

// TestOwnedKernelsSpillBeforeOvertaking drives the in-place compaction
// through the shapes its guards exist for: rows with no match ahead of a
// row with several (the write index catches up with the read index and
// the output must leave the input's header before it overwrites a row
// not yet read), and a chunk cut from a longer slice (neither the kernel
// nor whoever appends to what it returns may grow past the chunk's own
// length into its neighbour's rows — with the first guard in place the
// kernel never gets there, so the capacity is checked directly).
func TestOwnedKernelsSpillBeforeOvertaking(t *testing.T) {
	st := store.New()
	pred := rdf.NewIRI("http://t/p")
	subj := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://t/s%d", i)) }
	var ts []rdf.Triple
	for i, matches := range []int{0, 3, 1, 0, 4, 1} { // matches of subject i
		for m := 0; m < matches; m++ {
			ts = append(ts, rdf.NewTriple(subj(i), pred, rdf.NewInteger(int64(10*i+m))))
		}
	}
	st.InsertTriples(rdf.Term{}, ts)
	r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
	x := r.vt.slot("x")
	r.vt.slot("y")
	p := r.compile(TriplePattern{S: VarTerm("x"), P: ConstTerm(pred), O: VarTerm("y")}, graphCtx{})
	rows := make([]solution, 6)
	for i := range rows {
		rows[i] = make(solution, 2)
		rows[i][x] = subj(i)
	}
	kernels := []struct {
		name string
		rows int // of the reference output
		run  func(rows []solution, owned bool) []solution
	}{
		{"join", 9, func(rows []solution, owned bool) []solution {
			out, err := r.joinPatternOwned(p, rows, owned)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"OPTIONAL", 11, func(rows []solution, owned bool) []solution { return r.optionalSingle(p, rows, owned) }},
	}
	for _, k := range kernels {
		want := k.run(cloneRows(rows), false)
		if len(want) != k.rows {
			t.Fatalf("reference %s has %d rows, want %d", k.name, len(want), k.rows)
		}
		// The chunk is rows[:cut] of a longer slice whose tail must survive.
		for cut := 1; cut <= len(rows); cut++ {
			in := append(cloneRows(rows), solution{pred}, solution{pred})
			got := k.run(in[:cut], true)
			wantN := 0 // the reference rows that come from rows[:cut]
			for _, row := range want {
				if slices.ContainsFunc(rows[:cut], func(s solution) bool { return s[x] == row[x] }) {
					wantN++
				}
			}
			if !sameRows(got, want[:wantN]) {
				t.Errorf("owned %s of rows[:%d] =\n%v\nwant\n%v", k.name, cut, got, want[:wantN])
			}
			if !sameRows(in[cut:6], rows[cut:]) || in[6][0] != pred || in[7][0] != pred {
				t.Errorf("owned %s of rows[:%d] wrote past its chunk: %v", k.name, cut, in[cut:])
			}
			if len(got) > 0 && &got[0] == &in[0] && cap(got) > cut {
				t.Errorf("owned %s of rows[:%d] returns its chunk with capacity %d: an append would reach the neighbour's rows", k.name, cut, cap(got))
			}
		}
	}
}

// TestSingleMatchJoinAllocatesNothingPerRow guards the allocation shape
// of the owned kernels: an owned 1 024-row chunk joined through a pattern
// with one match per row — by a BGP level or by OPTIONAL — or crossed by
// a BIND is extended in place and compacted into its own header, so the
// whole call allocates nothing: no output slice, per-row closure, cursor,
// probe or clone. That holds for rows that each bind another ?x, and for
// rows that all bind the same one, where every row after the first
// reuses the previous row's match.
func TestSingleMatchJoinAllocatesNothingPerRow(t *testing.T) {
	st := store.New()
	val := rdf.NewIRI("http://t/value")
	const n = 1024
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://t/s%d", i)), val, rdf.NewInteger(int64(i)))
	}
	st.InsertTriples(rdf.Term{}, ts)
	r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
	x, y := r.vt.slot("x"), r.vt.slot("y")
	p := r.compile(TriplePattern{S: VarTerm("x"), P: ConstTerm(val), O: VarTerm("y")}, graphCtx{})
	for _, set := range []struct {
		name string
		at   func(i int) int // the triple whose subject row i binds ?x to
	}{
		{"distinct", func(i int) int { return i }},
		{"repeated", func(int) int { return 0 }},
	} {
		rows := make([]solution, n)
		for i := range rows {
			rows[i] = make(solution, 2)
			rows[i][x] = ts[set.at(i)].S
		}
		wantY := ts[set.at(n-1)].O
		var last Expression = ExprConst{Term: wantY}
		kernels := map[string]func() []solution{
			"join": func() []solution {
				out, err := r.joinPatternOwned(p, rows, true)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
			"OPTIONAL": func() []solution { return r.optionalSingle(p, rows, true) },
			"BIND":     func() []solution { return r.bindRows(last, y, rows, true) },
		}
		for name, kernel := range kernels {
			allocs := testing.AllocsPerRun(10, func() {
				for _, row := range rows {
					row[y] = rdf.Term{}
				}
				if out := kernel(); len(out) != n || out[n-1][y] != wantY {
					t.Fatalf("%s over %s rows returned %d rows, last %v", name, set.name, len(out), out[len(out)-1])
				}
			})
			if allocs != 0 {
				t.Errorf("%s over %d owned single-match rows (%s ?x) allocates %.0f times, want 0", name, n, set.name, allocs)
			}
		}
	}
}

// TestRowScanReturnsFailedMatch guards the one row rowScan.emit used to
// drop on the floor: ?x <p> ?x over the single triple (a p b) matches the
// unbound row once by index and fails on b, after the row was cloned. In
// a pipeline with a free list the clone goes straight back and serves the
// next scan, so a failing scan costs one allocation less than without a
// list — the row — and the row it was handed stays as it was.
func TestRowScanReturnsFailedMatch(t *testing.T) {
	st := store.New()
	a, b, pred := rdf.NewIRI("http://t/a"), rdf.NewIRI("http://t/b"), rdf.NewIRI("http://t/p")
	st.InsertTriples(rdf.Term{}, []rdf.Triple{rdf.NewTriple(a, pred, b)})
	r := &run{e: NewEngine(st), vt: newVarTable(), snap: st.Snapshot()}
	r.vt.slot("x")
	p := r.compile(TriplePattern{S: VarTerm("x"), P: ConstTerm(pred), O: VarTerm("x")}, graphCtx{})
	row := make(solution, 1)
	var last lastMatch
	scan := func(list *rowList) float64 {
		return testing.AllocsPerRun(10, func() {
			var out []solution
			if done, err := r.newRowScan(p, row, false, list, &last).emit(&out, 8); err != nil || !done || len(out) != 0 {
				t.Fatalf("scan of a pattern that cannot match: done=%v err=%v out=%v", done, err, out)
			}
		})
	}
	list := &rowList{max: 8}
	if with, without := scan(list), scan(nil); with != without-1 {
		t.Errorf("a failing scan allocates %.0f times with a free list and %.0f without, want one less: the row", with, without)
	}
	if len(list.rows) != 1 || !row[0].IsZero() {
		t.Errorf("after the scans the list holds %d rows and the input row is %v, want the one clone and an unbound row", len(list.rows), row)
	}
}
