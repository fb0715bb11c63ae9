package sparql

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

// probe is one triple pattern compiled against a run's snapshot — the
// single match/extend every BGP level, single-pattern OPTIONAL stage and
// path step joins through. What the pattern alone decides is resolved
// once, when streamGroup builds the stage: the graph id, the id of every
// constant position and the varTable slot of every variable position.
// Per row only the positions the row binds are looked up, without a
// lock, in the index the snapshot pinned; the matches are one contiguous
// run of the snapshot, and only the positions the row leaves free are
// decoded back to terms. A probe holds nothing mutable: the previous
// row's match, which a plain probe reuses when the next row binds the
// same terms, is a lastMatch kept by the loop that walks the rows
// (DESIGN §16 "Consecutive rows repeat their members").
type probe struct {
	tp   TriplePattern
	snap *store.Snapshot
	gid  store.ID

	pat  store.IDTriple // constant positions; NoID where the pattern has a variable
	slot [3]int         // row slot of the variable at S, P, O; -1 at a constant
	dead bool           // a constant the snapshot's dictionary does not hold: nothing matches

	// repeats marks a variable at two positions: extend can then fail
	// after it has bound one of them, so a row that must survive a failed
	// match (OPTIONAL) is never extended in place.
	repeats bool

	// steps holds one probe per IRI step of tp.Path, over the two-slot
	// row (start, end); nil for a plain pattern.
	steps map[*PropertyPath]*probe

	// star holds the members of a star level (DESIGN §16 "The star
	// walk"), each ?s <p> o over the subject at slot[0], which an earlier
	// level of the BGP binds; nil for a plain pattern. In a rooted star
	// ("The rooted star") the probe is itself the plain pattern that binds
	// ?s, at O when subjO is set and at S otherwise.
	star          []*probe
	rooted, subjO bool

	// keep holds, at each position whose variable a semi-join set
	// constrains, that set (DESIGN §16 "Membership in extendAt"): a match
	// whose id there is not a member is rejected before anything is
	// decoded. Only the BGP level that first binds the variable carries
	// it — a plain pattern or a rooted star's root at any position, a
	// star member at O.
	keep [3]*semiSet
}

// Bits of the free mask match returns, one per pattern position.
const (
	freeS = 1 << iota
	freeP
	freeO
)

// constIDs resolves the constant positions of tp to snap's ids, leaving
// NoID at its variables; ok is false when a constant was not interned
// when snap was published, so none of its triples can match.
func constIDs(snap *store.Snapshot, tp TriplePattern) (store.IDTriple, bool) {
	term := func(pt PatternTerm) rdf.Term {
		if pt.IsVar {
			return rdf.Term{}
		}
		return pt.Term
	}
	return snap.PatternIDs(term(tp.S), term(tp.P), term(tp.O))
}

// compile builds the probe of tp in the active graph.
func (r *run) compile(tp TriplePattern, gctx graphCtx) *probe {
	p := &probe{tp: tp, snap: r.snap, gid: gctx.gid, slot: [3]int{-1, -1, -1}}
	for i, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar {
			p.slot[i] = r.vt.slot(pt.Var)
		}
	}
	s, pr, o := p.slot[0], p.slot[1], p.slot[2]
	p.repeats = (s >= 0 && (s == pr || s == o)) || (pr >= 0 && pr == o)
	if tp.Path != nil {
		p.steps = make(map[*PropertyPath]*probe)
		p.compileSteps(tp.Path)
		return p
	}
	var ok bool
	p.pat, ok = constIDs(r.snap, tp)
	p.dead = !ok
	return p
}

// compileSteps compiles every IRI step under path as ?0 <iri> ?1.
func (p *probe) compileSteps(path *PropertyPath) {
	if path.Kind == PathIRI {
		step := &probe{snap: p.snap, gid: p.gid, slot: [3]int{0, -1, 1}}
		var ok bool
		step.pat, ok = p.snap.PatternIDs(rdf.Term{}, path.IRI, rdf.Term{})
		step.dead = !ok
		p.steps[path] = step
	}
	for _, sub := range path.Sub {
		p.compileSteps(sub)
	}
}

// compileStar builds the star level of members, patterns that share the
// subject variable ?s (starMember): rooted at root, the pattern that binds
// ?s, compiled as the star's own probe — or, when root is nil, at the ?s
// an earlier level binds. One member, or a root, the dictionary cannot
// match makes the whole star dead.
func (r *run) compileStar(root *TriplePattern, members []TriplePattern, gctx graphCtx) *probe {
	s := members[0].S.Var
	var p *probe
	if root != nil {
		p = r.compile(*root, gctx)
		p.rooted, p.subjO = true, !(root.S.IsVar && root.S.Var == s)
	} else {
		p = &probe{tp: members[0], snap: r.snap, gid: gctx.gid, slot: [3]int{r.vt.slot(s), -1, -1}}
	}
	for _, tp := range members {
		m := r.compile(tp, gctx)
		p.dead = p.dead || m.dead
		p.star = append(p.star, m)
	}
	return p
}

// starMember reports whether tp can join a star on ?s: a plain pattern
// ?s <constant> o whose object is not ?s again.
func starMember(tp TriplePattern, s string) bool {
	return tp.Path == nil && tp.S.IsVar && tp.S.Var == s && !tp.P.IsVar && !(tp.O.IsVar && tp.O.Var == s)
}

// rootVar returns the variable ?s by which tps[0] roots a star: a plain
// pattern holding ?s at S or, failing that, at O, followed by a member on
// ?s; "" when there is none.
func rootVar(tps []TriplePattern) string {
	if len(tps) < 2 || tps[0].Path != nil {
		return ""
	}
	for _, pt := range [2]PatternTerm{tps[0].S, tps[0].O} {
		if pt.IsVar && starMember(tps[1], pt.Var) {
			return pt.Var
		}
	}
	return ""
}

// bindsVar reports whether a pattern of tps has the variable v. Every
// row a BGP level emits binds all of its pattern's variables; flush asks
// this once per pattern of every BGP it builds — per row, in a nested
// pipeline — so it allocates nothing.
func bindsVar(tps []TriplePattern, v string) bool {
	for _, tp := range tps {
		for _, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar && pt.Var == v {
				return true
			}
		}
	}
	return false
}

// matches is what one row matched: the run of a plain pattern — or of a
// rooted star's root — and the positions the row leaves free, and the
// sub-run of every member of a star. n counts the candidate rows — the
// run's triples, or the product of the sub-runs' lengths — before
// extendAt's checks. A rooted star's candidates come in groups, one per
// triple of its root run: at is the root triple the sub-runs belong to.
type matches struct {
	run  []store.IDTriple
	free uint8
	runs [][]store.IDTriple
	n    int
	at   int
}

// matchRow fills m with what row matches — for a rooted star, the root
// run and the first root triple's group. A plain pattern, or a rooted
// star's root, matches through last, the loop's memo. A star takes its
// subject's whole SPO run at once; each member's matches are the sub-run
// of its predicate — and of its object, when that is a constant — which
// the run holds sorted by (P, O). The sub-run slice is m's, reused from
// row to row.
func (p *probe) matchRow(row solution, m *matches, last *lastMatch) {
	if p.star == nil || p.rooted {
		m.run, m.free = p.matchLast(row, last)
		m.n, m.at = len(m.run), -1
		if p.rooted {
			m.n = 0
			p.nextRoot(m)
		}
		return
	}
	if m.n = 0; p.dead {
		return
	}
	if s, ok := p.snap.Lookup(row[p.slot[0]]); ok {
		p.memberRuns(p.snap.Range(p.gid, store.IDTriple{S: s}), m)
	}
}

// nextRoot moves a rooted star's m to the group of the next root
// triple, reporting false once the root run is done — and at once for
// every other shape, whose one group matchRow filled. The triple's
// subject is its own S (O when subjO is set): no Lookup, and its SPO
// run is two loads from the graph's subject table (store's graph.rng).
// A repeated subject keeps its group.
func (p *probe) nextRoot(m *matches) bool {
	if !p.rooted || m.at+1 >= len(m.run) {
		return false
	}
	m.at++
	s := p.subject(m.run[m.at])
	if m.at > 0 && s == p.subject(m.run[m.at-1]) {
		return true
	}
	p.memberRuns(p.snap.Range(p.gid, store.IDTriple{S: s}), m)
	return true
}

// subject returns the id at a rooted star's subject position of t.
func (p *probe) subject(t store.IDTriple) store.ID {
	if p.subjO {
		return t.O
	}
	return t.S
}

// single reports whether m holds exactly one candidate, the rule for
// extending a row in place: a rooted star's root run has one triple too.
func (p *probe) single(m *matches) bool {
	return m.n == 1 && (!p.rooted || len(m.run) == 1)
}

// memberRuns fills m with each member's sub-run of all, one subject's
// SPO run, and n with the product of their lengths.
func (p *probe) memberRuns(all []store.IDTriple, m *matches) {
	if m.n = 0; m.runs == nil {
		m.runs = make([][]store.IDTriple, len(p.star))
	}
	n := 1
	for i, mem := range p.star {
		m.runs[i] = subRun(all, mem.pat.P, mem.pat.O)
		if n *= len(m.runs[i]); n == 0 {
			return
		}
	}
	m.n = n
}

// subRun returns the triples of one subject's SPO run with predicate p
// and, unless o is NoID, object o.
func subRun(run []store.IDTriple, p, o store.ID) []store.IDTriple {
	lo, hi := 0, len(run)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); run[mid].P < p || run[mid].P == p && run[mid].O < o {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	hi = lo
	for hi < len(run) && run[hi].P == p && (o == store.NoID || run[hi].O == o) {
		hi++
	}
	return run[lo:hi]
}

// extendAt extends dst by candidate i of m's group, reporting whether
// the repeated-variable constraints hold. A star's candidate i is one
// combination of its members' matches, the last member varying fastest —
// the order the level-by-level join emits them in — after a rooted
// star's root triple. Each member's object goes through bind, so a
// variable the row, the root or an earlier member already bound is
// checked, not looked up: exactly what that join matches.
func (p *probe) extendAt(dst solution, m *matches, i int) bool {
	if p.star == nil {
		return p.extend(dst, m.run[i], m.free)
	}
	if p.rooted && !p.extend(dst, m.run[m.at], m.free) {
		return false
	}
	for k := len(m.runs) - 1; k >= 0; k-- {
		run := m.runs[k]
		t := run[i%len(run)]
		i /= len(run)
		mem := p.star[k]
		if s := mem.keep[2]; s != nil && !s.has(t.O) {
			return false
		}
		if slot := mem.slot[2]; slot >= 0 && !bind(dst, slot, p.snap.Term(t.O)) {
			return false
		}
	}
	return true
}

// match returns the snapshot's triples matching the pattern under row,
// and which variable positions row leaves free for extend to bind. A
// row binding a term the snapshot does not hold (a BIND result, say)
// matches nothing.
func (p *probe) match(row solution) (run []store.IDTriple, free uint8) {
	if p.dead {
		return nil, 0
	}
	pat := p.pat
	for i, id := range [3]*store.ID{&pat.S, &pat.P, &pat.O} {
		if p.slot[i] < 0 {
			continue
		}
		t := row[p.slot[i]]
		if t.IsZero() {
			free |= 1 << i
			continue
		}
		var ok bool
		if *id, ok = p.snap.Lookup(t); !ok {
			return nil, 0
		}
	}
	return p.snap.Range(p.gid, pat), free
}

// lastMatch is the memo of one loop over rows that a plain probe — or a
// rooted star's root — matches: the previous row's key, copies of the
// terms it bound at the pattern's variable positions (zero where it left
// one free, so the free mask is part of the key), and what it matched.
// It holds copies of terms, never the row, which goes back to the
// pipeline.
type lastMatch struct {
	key  [3]rdf.Term
	run  []store.IDTriple
	free uint8
	warm bool
}

// matchLast is match through last: a row whose key equals the previous
// row's under == gets the previous answer, which is the one match would
// compute — equal terms have equal ids.
func (p *probe) matchLast(row solution, last *lastMatch) ([]store.IDTriple, uint8) {
	var key [3]rdf.Term
	for i, slot := range p.slot {
		if slot >= 0 {
			key[i] = row[slot]
		}
	}
	if !last.warm || key != last.key {
		last.run, last.free = p.match(row)
		last.key, last.warm = key, true
	}
	return last.run, last.free
}

// bind writes t into dst[slot], reporting false when the slot already
// holds another term — a variable repeated within the pattern.
func bind(dst solution, slot int, t rdf.Term) bool {
	if !dst[slot].IsZero() && dst[slot] != t {
		return false
	}
	dst[slot] = t
	return true
}

// extend decodes the free positions of match t into dst, reporting
// whether the semi-join checks and the repeated-variable constraints
// hold.
func (p *probe) extend(dst solution, t store.IDTriple, free uint8) bool {
	if p.keep != [3]*semiSet{} && !p.kept(t) {
		return false
	}
	return (free&freeS == 0 || bind(dst, p.slot[0], p.snap.Term(t.S))) &&
		(free&freeP == 0 || bind(dst, p.slot[1], p.snap.Term(t.P))) &&
		(free&freeO == 0 || bind(dst, p.slot[2], p.snap.Term(t.O)))
}

// keepVar makes the probe check, at every position where tp has the
// variable v, that a match's id there is a member of s.
func (p *probe) keepVar(tp TriplePattern, v string, s *semiSet) {
	for i, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
		if pt.IsVar && pt.Var == v {
			p.keep[i] = s
		}
	}
}

// kept reports whether every id of t is a member of its position's set,
// if it has one. At a position the row binds, the id is the row's.
func (p *probe) kept(t store.IDTriple) bool {
	for i, id := range [3]store.ID{t.S, t.P, t.O} {
		if s := p.keep[i]; s != nil && !s.has(id) {
			return false
		}
	}
	return true
}

// outFor returns the slice a per-chunk kernel appends its output to. An
// owned chunk (DESIGN §16 "Chunk ownership") is compacted into its own
// header, capped at its length so that an append past it reallocates
// instead of writing into whatever the caller's slice holds beyond;
// writing there is safe while the write index stays at or behind the
// row being read — spill is the way out once a multi-match row would
// overtake it.
func outFor(rows []solution, owned bool) []solution {
	if owned {
		return rows[:0:len(rows)]
	}
	return make([]solution, 0, len(rows))
}

// spill moves an in-place output off the input's header.
func spill(out []solution) []solution {
	return append(make([]solution, 0, 2*cap(out)), out...)
}

// joinPatternOwned extends every solution with the matches of one
// pattern, or of every member of a star. When owned is true the chunk is
// the caller's to reuse: an input row with exactly one match is extended
// in place instead of cloned, which removes the dominant allocation cost
// of long functional join chains (one row per observation through every
// pattern of a generated OLAP query), and the output is compacted into
// the input's own header; otherwise neither the rows nor the header are
// mutated.
func (r *run) joinPatternOwned(p *probe, rows []solution, owned bool) ([]solution, error) {
	if p.steps != nil {
		return r.joinPath(p, rows)
	}
	out, inPlace := outFor(rows, owned), owned
	var m matches
	var last lastMatch
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			return nil, r.cancelErr()
		}
		if p.matchRow(row, &m, &last); p.single(&m) {
			dst := row
			if !owned {
				dst = row.clone()
			}
			if p.extendAt(dst, &m, 0) {
				out = append(out, dst)
			}
			continue
		}
		// A single unselective pattern can match the whole store for one
		// input row, so the scan itself checks for cancellation too
		// (stopping the scan; the caller then errors out), counting every
		// candidate and every root triple a rooted star visits.
	scan:
		for tick := 0; ; {
			for mi := 0; mi < m.n; mi++ {
				if tick++; tick%(cancelCheckRows*4) == 0 && r.cancelled() {
					break scan
				}
				if nrow := row.clone(); p.extendAt(nrow, &m, mi) {
					if inPlace && len(out) > ri {
						out, inPlace = spill(out), false
					}
					out = append(out, nrow)
				}
			}
			if tick++; !p.nextRoot(&m) || tick%(cancelCheckRows*4) == 0 && r.cancelled() {
				break
			}
		}
	}
	return out, nil
}

// optionalSingle implements OPTIONAL { <one pattern> }: every left row
// is kept, extended by each match when there is one. An owned chunk is
// reused as in joinPatternOwned, except that a single-match row is
// extended in place only when the pattern repeats no variable: a failing
// extend must leave the surviving row untouched.
func (r *run) optionalSingle(p *probe, rows []solution, owned bool) []solution {
	out, inPlace := outFor(rows, owned), owned
	var last lastMatch
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			break // the next chunk boundary errors out
		}
		run, free := p.matchLast(row, &last)
		if owned && len(run) == 1 && !p.repeats {
			p.extend(row, run[0], free)
			out = append(out, row)
			continue
		}
		matched := false
		for _, t := range run {
			if nrow := row.clone(); p.extend(nrow, t, free) {
				matched = true
				if inPlace && len(out) > ri {
					out, inPlace = spill(out), false
				}
				out = append(out, nrow)
			}
		}
		if !matched {
			out = append(out, row)
		}
	}
	return out
}
