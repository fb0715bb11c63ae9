package store

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// IDTriple is a triple of dictionary ids.
type IDTriple struct {
	S, P, O ID
}

// order names one of the three sorted orderings every graph keeps.
type order int

const (
	spo order = iota // sorted (S, P, O)
	pos              // sorted (P, O, S)
	osp              // sorted (O, S, P)
)

// cmp3 orders two keys given component by component. It and the three
// comparators built on it are small enough to be inlined into search.
func cmp3(a0, b0, a1, b1, a2, b2 ID) int {
	if a0 == b0 {
		if a0, b0 = a1, b1; a0 == b0 {
			a0, b0 = a2, b2
		}
	}
	if a0 < b0 {
		return -1
	}
	if a0 > b0 {
		return 1
	}
	return 0
}

func cmpSPO(a, b IDTriple) int { return cmp3(a.S, b.S, a.P, b.P, a.O, b.O) }
func cmpPOS(a, b IDTriple) int { return cmp3(a.P, b.P, a.O, b.O, a.S, b.S) }
func cmpOSP(a, b IDTriple) int { return cmp3(a.O, b.O, a.S, b.S, a.P, b.P) }

// cmpOrder is the comparator of each ordering, indexed by order.
var cmpOrder = [3]func(a, b IDTriple) int{spo: cmpSPO, pos: cmpPOS, osp: cmpOSP}

// search returns the first position in idx, sorted in ordering o, of a
// triple not below key — or, with after set, of a triple above it.
func (o order) search(idx []IDTriple, key IDTriple, after bool) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		var c int
		switch o {
		case spo:
			c = cmpSPO(idx[m], key)
		case pos:
			c = cmpPOS(idx[m], key)
		default:
			c = cmpOSP(idx[m], key)
		}
		if c < 0 || after && c == 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// graph is the immutable state of one RDF graph: the same duplicate-free
// triple set in each of the three orderings, plus statistics computed on
// first use. Nothing reachable from a published graph is ever written
// again, which is what lets scans run without a lock.
type graph struct {
	idx [3][]IDTriple

	// subj is the subject table over the SPO ordering: subj[s-lo] is the
	// first position whose subject is at least s, with one entry past the
	// highest subject, so subject s's run is idx[spo][subj[s-lo]:subj[s-lo+1]].
	// It is nil when its span of subject ids would cost more than one
	// entry per triple (see indexSubjects).
	subj []uint32
	lo   ID

	statsOnce sync.Once
	stats     *gstats
}

// has reports whether t is in g: a search inside t's subject run.
func (g *graph) has(t IDTriple) bool { return len(g.rng(t)) == 1 }

// indexSubjects builds g's subject table in one pass over its SPO
// ordering — unless the subjects span more ids than the graph has
// triples, which bounds the table at one uint32 per triple (a ninth of
// what the three orderings hold) and leaves a graph of few, scattered
// subjects to binary search.
func (g *graph) indexSubjects() {
	idx := g.idx[spo]
	if len(idx) == 0 {
		return
	}
	lo, hi := idx[0].S, idx[len(idx)-1].S
	if int(hi-lo)+2 > len(idx) {
		return
	}
	subj := make([]uint32, hi-lo+2)
	s := lo
	for i, t := range idx {
		for ; s <= t.S; s++ {
			subj[s-lo] = uint32(i)
		}
	}
	subj[s-lo] = uint32(len(idx))
	g.subj, g.lo = subj, lo
}

// subjectRun returns subject s's run of the SPO ordering from the
// subject table, which g must have.
func (g *graph) subjectRun(s ID) []IDTriple {
	if s < g.lo || int(s-g.lo)+1 >= len(g.subj) {
		return nil
	}
	i, j := g.subj[s-g.lo], g.subj[s-g.lo+1]
	return g.idx[spo][i:j:j]
}

// rng returns the triples matching pat (NoID components are wildcards)
// as one contiguous run of one ordering: every combination of bound
// components is a prefix of SPO (S, SP, SPO), POS (P, PO) or OSP (O, OS),
// so a match is two binary searches and no per-triple filtering. The
// run lies between pat itself — NoID sorts below every id — and pat
// with its wildcards raised to the largest id. An S-bound pattern reads
// its subject's run from the subject table when g has one: S alone is
// that run, and SP and SPO search inside it only.
func (g *graph) rng(pat IDTriple) []IDTriple {
	o := spo
	switch {
	case pat.S != NoID && (pat.P != NoID || pat.O == NoID):
	case pat.O != NoID && (pat.S != NoID || pat.P == NoID):
		o = osp
	case pat.P != NoID:
		o = pos
	}
	idx := g.idx[o]
	if o == spo && pat.S != NoID && g.subj != nil {
		if idx = g.subjectRun(pat.S); pat.P == NoID {
			return idx
		}
	}
	idx = idx[o.search(idx, pat, false):]
	top := pat
	for _, c := range [3]*ID{&top.S, &top.P, &top.O} {
		if *c == NoID {
			*c = ^NoID
		}
	}
	// Most runs are a handful of triples (one observation's value for one
	// predicate), so the upper end is found by doubling from the lower
	// one: the search stays on the cache lines the run itself occupies.
	step := 1
	for step < len(idx) && cmpOrder[o](idx[step-1], top) <= 0 {
		step *= 2
	}
	hi := step/2 + o.search(idx[step/2:min(step, len(idx))], top, true)
	return idx[:hi:hi]
}

// delta is the unpublished writes against one graph. adds and dels are
// disjoint; len(base)+len(adds)-len(dels) is the graph's size.
type delta struct {
	base *graph                // the state the writes apply to: the published graph, or an empty one for a new or cleared graph
	adds map[IDTriple]struct{} // pending inserts, none of them in base
	dels map[IDTriple]struct{} // pending deletes, all of them in base
}

func newDelta(base *graph) *delta {
	return &delta{base: base, adds: make(map[IDTriple]struct{}), dels: make(map[IDTriple]struct{})}
}

func (d *delta) insert(t IDTriple) bool {
	if _, ok := d.dels[t]; ok {
		delete(d.dels, t)
		return true
	}
	if _, ok := d.adds[t]; ok || d.base.has(t) {
		return false
	}
	d.adds[t] = struct{}{}
	return true
}

func (d *delta) remove(t IDTriple) bool {
	if _, ok := d.adds[t]; ok {
		delete(d.adds, t)
		return true
	}
	if _, ok := d.dels[t]; ok || !d.base.has(t) {
		return false
	}
	d.dels[t] = struct{}{}
	return true
}

// merged returns base with the delta applied, as a fresh graph: the
// delta alone is ordered (once per ordering) and merged into a copy of
// the base ordering, an O(n) copy for n triples. On an empty base the
// ordered delta becomes the ordering itself, so a bulk load copies
// nothing beyond its three slices.
//
// k adds whose ids span no more values than k — a bulk load, whose ids
// the load itself interned — are ordered by five stable counting passes
// of O(k + span) each (see countPasses). Any other adds sort by
// comparison, O(k log k) per ordering, so a small write onto a large
// dictionary never pays a span-sized count array; so do the deletes,
// always.
func (d *delta) merged() *graph {
	if len(d.adds)+len(d.dels) == 0 {
		return d.base
	}
	keys := func(m map[IDTriple]struct{}) []IDTriple {
		out := make([]IDTriple, 0, len(m))
		for t := range m {
			out = append(out, t)
		}
		return out
	}
	adds, dels := keys(d.adds), keys(d.dels)
	g := new(graph)
	merge := func(o order, a []IDTriple) {
		slices.SortFunc(dels, cmpOrder[o])
		g.idx[o] = o.merge(d.base.idx[o], a, dels)
	}
	empty := len(d.base.idx[spo]) == 0
	if cnt := countArray(adds); cnt != nil {
		countPasses(adds, cnt, empty, merge)
	} else {
		for o := spo; o <= osp; o++ {
			a := adds
			if empty && o < osp {
				a = slices.Clone(adds) // kept as the ordering; adds is reused for the next one
			}
			slices.SortFunc(a, cmpOrder[o])
			merge(o, a)
		}
	}
	g.indexSubjects()
	return g
}

// countArray returns the count array the counting passes over adds
// need — one entry per id up to the largest one adds hold, and one more
// — or nil when that span exceeds len(adds), where comparison sorts are
// cheaper.
func countArray(adds []IDTriple) []uint32 {
	var top ID
	for _, t := range adds {
		top = max(top, t.S, t.P, t.O)
	}
	if int(top) >= len(adds) {
		return nil
	}
	return make([]uint32, top+2)
}

// component is one position of an IDTriple, the key of a counting pass.
type component int

const (
	compS component = iota
	compP
	compO
)

func (t IDTriple) at(c component) ID {
	switch c {
	case compS:
		return t.S
	case compP:
		return t.P
	}
	return t.O
}

// countPasses orders adds in each ordering by stable counting passes
// over cnt (from countArray) and hands each to merge as it is ready: SPO
// after three least-significant-first passes (by O, then P, then S); OSP
// after one pass by O over SPO, whose ties on O are already in (S, P)
// order; POS after one pass by P over OSP, whose ties on P are already
// in (O, S) order. The passes rotate through adds and fresh slices of
// its length: two of them on an empty base, where merge keeps each
// ordering as it stands and a rotation of three never overwrites one
// already handed over; else one, since merge copies what it is given.
func countPasses(adds []IDTriple, cnt []uint32, empty bool, merge func(order, []IDTriple)) {
	bufs := append(make([][]IDTriple, 0, 3), adds, make([]IDTriple, len(adds)))
	if empty {
		bufs = append(bufs, make([]IDTriple, len(adds)))
	}
	i := 0
	pass := func(c component) []IDTriple {
		src := bufs[i]
		i = (i + 1) % len(bufs)
		countPass(bufs[i], src, cnt, c)
		return bufs[i]
	}
	pass(compO)
	pass(compP)
	merge(spo, pass(compS))
	merge(osp, pass(compO))
	merge(pos, pass(compP))
}

// countPass writes src to dst ordered by component c, keeping the order
// of src among equal keys.
func countPass(dst, src []IDTriple, cnt []uint32, c component) {
	clear(cnt)
	for _, t := range src {
		cnt[t.at(c)+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for _, t := range src {
		k := t.at(c)
		dst[cnt[k]] = t
		cnt[k]++
	}
}

// merge returns base − dels + adds; all three are sorted in ordering o,
// dels is a subset of base and adds is disjoint from it. Each change is
// located in what is left of base by binary search and the run before
// it copied whole.
func (o order) merge(base, adds, dels []IDTriple) []IDTriple {
	if len(base) == 0 {
		return adds
	}
	out := make([]IDTriple, 0, len(base)+len(adds)-len(dels))
	for len(adds)+len(dels) > 0 {
		if len(adds) == 0 || len(dels) > 0 && cmpOrder[o](dels[0], adds[0]) < 0 {
			i := o.search(base, dels[0], false)
			out = append(out, base[:i]...)
			base, dels = base[i+1:], dels[1:]
		} else {
			i := o.search(base, adds[0], false)
			out = append(append(out, base[:i]...), adds[0])
			base, adds = base[i:], adds[1:]
		}
	}
	return append(out, base...)
}

// Snapshot is an immutable view of the whole dataset — every graph as it
// stood when the snapshot was published. All reads go through one: it
// takes no lock, never changes, and may be held for as long as needed
// (the SPARQL engine pins one per query, which is what makes a query
// see either all of a concurrent update operation or none of it).
type Snapshot struct {
	dict   *Dict
	terms  []rdf.Term      // the dictionary's table when this snapshot was published; see Term
	index  []atomic.Uint32 // its term → id index at the same moment; see Lookup
	epoch  uint64
	graphs map[ID]*graph // NoID is the default graph, always present
}

// Term decodes an id found in this snapshot — a component of one of its
// triples or the id of one of its graphs — without taking a lock. Such
// an id always lies inside the pinned table: Intern and publish both run
// under Store.mu, so every id a published triple carries was assigned
// before the table was pinned. An id interned later comes only from the
// Dict; it matches nothing in this snapshot and is never decoded.
func (sn *Snapshot) Term(id ID) rdf.Term { return sn.terms[id] }

// Lookup returns the id of t if the dictionary held t when this snapshot
// was published, probing the pinned index without a lock. A term
// interned since occurs in none of the snapshot's triples.
func (sn *Snapshot) Lookup(t rdf.Term) (ID, bool) {
	id, _ := sn.dict.find(sn.terms, sn.index, t)
	return id, id != NoID
}

// PatternIDs is Dict.PatternIDs through Lookup.
func (sn *Snapshot) PatternIDs(sub, pred, obj rdf.Term) (IDTriple, bool) {
	return patternIDs(sn.Lookup, sub, pred, obj)
}

// graphID looks up a graph term; the zero term is the default graph.
func (sn *Snapshot) graphID(g rdf.Term) (ID, bool) {
	if g.IsZero() {
		return NoID, true
	}
	return sn.Lookup(g)
}

// Epoch counts the publishes that led to this snapshot; two snapshots
// of one store with equal epochs are the same snapshot.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// Dict is the store's term dictionary (shared by all its snapshots).
func (sn *Snapshot) Dict() *Dict { return sn.dict }

// Store is an in-memory RDF dataset: one default graph plus any number
// of named graphs, sharing a single term dictionary. It is safe for
// concurrent use.
//
// Readers take Snapshot() — one atomic load when nothing was written
// since the last one — and never block on, or are blocked by, anything
// afterwards. Writers serialize on one mutex and only record their
// triples in a per-graph pending delta; the first Snapshot() after a
// write burst merges the deltas into fresh orderings and publishes the
// result (see delta.merged for the cost). Everything a Batch wrote is
// published together, so a Batch is atomic to every reader. The read
// methods on Store are shorthands for the same method on Snapshot().
type Store struct {
	dict *Dict
	cur  atomic.Pointer[Snapshot] // the last published snapshot

	mu      sync.Mutex    // serializes writers and publishes
	pending map[ID]*delta // graphs written since the last publish; guarded by mu
	stale   atomic.Bool   // len(pending) > 0, readable without mu
}

// New returns an empty store.
func New() *Store {
	s := &Store{dict: NewDict(), pending: make(map[ID]*delta)}
	s.cur.Store(s.dict.pin(&Snapshot{graphs: map[ID]*graph{NoID: new(graph)}}))
	return s
}

// Dict exposes the store's term dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Snapshot returns the current state of the store, publishing pending
// writes first. Every write that returned before the call is visible in
// the result.
func (s *Store) Snapshot() *Snapshot {
	if !s.stale.Load() {
		return s.cur.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if len(s.pending) == 0 {
		return old // another reader published while we waited
	}
	sn := s.dict.pin(&Snapshot{epoch: old.epoch + 1, graphs: make(map[ID]*graph, len(old.graphs)+len(s.pending))})
	for g, gr := range old.graphs {
		sn.graphs[g] = gr
	}
	for g, d := range s.pending {
		sn.graphs[g] = d.merged()
	}
	clear(s.pending)
	s.cur.Store(sn)
	s.stale.Store(false)
	return sn
}

// Batch is the write handle passed to Store.Batch's callback.
type Batch struct{ s *Store }

// Batch runs fn holding the write lock, so everything fn writes through
// b becomes visible to readers at once. fn must not read the store
// (Snapshot would wait for the lock fn holds); a read-modify-write
// takes its Snapshot before calling Batch.
func (s *Store) Batch(fn func(b *Batch)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(&Batch{s})
}

// delta returns the pending delta of graph g, opening one when the
// graph exists or create is set; nil otherwise.
func (b *Batch) delta(g ID, create bool) *delta {
	if d := b.s.pending[g]; d != nil {
		return d
	}
	base := b.s.cur.Load().graphs[g]
	if base == nil {
		if !create {
			return nil
		}
		base = new(graph)
	}
	d := newDelta(base)
	b.s.pending[g] = d
	b.s.stale.Store(true)
	return d
}

// Insert adds a quad and reports whether it was new.
func (b *Batch) Insert(q rdf.Quad) bool {
	dict := b.s.dict
	g, _ := dict.graphID(q.G, true)
	return b.delta(g, true).insert(IDTriple{dict.Intern(q.S), dict.Intern(q.P), dict.Intern(q.O)})
}

// Delete removes a quad and reports whether it was present.
func (b *Batch) Delete(q rdf.Quad) bool {
	pat, ok := b.s.dict.PatternIDs(q.S, q.P, q.O)
	if !ok {
		return false
	}
	g, ok := b.s.dict.graphID(q.G, false)
	if !ok {
		return false
	}
	d := b.delta(g, false)
	return d != nil && d.remove(pat)
}

// reset makes graph g's next snapshot start from an empty base, which
// empties the graph in O(1).
func (b *Batch) reset(g ID) {
	b.s.pending[g] = newDelta(new(graph))
	b.s.stale.Store(true)
}

// Clear empties the graph named by g (zero Term for the default graph);
// a graph that does not exist is left that way.
func (b *Batch) Clear(g rdf.Term) {
	gid, ok := b.s.dict.graphID(g, false)
	if ok && (b.s.pending[gid] != nil || b.s.cur.Load().graphs[gid] != nil) {
		b.reset(gid)
	}
}

// ClearAll empties every graph.
func (b *Batch) ClearAll() {
	for g := range b.s.cur.Load().graphs {
		b.reset(g)
	}
	for g := range b.s.pending {
		b.reset(g)
	}
}

// Insert adds a quad and reports whether it was new.
func (s *Store) Insert(q rdf.Quad) (added bool) {
	s.Batch(func(b *Batch) { added = b.Insert(q) })
	return added
}

// Delete removes a quad and reports whether it was present.
func (s *Store) Delete(q rdf.Quad) (removed bool) {
	s.Batch(func(b *Batch) { removed = b.Delete(q) })
	return removed
}

// insertChunk bounds how many triples a bulk insert adds per Batch, so a
// concurrent reader waits for one chunk, not for the whole load, before
// it publishes.
const insertChunk = 4096

// InsertTriples bulk-adds triples into the graph named by g (zero Term
// for the default graph) and returns the number actually added. Each
// chunk of insertChunk triples is one Batch: a concurrent reader sees
// whole chunks only.
func (s *Store) InsertTriples(g rdf.Term, ts []rdf.Triple) int {
	gid, _ := s.dict.graphID(g, true)
	added := 0
	for len(ts) > 0 {
		chunk := ts[:min(len(ts), insertChunk)]
		ts = ts[len(chunk):]
		s.Batch(func(b *Batch) {
			d := b.delta(gid, true)
			for _, t := range chunk {
				if d.insert(IDTriple{s.dict.Intern(t.S), s.dict.Intern(t.P), s.dict.Intern(t.O)}) {
					added++
				}
			}
		})
	}
	return added
}

// Len returns the number of triples in the graph named by g (zero Term
// for the default graph).
func (sn *Snapshot) Len(g rdf.Term) int {
	gid, ok := sn.graphID(g)
	if !ok {
		return 0
	}
	return sn.Count(gid, IDTriple{})
}

// TotalLen returns the number of triples across all graphs.
func (sn *Snapshot) TotalLen() int {
	n := 0
	for _, gr := range sn.graphs {
		n += len(gr.idx[spo])
	}
	return n
}

// GraphNames returns the terms naming the non-empty named graphs.
func (sn *Snapshot) GraphNames() []rdf.Term {
	var out []rdf.Term
	for gid, gr := range sn.graphs {
		if gid != NoID && len(gr.idx[spo]) > 0 {
			out = append(out, sn.Term(gid))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// GraphID resolves a graph term to its id, reporting whether the graph
// exists. The zero term resolves to NoID (the default graph).
func (sn *Snapshot) GraphID(g rdf.Term) (ID, bool) {
	gid, ok := sn.graphID(g)
	if !ok || sn.graphs[gid] == nil {
		return NoID, false
	}
	return gid, true
}

// NamedGraphIDs returns ids of all named graphs, ascending.
func (sn *Snapshot) NamedGraphIDs() []ID {
	out := make([]ID, 0, len(sn.graphs)-1)
	for gid := range sn.graphs {
		if gid != NoID {
			out = append(out, gid)
		}
	}
	slices.Sort(out)
	return out
}

// Range returns the id-triples in graph g (NoID for the default graph)
// matching the pattern (NoID components are wildcards), in the order of
// the index that serves it. The slice is part of the snapshot: callers
// must not modify it.
func (sn *Snapshot) Range(g ID, pat IDTriple) []IDTriple {
	gr := sn.graphs[g]
	if gr == nil {
		return nil
	}
	return gr.rng(pat)
}

// Count returns the exact number of triples matching the pattern in
// graph g: two binary searches at most, cheap enough for the query
// planner to call per pattern.
func (sn *Snapshot) Count(g ID, pat IDTriple) int { return len(sn.Range(g, pat)) }

// termRange is Range over terms: zero terms are wildcards, and a bound
// term or graph missing from the dictionary matches nothing.
func (sn *Snapshot) termRange(g, sub, pred, obj rdf.Term) []IDTriple {
	gid, ok := sn.graphID(g)
	if !ok {
		return nil
	}
	pat, ok := sn.PatternIDs(sub, pred, obj)
	if !ok {
		return nil
	}
	return sn.Range(gid, pat)
}

// triple resolves an id-triple of this snapshot back to terms.
func (sn *Snapshot) triple(t IDTriple) rdf.Triple {
	return rdf.NewTriple(sn.Term(t.S), sn.Term(t.P), sn.Term(t.O))
}

// Match streams term-level triples matching a term pattern (zero terms
// are wildcards) from graph g (zero Term for default) until fn returns
// false.
func (sn *Snapshot) Match(g rdf.Term, sub, pred, obj rdf.Term, fn func(rdf.Triple) bool) {
	for _, t := range sn.termRange(g, sub, pred, obj) {
		if !fn(sn.triple(t)) {
			return
		}
	}
}

// MatchAll collects all matching triples from graph g.
func (sn *Snapshot) MatchAll(g rdf.Term, sub, pred, obj rdf.Term) []rdf.Triple {
	ids := sn.termRange(g, sub, pred, obj)
	if len(ids) == 0 {
		return nil
	}
	out := make([]rdf.Triple, len(ids))
	for i, t := range ids {
		out[i] = sn.triple(t)
	}
	return out
}

// Scan is a resumable cursor over one Range of a snapshot. It holds no
// lock and the snapshot never changes, so a Scan may be suspended
// indefinitely — e.g. held across chunk boundaries by the streaming
// query pipeline — without holding up writers, and keeps yielding the
// triples of the snapshot it was taken from.
type Scan struct {
	rest []IDTriple
}

// ScanIDs returns a cursor over Range(g, pat).
func (sn *Snapshot) ScanIDs(g ID, pat IDTriple) *Scan {
	return &Scan{rest: sn.Range(g, pat)}
}

// Next returns the next matching id-triple; ok is false once the cursor
// is exhausted.
func (c *Scan) Next() (IDTriple, bool) {
	if len(c.rest) == 0 {
		return IDTriple{}, false
	}
	t := c.rest[0]
	c.rest = c.rest[1:]
	return t, true
}

// The read methods below are the same method on the current Snapshot.

func (s *Store) Len(g rdf.Term) int               { return s.Snapshot().Len(g) }
func (s *Store) TotalLen() int                    { return s.Snapshot().TotalLen() }
func (s *Store) GraphNames() []rdf.Term           { return s.Snapshot().GraphNames() }
func (s *Store) Count(g ID, pat IDTriple) int     { return s.Snapshot().Count(g, pat) }
func (s *Store) ScanIDs(g ID, pat IDTriple) *Scan { return s.Snapshot().ScanIDs(g, pat) }
func (s *Store) GraphStat(g ID) GraphStat         { return s.Snapshot().GraphStat(g) }
func (s *Store) Stats() Stats                     { return s.Snapshot().Stats() }
func (s *Store) Match(g, sub, pred, obj rdf.Term, fn func(rdf.Triple) bool) {
	s.Snapshot().Match(g, sub, pred, obj, fn)
}
func (s *Store) MatchAll(g, sub, pred, obj rdf.Term) []rdf.Triple {
	return s.Snapshot().MatchAll(g, sub, pred, obj)
}
