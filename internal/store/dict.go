// Package store provides an in-memory, indexed RDF quad store used as
// the storage backend of the SPARQL engine. It plays the role Virtuoso 7
// plays in the QB2OLAP paper.
//
// Design: terms are interned into a dictionary mapping each distinct
// rdf.Term to a dense uint32 id, and every triple index holds ids. Each
// graph keeps three orderings (SPO, POS, OSP) as sorted slices; every
// triple pattern is a contiguous run of one of them, found by two binary
// searches over machine words.
//
// What the SPARQL engine does with that: the constants of a pattern are
// resolved to ids once per query stage; per row, each position the row
// binds costs one Dict.Lookup (term → id) and the match is Range on ids;
// the positions a match leaves free are decoded through Snapshot.Term,
// an index into the term table the snapshot pinned when it was
// published — no lock. The engine's rows still hold Terms, so a join
// variable travels id → Term → id between two levels; rows of ids are
// the next step. Lookup still takes the dictionary's read lock, because
// the term → id map — unlike the append-only id → term array — cannot be
// pinned without copying it: a copy per publish would put the whole
// dictionary into the allocation of every first read after a write.
//
// Concurrency contract: Store and Dict are safe for concurrent use by
// any number of readers and writers. All reads go through an immutable
// Snapshot of the whole dataset: taking one is an atomic load, using it
// takes no lock (decoding its ids included: see Snapshot.Term), and it
// never changes, so whoever holds one — the SPARQL engine pins one per
// query — sees a single state however many scans it makes and however
// long it keeps them open. Writes only record triples
// in a pending delta; the first Snapshot after a write burst sorts the
// delta and merges it into fresh orderings (an O(n) copy, not a re-sort)
// and publishes the result. Everything one Store.Batch wrote is
// published together, so a batch is atomic to every reader; a bulk load
// is one batch per 4096-triple chunk.
//
// The merge happens when a snapshot is published, not when it is
// scanned: a scan-time merge of a sorted base with a sorted delta would
// make publishing free but put a two-way merge (and a deleted-triple
// filter) inside every scan of every query until some background
// compaction caught up — a second read path, a compaction policy and a
// thread to tune, all to save a copy that costs about 5 ms at 180k
// triples and 20 ms at the paper's 720k, once per write-burst→read
// transition. Reads outnumber those transitions by orders of magnitude
// in the OLAP workload, so every scan stays one sorted slice.
package store

import (
	"sync"

	"repro/internal/rdf"
)

// ID is a dense dictionary identifier for an interned term. The zero ID
// is reserved and never assigned, so it can act as a wildcard.
type ID uint32

// NoID is the reserved wildcard id.
const NoID ID = 0

// Dict interns rdf.Term values to dense IDs and back. It is safe for
// concurrent use.
type Dict struct {
	mu    sync.RWMutex
	toID  map[rdf.Term]ID
	terms []rdf.Term // index 0 unused
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		toID:  make(map[rdf.Term]ID),
		terms: make([]rdf.Term, 1),
	}
}

// Intern returns the id for t, assigning a fresh one on first sight.
func (d *Dict) Intern(t rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.toID[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.toID[t]; ok {
		return id
	}
	id = ID(len(d.terms))
	d.toID[t] = id
	d.terms = append(d.terms, t)
	return id
}

// Lookup returns the id for t if it is already interned.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.toID[t]
	return id, ok
}

// Term returns the term for an id. It panics on out-of-range ids, which
// indicate a bug (ids only come from this dictionary).
func (d *Dict) Term(id ID) rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id]
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms) - 1
}

// table returns the id → term array as it stands: every id assigned so
// far indexes it. The array is append-only — Intern writes past its end
// or into a regrown copy, never into a slot handed out here — so the
// caller may read it without the lock for as long as it likes.
func (d *Dict) table() []rdf.Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[:len(d.terms):len(d.terms)]
}

// graphID interns (or, without create, looks up) a graph term; the zero
// term is the default graph.
func (d *Dict) graphID(g rdf.Term, create bool) (ID, bool) {
	switch {
	case g.IsZero():
		return NoID, true
	case create:
		return d.Intern(g), true
	}
	return d.Lookup(g)
}

// PatternIDs converts a term pattern (zero terms are wildcards) to an id
// pattern; ok is false when a bound term is not in the dictionary, so no
// triple of any snapshot can match.
func (d *Dict) PatternIDs(sub, pred, obj rdf.Term) (pat IDTriple, ok bool) {
	for _, c := range [3]struct {
		t  rdf.Term
		id *ID
	}{{sub, &pat.S}, {pred, &pat.P}, {obj, &pat.O}} {
		if c.t.IsZero() {
			continue
		}
		if *c.id, ok = d.Lookup(c.t); !ok {
			return pat, false
		}
	}
	return pat, true
}
