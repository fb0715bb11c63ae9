// Package store provides an in-memory, indexed RDF quad store used as
// the storage backend of the SPARQL engine. It plays the role Virtuoso 7
// plays in the QB2OLAP paper.
//
// Design: terms are interned into a dictionary mapping each distinct
// rdf.Term to a dense uint32 id, and every triple index holds ids. Each
// graph keeps three orderings (SPO, POS, OSP) as sorted slices; every
// triple pattern is a contiguous run of one of them, found by two binary
// searches over machine words — or, for a subject, by two loads from the
// graph's subject table, which maps each subject id to its SPO run.
//
// What the SPARQL engine does with that: the constants of a pattern are
// resolved to ids once per query stage; per row, each position the row
// binds costs one Snapshot.Lookup (term → id) and the match is Range on
// ids. In a star — patterns on one subject — each pattern is a binary
// search inside the subject's SPO run, which Range(s, *, *) reads from
// the subject table: the pattern that binds the subject hands its id
// over, or else one Lookup per row finds it. The positions a match leaves free are decoded through
// Snapshot.Term. Both read arrays the snapshot pinned when it was
// published, so neither takes a lock: the id → term table is
// append-only, and the term → id index is an array of ids over it that
// Intern fills only in empty slots and regrows into a fresh array, so a
// publish copies neither. The engine's rows still hold Terms, so a join
// variable travels id → Term → id between two levels; rows of ids are
// the next step.
//
// Concurrency contract: Store and Dict are safe for concurrent use by
// any number of readers and writers. All reads go through an immutable
// Snapshot of the whole dataset: taking one is an atomic load, using it
// takes no lock (resolving its terms and ids included: see
// Snapshot.Lookup and Snapshot.Term), and it never changes, so whoever
// holds one — the SPARQL engine pins one per query — sees a single state
// however many scans it makes and however long it keeps them open.
// Writes only record triples in a pending delta; the first Snapshot
// after a write burst sorts the delta and merges it into fresh orderings
// (an O(n) copy, not a re-sort) and publishes the result. Everything one
// Store.Batch wrote is published together, so a batch is atomic to every
// reader; a bulk load is one batch per 4096-triple chunk.
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
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/rdf"
)

// ID is a dense dictionary identifier for an interned term. The zero ID
// is reserved and never assigned, so it can act as a wildcard.
type ID uint32

// NoID is the reserved wildcard id.
const NoID ID = 0

// Dict interns rdf.Term values to dense IDs and back. It is safe for
// concurrent use. Both directions are arrays a Snapshot pins without a
// copy (see pin): terms, indexed by id, and index, its ids under linear
// probing on a per-dictionary hash of the term's value — value twins
// such as "1", "1"^^xsd:integer and <1> collide and are told apart by ==
// — a power of two long and at most half full, so every probe ends at
// an empty slot. Intern writes only empty slots, each after appending
// its term, and grows into a fresh array, never writing the old one.
type Dict struct {
	seed  maphash.Seed
	mu    sync.Mutex
	terms []rdf.Term      // index 0 unused
	index []atomic.Uint32 // ids; NoID marks an empty slot
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{seed: maphash.MakeSeed(), terms: make([]rdf.Term, 1), index: make([]atomic.Uint32, 8)}
}

// find probes index for t, reading terms only below len(terms): an id at
// or past it was interned after terms was pinned and cannot be t's in
// that table. It returns t's id and slot, or NoID and the empty slot that
// ends t's probe sequence.
func (d *Dict) find(terms []rdf.Term, index []atomic.Uint32, t rdf.Term) (ID, int) {
	mask := uint64(len(index) - 1)
	for h := maphash.String(d.seed, t.Value) & mask; ; h = (h + 1) & mask {
		if id := ID(index[h].Load()); id == NoID || int(id) < len(terms) && terms[id] == t {
			return id, int(h)
		}
	}
}

// Intern returns the id for t, assigning a fresh one on first sight.
func (d *Dict) Intern(t rdf.Term) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, slot := d.find(d.terms, d.index, t)
	if id != NoID {
		return id
	}
	if 2*len(d.terms) > len(d.index) {
		d.grow()
		_, slot = d.find(d.terms, d.index, t)
	}
	id = ID(len(d.terms))
	d.terms = append(d.terms, t)
	d.index[slot].Store(uint32(id))
	return id
}

// grow re-inserts every id into a fresh index twice the size. The old
// array is never written again, so a snapshot that pinned it keeps a
// complete index of its own terms.
func (d *Dict) grow() {
	index := make([]atomic.Uint32, 2*len(d.index))
	for id := 1; id < len(d.terms); id++ {
		_, slot := d.find(d.terms[:id], index, d.terms[id])
		index[slot].Store(uint32(id))
	}
	d.index = index
}

// Lookup returns the id for t if it is already interned. Readers of a
// snapshot use Snapshot.Lookup, which takes no lock.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, _ := d.find(d.terms, d.index, t)
	return id, id != NoID
}

// Term returns the term for an id. It panics on out-of-range ids, which
// indicate a bug (ids only come from this dictionary).
func (d *Dict) Term(id ID) rdf.Term {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.terms[id]
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.terms) - 1
}

// pin makes sn a view of both directions as they stand, which sn may
// read without the lock for as long as it likes: Intern writes terms
// past the pinned length or into a regrown copy, and the index only in
// empty slots, with ids past that length, which find skips.
func (d *Dict) pin(sn *Snapshot) *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	sn.dict, sn.terms, sn.index = d, d.terms[:len(d.terms):len(d.terms)], d.index
	return sn
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
func (d *Dict) PatternIDs(sub, pred, obj rdf.Term) (IDTriple, bool) {
	return patternIDs(d.Lookup, sub, pred, obj)
}

// patternIDs is PatternIDs through lookup.
func patternIDs(lookup func(rdf.Term) (ID, bool), sub, pred, obj rdf.Term) (IDTriple, bool) {
	var ids [3]ID
	for i, t := range [3]rdf.Term{sub, pred, obj} {
		if t.IsZero() {
			continue
		}
		var ok bool
		if ids[i], ok = lookup(t); !ok {
			return IDTriple{}, false
		}
	}
	return IDTriple{ids[0], ids[1], ids[2]}, true
}
