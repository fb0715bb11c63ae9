package sparql

import (
	"context"
	"fmt"

	"repro/internal/rdf"
	"repro/internal/store"
)

// Execute applies a parsed update request to the engine's store.
func (e *Engine) Execute(u *Update) error {
	return e.UpdateContext(context.Background(), u)
}

// ExecuteString parses and applies an update request.
func (e *Engine) ExecuteString(src string) error {
	u, err := ParseUpdate(src)
	if err != nil {
		return err
	}
	return e.Execute(u)
}

// executeOpContext applies one operation. The context is honored only
// during the read phase of DELETE/INSERT WHERE; the write phase of
// every operation is one store.Batch, so it runs to completion and a
// concurrent query sees either all of the operation or none of it.
func (e *Engine) executeOpContext(ctx context.Context, op UpdateOperation) error {
	switch o := op.(type) {
	case InsertDataOp:
		e.store.Batch(func(b *store.Batch) {
			for _, q := range o.Quads {
				b.Insert(q)
			}
		})
		return nil
	case DeleteDataOp:
		e.store.Batch(func(b *store.Batch) {
			for _, q := range o.Quads {
				b.Delete(q)
			}
		})
		return nil
	case ClearOp:
		e.store.Batch(func(b *store.Batch) {
			if o.All {
				b.ClearAll()
			} else {
				b.Clear(o.Graph) // zero for CLEAR DEFAULT
			}
		})
		return nil
	case ModifyOp:
		return e.executeModify(ctx, o)
	default:
		return fmt.Errorf("sparql: unknown update operation %T", op)
	}
}

func (e *Engine) executeModify(ctx context.Context, o ModifyOp) error {
	snap := e.store.Snapshot()
	where, planned := e.preparedGroup(o.Where, snap)
	r := &run{e: e, vt: newVarTable(), snap: snap, planned: planned}
	r.bindContext(ctx)
	// The WHERE rows are drained whole before anything is written, so
	// they are charged to -max-query-mem like a query's; a trip returns
	// the typed error before the write phase.
	r.bindAcct(ctx, false)
	defer r.closeAcct()
	r.semi = &semiSets{acct: r.acct}
	collectGroupVars(where, r.vt)
	for _, qp := range append(append([]QuadPattern{}, o.Delete...), o.Insert...) {
		collectPatternTermVars(qp.S, r.vt)
		collectPatternTermVars(qp.P, r.vt)
		collectPatternTermVars(qp.O, r.vt)
		collectPatternTermVars(qp.Graph, r.vt)
	}
	rows, err := r.groupRows(where, r.seed(), graphCtx{}, nil, false)
	if err != nil {
		return err
	}

	instantiate := func(tmpl []QuadPattern, row solution) []rdf.Quad {
		var out []rdf.Quad
		for _, qp := range tmpl {
			s, okS := r.resolve(qp.S, row)
			p, okP := r.resolve(qp.P, row)
			obj, okO := r.resolve(qp.O, row)
			if !okS || !okP || !okO {
				continue
			}
			g := rdf.Term{}
			if qp.Graph.IsVar || !qp.Graph.Term.IsZero() {
				gv, okG := r.resolve(qp.Graph, row)
				if !okG {
					continue
				}
				g = gv
			}
			q := rdf.NewQuad(s, p, obj, g)
			if q.Triple().Valid() {
				out = append(out, q)
			}
		}
		return out
	}

	// Collect both sets fully before mutating, per SPARQL Update
	// semantics (WHERE is evaluated against the pre-update state).
	var toDelete, toInsert []rdf.Quad
	for _, row := range rows {
		toDelete = append(toDelete, instantiate(o.Delete, row)...)
		toInsert = append(toInsert, instantiate(o.Insert, row)...)
	}
	e.store.Batch(func(b *store.Batch) {
		for _, q := range toDelete {
			b.Delete(q)
		}
		for _, q := range toInsert {
			b.Insert(q)
		}
	})
	return nil
}
