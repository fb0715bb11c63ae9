package sparql

import (
	"fmt"

	"repro/internal/rdf"
	"repro/internal/store"
)

// joinPath extends solutions through a property-path pattern. Closure
// paths (* and +) require at least one bound endpoint per solution.
func (r *run) joinPath(tp TriplePattern, rows []solution, ctx graphCtx) ([]solution, error) {
	var out []solution
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			return nil, r.cancelErr()
		}
		s, sBound := r.resolve(tp.S, row)
		o, oBound := r.resolve(tp.O, row)
		var sPat, oPat rdf.Term
		if sBound {
			sPat = s
		}
		if oBound {
			oPat = o
		}
		pairs, err := r.pathPairs(tp.Path, sPat, oPat, ctx)
		if err != nil {
			return nil, err
		}
		for _, pr := range pairs {
			nrow := row.clone()
			if tp.S.IsVar && !sBound {
				idx := r.vt.index[tp.S.Var]
				if !nrow[idx].IsZero() && nrow[idx] != pr[0] {
					continue
				}
				nrow[idx] = pr[0]
			}
			if tp.O.IsVar && !oBound {
				idx := r.vt.index[tp.O.Var]
				if !nrow[idx].IsZero() && nrow[idx] != pr[1] {
					continue
				}
				nrow[idx] = pr[1]
			}
			out = append(out, nrow)
		}
	}
	return out, nil
}

// pathPairs enumerates the (start, end) node pairs connected by the
// path in the active graph. A zero term constrains nothing.
func (r *run) pathPairs(p *PropertyPath, s, o rdf.Term, ctx graphCtx) ([][2]rdf.Term, error) {
	switch p.Kind {
	case PathIRI:
		var out [][2]rdf.Term
		r.snap.Match(r.graphTerm(ctx), s, p.IRI, o, func(t rdf.Triple) bool {
			out = append(out, [2]rdf.Term{t.S, t.O})
			return true
		})
		return out, nil
	case PathInverse:
		inner, err := r.pathPairs(p.Sub[0], o, s, ctx)
		if err != nil {
			return nil, err
		}
		out := make([][2]rdf.Term, len(inner))
		for i, pr := range inner {
			out[i] = [2]rdf.Term{pr[1], pr[0]}
		}
		return out, nil
	case PathAlternative:
		var out [][2]rdf.Term
		seen := make(map[[2]rdf.Term]struct{})
		for _, sub := range p.Sub {
			pairs, err := r.pathPairs(sub, s, o, ctx)
			if err != nil {
				return nil, err
			}
			for _, pr := range pairs {
				if _, ok := seen[pr]; ok {
					continue
				}
				seen[pr] = struct{}{}
				out = append(out, pr)
			}
		}
		return out, nil
	case PathSequence:
		// Fold left to right, joining on the intermediate node. The
		// final endpoint constraint applies only to the last step.
		cur, err := r.pathPairs(p.Sub[0], s, rdf.Term{}, ctx)
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(p.Sub); i++ {
			last := i == len(p.Sub)-1
			endConstraint := rdf.Term{}
			if last {
				endConstraint = o
			}
			var next [][2]rdf.Term
			// Group current endpoints to avoid repeated scans. Mids are
			// visited in first-appearance order, not map order, so the
			// pair order — and with it the result row order — is
			// deterministic across runs.
			byMid := make(map[rdf.Term][]rdf.Term)
			var mids []rdf.Term
			for _, pr := range cur {
				if _, ok := byMid[pr[1]]; !ok {
					mids = append(mids, pr[1])
				}
				byMid[pr[1]] = append(byMid[pr[1]], pr[0])
			}
			for _, mid := range mids {
				starts := byMid[mid]
				pairs, err := r.pathPairs(p.Sub[i], mid, endConstraint, ctx)
				if err != nil {
					return nil, err
				}
				for _, pr := range pairs {
					for _, st := range starts {
						next = append(next, [2]rdf.Term{st, pr[1]})
					}
				}
			}
			cur = dedupePairs(next)
		}
		return cur, nil
	case PathOneOrMore, PathZeroOrMore:
		return r.closurePairs(p, s, o, ctx)
	default:
		return nil, fmt.Errorf("sparql: unsupported path kind %d", p.Kind)
	}
}

func dedupePairs(pairs [][2]rdf.Term) [][2]rdf.Term {
	seen := make(map[[2]rdf.Term]struct{}, len(pairs))
	out := pairs[:0]
	for _, pr := range pairs {
		if _, ok := seen[pr]; ok {
			continue
		}
		seen[pr] = struct{}{}
		out = append(out, pr)
	}
	return out
}

// closurePairs evaluates p+ and p* via breadth-first search from the
// bound endpoint. One endpoint must be bound.
func (r *run) closurePairs(p *PropertyPath, s, o rdf.Term, ctx graphCtx) ([][2]rdf.Term, error) {
	inner := p.Sub[0]
	zero := p.Kind == PathZeroOrMore

	switch {
	case !s.IsZero():
		reach, err := r.bfs(inner, s, false, ctx)
		if err != nil {
			return nil, err
		}
		var out [][2]rdf.Term
		if zero {
			reach = append([]rdf.Term{s}, reach...)
		}
		seen := make(map[rdf.Term]struct{})
		for _, t := range reach {
			if _, ok := seen[t]; ok {
				continue
			}
			seen[t] = struct{}{}
			if !o.IsZero() && t != o {
				continue
			}
			out = append(out, [2]rdf.Term{s, t})
		}
		return out, nil
	case !o.IsZero():
		reach, err := r.bfs(inner, o, true, ctx)
		if err != nil {
			return nil, err
		}
		var out [][2]rdf.Term
		if zero {
			reach = append([]rdf.Term{o}, reach...)
		}
		seen := make(map[rdf.Term]struct{})
		for _, t := range reach {
			if _, ok := seen[t]; ok {
				continue
			}
			seen[t] = struct{}{}
			out = append(out, [2]rdf.Term{t, o})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("sparql: closure path with both endpoints unbound is not supported")
	}
}

// bfs walks the inner path transitively from start (backwards when
// reverse is set) and returns every node reached in one or more steps.
func (r *run) bfs(inner *PropertyPath, start rdf.Term, reverse bool, ctx graphCtx) ([]rdf.Term, error) {
	visited := map[rdf.Term]struct{}{start: {}}
	frontier := []rdf.Term{start}
	var out []rdf.Term
	for len(frontier) > 0 {
		if r.cancelled() {
			return nil, r.cancelErr()
		}
		var next []rdf.Term
		for _, node := range frontier {
			var pairs [][2]rdf.Term
			var err error
			if reverse {
				pairs, err = r.pathPairs(inner, rdf.Term{}, node, ctx)
			} else {
				pairs, err = r.pathPairs(inner, node, rdf.Term{}, ctx)
			}
			if err != nil {
				return nil, err
			}
			for _, pr := range pairs {
				target := pr[1]
				if reverse {
					target = pr[0]
				}
				if _, ok := visited[target]; ok {
					continue
				}
				visited[target] = struct{}{}
				out = append(out, target)
				next = append(next, target)
			}
		}
		frontier = next
	}
	return out, nil
}

// graphTerm converts the active graph context to the term expected by
// store.Match (zero for the default graph).
func (r *run) graphTerm(ctx graphCtx) rdf.Term {
	if ctx.gid == store.NoID {
		return rdf.Term{}
	}
	return r.e.store.Dict().Term(ctx.gid)
}
