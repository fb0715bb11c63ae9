package sparql

import (
	"fmt"

	"repro/internal/rdf"
)

// joinPath extends solutions through a property-path pattern. Closure
// paths (* and +) require at least one bound endpoint per solution.
func (r *run) joinPath(p *probe, rows []solution) ([]solution, error) {
	var out []solution
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			return nil, r.cancelErr()
		}
		// An endpoint is its constant, the row's binding, or — the zero
		// term — free for the path to bind.
		s, o := p.tp.S.Term, p.tp.O.Term
		if p.slot[0] >= 0 {
			s = row[p.slot[0]]
		}
		if p.slot[2] >= 0 {
			o = row[p.slot[2]]
		}
		pairs, err := r.pathPairs(p, p.tp.Path, s, o)
		if err != nil {
			return nil, err
		}
		for _, pr := range pairs {
			nrow := row.clone()
			if (s.IsZero() && !bind(nrow, p.slot[0], pr[0])) || (o.IsZero() && !bind(nrow, p.slot[2], pr[1])) {
				continue
			}
			out = append(out, nrow)
		}
	}
	return out, nil
}

// pathPairs enumerates the (start, end) node pairs connected by the
// path in the active graph. A zero term constrains nothing.
func (r *run) pathPairs(pp *probe, p *PropertyPath, s, o rdf.Term) ([][2]rdf.Term, error) {
	switch p.Kind {
	case PathIRI:
		step := pp.steps[p]
		run, free := step.match(solution{s, o})
		var out [][2]rdf.Term
		for _, t := range run {
			ends := [2]rdf.Term{s, o}
			step.extend(ends[:], t, free)
			out = append(out, ends)
		}
		return out, nil
	case PathInverse:
		inner, err := r.pathPairs(pp, p.Sub[0], o, s)
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
			pairs, err := r.pathPairs(pp, sub, s, o)
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
		cur, err := r.pathPairs(pp, p.Sub[0], s, rdf.Term{})
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
				pairs, err := r.pathPairs(pp, p.Sub[i], mid, endConstraint)
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
		return r.closurePairs(pp, p, s, o)
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
func (r *run) closurePairs(pp *probe, p *PropertyPath, s, o rdf.Term) ([][2]rdf.Term, error) {
	inner := p.Sub[0]
	zero := p.Kind == PathZeroOrMore

	switch {
	case !s.IsZero():
		reach, err := r.bfs(pp, inner, s, false)
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
		reach, err := r.bfs(pp, inner, o, true)
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
func (r *run) bfs(pp *probe, inner *PropertyPath, start rdf.Term, reverse bool) ([]rdf.Term, error) {
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
				pairs, err = r.pathPairs(pp, inner, rdf.Term{}, node)
			} else {
				pairs, err = r.pathPairs(pp, inner, node, rdf.Term{})
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
