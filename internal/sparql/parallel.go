package sparql

import "sync"

// This file is the engine's worker-pool layer: the per-chunk kernels
// the pipeline stages (stream.go) call. Every operator here follows the
// same scheme: partition the input solution sequence into contiguous
// sub-chunks, evaluate each on its own worker goroutine against the
// shared store, and concatenate the outputs in order. Because
// sub-chunks are contiguous and merges preserve their order, results
// are identical to the sequential evaluation at every parallelism
// level; parallelism 1 short-circuits into the sequential code paths.
//
// Workers share the run value: the Engine, varTable and graph context
// are read-only at evaluation time (collectVars pre-registers every
// variable, so varTable.slot never mutates during evaluation). The
// row kernels run on account-free kernel runs (run.kernel) — rows are
// charged at chunk boundaries, not here — and only check cancellation,
// every cancelCheckRows rows.

// minParallelRows is the input size below which row-partitioned
// operators stay sequential; goroutine startup and merge overhead beat
// the win on small solution sequences.
const minParallelRows = 128

// minChunkRows bounds how finely a solution sequence is split, so that
// each worker amortizes its startup cost.
const minChunkRows = 64

// workersFor returns the number of workers to use for n input items.
func (r *run) workersFor(n int) int {
	p := r.e.parallelism
	if p <= 1 || n < minParallelRows {
		return 1
	}
	if maxW := n / minChunkRows; p > maxW {
		p = maxW
	}
	return p
}

// chunkBounds splits n items into w contiguous, near-equal chunks,
// returning the [lo, hi) bounds of each. The split depends only on
// (n, w), keeping partitioning deterministic.
func chunkBounds(n, w int) [][2]int {
	bounds := make([][2]int, 0, w)
	size, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		bounds = append(bounds, [2]int{lo, hi})
		lo = hi
	}
	return bounds
}

// runChunks executes fn for each chunk on its own goroutine and waits.
// fn receives the chunk index and its [lo, hi) bounds and must write
// results only into its own chunk's slots.
func runChunks(bounds [][2]int, fn func(i, lo, hi int)) {
	var wg sync.WaitGroup
	for i, b := range bounds {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			fn(i, lo, hi)
		}(i, b[0], b[1])
	}
	wg.Wait()
}

// concatSolutions flattens per-chunk outputs in chunk order. A lone
// non-empty chunk is returned as is, not copied.
func concatSolutions(outs [][]solution) []solution {
	total := 0
	var last []solution
	for _, o := range outs {
		if len(o) > 0 {
			total += len(o)
			last = o
		}
	}
	if total == len(last) {
		return last
	}
	merged := make([]solution, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged
}

// mergeChunks concatenates the workers' outputs in chunk order. The
// workers of an owned chunk compact into their own rows[lo:hi], so the
// parts are copied down into rows itself when every part lands at or
// before the input rows it came from (no part yet to be copied is
// overwritten); a multi-match overflow, or a chunk that is not owned,
// goes through concatSolutions.
func mergeChunks(rows []solution, bounds [][2]int, outs [][]solution, owned bool) []solution {
	n := 0
	for i, o := range outs {
		owned = owned && n <= bounds[i][0]
		n += len(o)
	}
	if !owned || n > len(rows) {
		return concatSolutions(outs)
	}
	n = 0
	for _, o := range outs {
		n += copy(rows[n:], o)
	}
	return rows[:n]
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// joinPatternPar is the parallel-aware joinPatternOwned: the outer
// solution sequence is partitioned across workers, each joining its
// chunk through its own store iterators.
func (r *run) joinPatternPar(p *probe, rows []solution, owned bool) ([]solution, error) {
	w := r.workersFor(len(rows))
	if w == 1 {
		return r.joinPatternOwned(p, rows, owned)
	}
	outs := make([][]solution, w)
	errs := make([]error, w)
	bounds := chunkBounds(len(rows), w)
	runChunks(bounds, func(i, lo, hi int) {
		outs[i], errs[i] = r.joinPatternOwned(p, rows[lo:hi], owned)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return mergeChunks(rows, bounds, outs, owned), nil
}

// filterRows keeps the rows whose filter expression evaluates to a true
// effective boolean value (evaluation errors eliminate the row). On
// cancellation it returns early with what it has; the next chunk
// boundary converts that into an error. An owned chunk is compacted
// into its own header.
func (r *run) filterRows(expr Expression, rows []solution, owned bool) []solution {
	var kept []solution
	if owned {
		kept = outFor(rows, true)
	}
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			break
		}
		v, err := r.evalExpr(expr, row)
		if err != nil {
			continue
		}
		if b, err := ebv(v); err == nil && b {
			kept = append(kept, row)
		}
	}
	return kept
}

// filterRowsPar partitions FILTER evaluation across workers.
func (r *run) filterRowsPar(expr Expression, rows []solution, owned bool) []solution {
	w := r.workersFor(len(rows))
	if w == 1 {
		return r.filterRows(expr, rows, owned)
	}
	outs := make([][]solution, w)
	bounds := chunkBounds(len(rows), w)
	runChunks(bounds, func(i, lo, hi int) {
		outs[i] = r.filterRows(expr, rows[lo:hi], owned)
	})
	return mergeChunks(rows, bounds, outs, owned)
}

// optionalRows evaluates a general OPTIONAL group per left row: the row
// survives unextended when the pattern yields nothing.
func (r *run) optionalRows(p GroupGraphPattern, rows []solution, ctx graphCtx) ([]solution, error) {
	var out []solution
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			return nil, r.cancelErr()
		}
		ext, err := r.groupRows(p, []solution{row}, ctx, nil, false)
		if err != nil {
			return nil, err
		}
		if len(ext) == 0 {
			out = append(out, row)
		} else {
			out = append(out, ext...)
		}
	}
	return out, nil
}

// optionalPar partitions general OPTIONAL evaluation across workers.
func (r *run) optionalPar(p GroupGraphPattern, rows []solution, ctx graphCtx) ([]solution, error) {
	w := r.workersFor(len(rows))
	if w == 1 {
		return r.optionalRows(p, rows, ctx)
	}
	outs := make([][]solution, w)
	errs := make([]error, w)
	runChunks(chunkBounds(len(rows), w), func(i, lo, hi int) {
		outs[i], errs[i] = r.optionalRows(p, rows[lo:hi], ctx)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return concatSolutions(outs), nil
}

// optionalSinglePar partitions the single-pattern OPTIONAL fast path
// across workers.
func (r *run) optionalSinglePar(p *probe, rows []solution, owned bool) []solution {
	w := r.workersFor(len(rows))
	if w == 1 {
		return r.optionalSingle(p, rows, owned)
	}
	outs := make([][]solution, w)
	bounds := chunkBounds(len(rows), w)
	runChunks(bounds, func(i, lo, hi int) {
		outs[i] = r.optionalSingle(p, rows[lo:hi], owned)
	})
	return mergeChunks(rows, bounds, outs, owned)
}

// minusRows removes rows compatible with (and sharing a variable with)
// any right-side solution, compacting an owned chunk into its own header.
func (r *run) minusRows(rows, right []solution, owned bool) []solution {
	var kept []solution
	if owned {
		kept = outFor(rows, true)
	}
	for ri, row := range rows {
		if ri%cancelCheckRows == 0 && r.cancelled() {
			break
		}
		excluded := false
		for _, rr := range right {
			if compatibleSharing(row, rr) {
				excluded = true
				break
			}
		}
		if !excluded {
			kept = append(kept, row)
		}
	}
	return kept
}

// minusRowsPar partitions the MINUS exclusion scan across workers; the
// right side is shared read-only.
func (r *run) minusRowsPar(rows, right []solution, owned bool) []solution {
	w := r.workersFor(len(rows))
	if w == 1 || len(right) == 0 {
		return r.minusRows(rows, right, owned)
	}
	outs := make([][]solution, w)
	bounds := chunkBounds(len(rows), w)
	runChunks(bounds, func(i, lo, hi int) {
		outs[i] = r.minusRows(rows[lo:hi], right, owned)
	})
	return mergeChunks(rows, bounds, outs, owned)
}
