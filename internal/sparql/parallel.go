package sparql

import "sync"

// This file is the engine's one fan-out: the BGP batch join
// (joinPatternPar), the only kernel whose fan-out measurably pays
// (DESIGN §7). It partitions a batch of outer rows into contiguous
// sub-chunks, joins each on its own goroutine against the shared
// snapshot, and concatenates the outputs in order, so results are
// identical at every width. The width is the engine's joinWidth,
// runtime.GOMAXPROCS(0) when the engine was built; batches under
// minParallelRows, and every batch at width 1, join on the calling
// goroutine.
//
// Workers share the run value: the Engine, varTable and graph context
// are read-only at evaluation time (collectVars pre-registers every
// variable, so varTable.slot never mutates during evaluation). The
// join runs on an account-free kernel run (run.kernel) — rows are
// charged at chunk boundaries, not here — and only checks
// cancellation, every cancelCheckRows rows.

// minParallelRows is the batch size below which the join stays on the
// calling goroutine; goroutine startup and merge overhead beat the win
// on small batches.
const minParallelRows = 128

// minChunkRows bounds how finely a batch is split, so that each worker
// amortizes its startup cost.
const minChunkRows = 64

// workersFor returns the number of workers to use for n input rows.
func (r *run) workersFor(n int) int {
	p := r.e.joinWidth
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

// joinPatternPar is the fanned-out joinPatternOwned: the outer rows are
// partitioned across workers, each joining its sub-chunk through its
// own store iterators.
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
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeChunks(rows, bounds, outs, owned), nil
}
