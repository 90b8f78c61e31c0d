package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/array"
	"repro/internal/bat"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/sql/ast"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// This file is the one scan pipeline behind every array scan and the
// pull/iterator API over it (sciql.Rows, the database/sql driver):
//
//   - chunk source: the store's scan chunks after zone-map skipping, a
//     one-cell direct read for an all-point restriction, or nothing
//     for a provably empty one (scanChunkList);
//   - cell loop: one loop fills a batch of scan columns per chunk,
//     applying the effective dimension restriction (runChunk);
//   - stage: a streamable SELECT's filter → HAVING → projection runs
//     per batch, each expression as its kernel program when it
//     compiled and through the interpreter over the batch's selected
//     rows otherwise (runStage);
//   - exchange: chunk outputs are delivered in chunk order, produced
//     on the morsel pool when the scan fans out, pulled inline on the
//     caller's goroutine otherwise (exchange).
//
// A SELECT whose shape qualifies — a single catalog-array scan →
// filter → project (+ LIMIT) with engine-state-free expressions —
// streams its stage's output batches through a Cursor and materializes
// by draining the same cursor. buildFrom's scans (joins, tilings,
// aggregates) drain the pipeline with no stage. Everything else —
// aggregation, tiling, joins, ORDER BY, DISTINCT, set operations —
// is served from the completed dataset through the same Cursor
// interface.

// Cursor is a pull-based row stream over a query result. It is not
// safe for concurrent use; Close must be called when done (Materialize
// and a drained Next loop close it implicitly).
type Cursor struct {
	cols []Col
	// ds backs dataset cursors (materialized execution).
	ds  *Dataset
	row int // next row of ds
	// src delivers a pipeline cursor's output batches; outCols is their
	// static column template (kernel result types; interpreted items
	// are Unknown until Materialize promotes the whole column).
	src      *exchange
	outCols  []Col
	batch    *Dataset
	batchRow int
	done     bool
	err      error
	// onClose releases resources held for the cursor's lifetime (the
	// session's pinned catalog snapshot); run once, on first Close.
	onClose func()
	// mapErr translates terminal errors at the governance boundary
	// (timeout translation, panic accounting); nil on ungoverned
	// cursors. Applied once — c.err latches the translated error.
	mapErr func(error) error
}

// Cols describes the cursor's columns. For streaming cursors the
// types are provisional (computed expressions promote at
// materialization); names, qualifiers and dimension flags are exact.
func (c *Cursor) Cols() []Col { return c.cols }

// finishErr terminates the cursor with err: the governance boundary's
// translation applies (once — c.err latches the result), the cursor
// closes, and later Next calls keep returning the same error.
func (c *Cursor) finishErr(err error) error {
	if c.mapErr != nil {
		err = c.mapErr(err)
	}
	c.err = err
	c.Close()
	return err
}

// Next returns the next row, or (nil, nil) after the last one. The
// returned slice is owned by the caller. After an error, Next keeps
// returning the same error. A panic in the producing pipeline is
// contained here: it surfaces as a *governor.PanicError and the
// cursor's resources (snapshot pin, workers) are released.
func (c *Cursor) Next() (row []value.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			row, err = nil, c.finishErr(governor.NewPanicError(r, debug.Stack()))
		}
	}()
	if c.err != nil {
		return nil, c.err
	}
	if c.done {
		return nil, nil
	}
	if c.ds != nil {
		if c.row >= c.ds.NumRows() {
			c.done = true
			return nil, nil
		}
		row := c.ds.Row(c.row)
		c.row++
		return row, nil
	}
	for c.batch == nil || c.batchRow >= c.batch.NumRows() {
		b, err := c.src.pull()
		if err != nil {
			return nil, c.finishErr(err)
		}
		if b == nil {
			c.done = true
			return nil, nil
		}
		c.batch, c.batchRow = b, 0
	}
	row = c.batch.Row(c.batchRow)
	c.batchRow++
	return row, nil
}

// Close releases the stream: any in-flight parallel workers are
// canceled. Safe to call multiple times. The resource teardown runs in
// a deferred block so a failure mid-close (the cursor.close fault
// point) can never leak the snapshot pin or the admission slot.
func (c *Cursor) Close() {
	defer func() {
		r := recover()
		if c.src != nil {
			c.src.stop()
		}
		if c.onClose != nil {
			oc := c.onClose
			c.onClose = nil
			oc()
		}
		if r != nil {
			err := error(governor.NewPanicError(r, debug.Stack()))
			if c.mapErr != nil {
				err = c.mapErr(err)
			}
			if c.err == nil {
				c.err = err
			}
		}
	}()
	c.done = true
	if err := faultinject.Hit("cursor.close"); err != nil {
		if c.err == nil {
			c.err = err
		}
	}
}

// Materialize drains the cursor into a dataset with the same column
// metadata and type promotion as the materializing execution path, so
// the two views of one query are byte-identical. Batch columns
// concatenate wholesale; each output column then takes buildProjected's
// whole-column promotion rule (finalizeVecOutput).
func (c *Cursor) Materialize() (ds *Dataset, err error) {
	if c.ds != nil {
		return c.ds, nil
	}
	defer func() {
		if r := recover(); r != nil {
			ds, err = nil, c.finishErr(governor.NewPanicError(r, debug.Stack()))
		}
	}()
	defer c.Close()
	if c.err != nil {
		return nil, c.err
	}
	acc := make([]bat.Vector, len(c.outCols))
	for i, col := range c.outCols {
		acc[i] = bat.New(col.Typ, 0)
	}
	if c.batch != nil && c.batchRow < c.batch.NumRows() {
		for i := range acc {
			acc[i] = bat.Concat(acc[i], bat.ViewRange(c.batch.Vecs[i], c.batchRow, c.batch.NumRows()))
		}
	}
	if !c.done {
		if err := c.src.drain(acc); err != nil {
			return nil, c.finishErr(err)
		}
	}
	cols := append([]Col(nil), c.outCols...)
	for i := range acc {
		acc[i], cols[i].Typ = finalizeVecOutput(acc[i])
	}
	return &Dataset{Cols: cols, Vecs: acc}, nil
}

// Streaming reports whether rows are produced incrementally (as
// opposed to being served from a completed dataset).
func (c *Cursor) Streaming() bool { return c.ds == nil }

// datasetCursor wraps an already-materialized result.
func datasetCursor(ds *Dataset) *Cursor { return &Cursor{cols: ds.Cols, ds: ds} }

// DatasetCursor exposes the dataset-backed cursor to the public layer
// (EXPLAIN results stream through it like any other query).
func DatasetCursor(ds *Dataset) *Cursor { return datasetCursor(ds) }

// pipeline is one compiled array scan: its chunk list, the effective
// per-dimension restriction the cell loop applies, the scan batch
// columns, and an optional per-batch stage.
type pipeline struct {
	eff    []dimSel
	chunks []array.ChunkScan
	cols   []Col       // scan batch columns: dimensions, then the pruned attributes
	stage  *batchStage // nil: the scan batches are the output
	limit  int         // -1: none
	// par > 1 fans the chunks out over the morsel pool.
	par int
	// prof is the profile collector of the arming EXPLAIN ANALYZE,
	// copied at compile time so parallel workers never read session
	// state; nil on unprofiled statements and on buildFrom's scans,
	// which the statement attributes as a whole.
	prof *telemetry.Profile
	// budget is the statement's memory account, copied for the same
	// reason as prof; nil when no memory limit is configured.
	budget *governor.Budget
}

// batchStage is the per-batch filter → HAVING → projection of a
// streamable SELECT. Each expression runs as its kernel program when
// it compiled, and through the interpreter over the batch's selected
// rows otherwise, so an expression outside the kernel surface (a CASE
// item) costs the interpretation of that expression alone.
type batchStage struct {
	outer      *baseEnv // host parameters
	where      ast.Expr // residual conjuncts after pushdown
	having     ast.Expr // aggregate-free HAVING (post-where row filter)
	whereProg  *vecProg
	havingProg *vecProg
	items      []ast.SelectItem
	progs      []*vecProg // per item; nil: interpreted
	gather     []int      // batch columns the item programs reference
	header     []Col      // provisional cursor header (streamColumns)
	outCols    []Col      // static output column template
	// vecItems/rowItems record whether any projection item runs as a
	// kernel / through the interpreter (the Project operator's mode).
	vecItems, rowItems bool
}

// compileStage compiles a statement's filter, HAVING and projection
// against the scan columns, one expression at a time.
func (e *Engine) compileStage(st *batchStage, cols []Col) {
	st.whereProg = e.vecCompile(st.where, cols, false)
	st.havingProg = e.vecCompile(st.having, cols, false)
	used := make([]bool, len(cols))
	st.progs = make([]*vecProg, len(st.items))
	st.outCols = make([]Col, len(st.items))
	for i, it := range st.items {
		st.outCols[i] = Col{Name: itemName(it, i), Typ: value.Unknown, IsDim: it.DimQual}
		if id, ok := it.Expr.(*ast.Ident); ok {
			st.outCols[i].Qual = id.Table
		}
		p := e.vecCompile(it.Expr, cols, false)
		if p == nil {
			st.rowItems = true
			continue
		}
		st.vecItems = true
		st.progs[i] = p
		st.outCols[i].Typ = p.typ
		for _, ci := range p.used {
			used[ci] = true
		}
	}
	for ci, u := range used {
		if u {
			st.gather = append(st.gather, ci)
		}
	}
}

// kernels reports whether any of the stage's expressions runs as a
// kernel program: the scan then counts as feeding a vectorized batch.
func (st *batchStage) kernels() bool {
	return st.whereProg != nil || st.havingProg != nil || st.vecItems
}

// runStage runs the stage over one scan batch: filter → selection
// vector → HAVING → LIMIT cap (maxRows; -1 for none) → projection.
func (e *Engine) runStage(p *pipeline, in *Dataset, maxRows int) (*Dataset, error) {
	st, pf := p.stage, p.prof
	n := in.NumRows()
	out := &Dataset{Cols: st.outCols, Vecs: make([]bat.Vector, len(st.items))}
	var sel []int
	all := true
	var err error
	if st.where != nil {
		t0 := time.Now()
		if sel, err = e.stageFilter(st, st.where, st.whereProg, p.cols, in, sel, all); err != nil {
			return nil, err
		}
		all = false
		if pf != nil {
			noteOp(&pf.Filter, time.Since(t0), n, len(sel), st.whereProg != nil, st.whereProg == nil)
		}
	}
	if st.having != nil {
		t0 := time.Now()
		pre := n
		if !all {
			pre = len(sel)
		}
		if sel, err = e.stageFilter(st, st.having, st.havingProg, p.cols, in, sel, all); err != nil {
			return nil, err
		}
		all = false
		if pf != nil {
			noteOp(&pf.Having, time.Since(t0), pre, len(sel), st.havingProg != nil, st.havingProg == nil)
		}
	}
	m := n
	if !all {
		m = len(sel)
	}
	kept := m
	if maxRows >= 0 && m > maxRows {
		m = maxRows
		if !all {
			sel = sel[:m]
		}
	}
	t0 := time.Now()
	gin := in.Vecs
	if !all || m < n {
		gin = make([]bat.Vector, len(in.Vecs))
		for _, ci := range st.gather {
			if all {
				gin[ci] = bat.ViewRange(in.Vecs[ci], 0, m)
			} else {
				gin[ci] = in.Vecs[ci].Gather(sel)
			}
		}
	}
	for i, prog := range st.progs {
		if prog != nil {
			out.Vecs[i] = prog.eval(gin, 0, m)
		}
	}
	if st.rowItems {
		if err := e.interpretItems(st, p.cols, in, sel, all, m, out); err != nil {
			return nil, err
		}
	}
	if pf != nil {
		noteOp(&pf.Project, time.Since(t0), m, m, st.vecItems, st.rowItems)
		if p.limit >= 0 {
			noteOp(&pf.Limit, 0, kept, m, st.vecItems, st.rowItems)
		}
	}
	return out, nil
}

// noteOp publishes one batch of a stage operator to the armed profile:
// wall time, rows in/out, and which execution modes ran.
func noteOp(op *telemetry.OpStats, d time.Duration, in, out int, vec, row bool) {
	op.AddNanos(d)
	op.RowsIn.Add(int64(in))
	op.RowsOut.Add(int64(out))
	if vec {
		op.VecBatches.Add(1)
	}
	if row {
		op.RowBatches.Add(1)
	}
}

// stageFilter narrows the batch's selection (all: every row) to the
// rows where x holds (SQL truth: non-NULL and true): with its kernel
// program when prog is non-nil, else by interpreting x per row.
func (e *Engine) stageFilter(st *batchStage, x ast.Expr, prog *vecProg, cols []Col, in *Dataset, sel []int, all bool) ([]int, error) {
	n := in.NumRows()
	if prog != nil {
		if all {
			return prog.filterSel(in.Vecs, 0, n), nil
		}
		return bat.AndSel(sel, prog.eval(in.Vecs, 0, n)), nil
	}
	if all {
		sel = make([]int, n)
		for i := range sel {
			sel[i] = i
		}
	}
	env := &valuesEnv{cols: cols, vals: make([]value.Value, len(cols)), outer: st.outer}
	out := sel[:0]
	for _, r := range sel {
		bindRow(env, in, r)
		ok, err := e.Ev.EvalBool(x, env)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// interpretItems evaluates the projection items without a kernel
// program over the first m selected rows, one boxed column each.
func (e *Engine) interpretItems(st *batchStage, cols []Col, in *Dataset, sel []int, all bool, m int, out *Dataset) error {
	env := &valuesEnv{cols: cols, vals: make([]value.Value, len(cols)), outer: st.outer}
	vals := make([][]value.Value, len(st.items))
	for i, prog := range st.progs {
		if prog == nil {
			vals[i] = make([]value.Value, 0, m)
		}
	}
	for k := 0; k < m; k++ {
		r := k
		if !all {
			r = sel[k]
		}
		bindRow(env, in, r)
		for i, it := range st.items {
			if st.progs[i] != nil {
				continue
			}
			v, err := e.Ev.Eval(it.Expr, env)
			if err != nil {
				return err
			}
			vals[i] = append(vals[i], v)
		}
	}
	for i, prog := range st.progs {
		if prog == nil {
			out.Vecs[i] = bat.FromValues(value.Unknown, vals[i])
		}
	}
	return nil
}

// bindRow loads row r of the batch into the interpreter environment.
func bindRow(env *valuesEnv, in *Dataset, r int) {
	for c, v := range in.Vecs {
		env.vals[c] = v.Get(r)
	}
}

// scanChunksPerWorker is how many scan chunks each worker gets at
// least: a few per worker lets dynamic scheduling balance skew
// (selective filters, sparse slabs) across the pool.
const scanChunksPerWorker = 4

// minParallelScanCells gates the parallel exchange: below this many
// materialized cells the fan-out overhead dominates and the chunks are
// pulled inline.
const minParallelScanCells = 4096

// scanChunkList is the pipeline's chunk source. A provably empty
// restriction gives no chunks; an all-point restriction gives the
// one-cell direct read; otherwise the store's scan chunks — about one
// batch (vecBatchRows cells) each and at least scanChunksPerWorker per
// worker when fanning out (dense stores always chunk by storage chunk)
// — survive zone-map skipping. Stores without ChunkedScanner scan as a
// single chunk. The returned par is the exchange width: 1 unless the
// morsel pool exists and the store is big enough to pay for fan-out.
func (e *Engine) scanChunkList(a *array.Array, eff []dimSel, attrs []int, par int, sk *chunkSkipper, prof *telemetry.Profile) ([]array.ChunkScan, int) {
	if effProvablyEmpty(eff) {
		return nil, 1
	}
	if coords, ok := pointCoords(eff); ok {
		return []array.ChunkScan{pointChunk(a, coords, attrs)}, 1
	}
	st := a.Store
	n := st.Len()
	if e.pool == nil || n < minParallelScanCells {
		par = 1
	}
	cs, ok := st.(array.ChunkedScanner)
	if !ok {
		return []array.ChunkScan{wholeStoreChunk(st, attrs)}, 1
	}
	target := max(1, (n+vecBatchRows-1)/vecBatchRows)
	if par > 1 {
		target = max(target, par*scanChunksPerWorker)
	}
	return e.skipChunks(sk, st, cs.ScanChunks(target, attrs), target, prof), par
}

// pointCoords returns the cell an all-point restriction pins.
func pointCoords(eff []dimSel) ([]int64, bool) {
	if len(eff) == 0 {
		return nil, false
	}
	coords := make([]int64, len(eff))
	for i := range eff {
		if !eff[i].point {
			return nil, false
		}
		coords[i] = eff[i].val
	}
	return coords, true
}

// pointChunk is the one-cell chunk of an all-point restriction: a
// direct read. Liveness is judged on every attribute, like Scan's — a
// cell whose selected attributes are NULL is still live (not a hole)
// when an unselected one is set.
func pointChunk(a *array.Array, coords []int64, attrs []int) array.ChunkScan {
	return func(visit func(coords []int64, vals []value.Value) bool) {
		if !a.ValidCoords(coords) {
			return
		}
		all := make([]value.Value, len(a.Schema.Attrs))
		live := false
		for ai := range all {
			all[ai] = a.Store.Get(coords, ai)
			live = live || !all[ai].Null
		}
		if !live {
			return
		}
		sel := array.AllAttrs(attrs, len(all))
		vals := make([]value.Value, len(sel))
		for vi, ai := range sel {
			vals[vi] = all[ai]
		}
		visit(coords, vals)
	}
}

// wholeStoreChunk scans a store without ChunkedScanner as one chunk,
// materializing only the attribute columns in attrs (nil keeps all).
func wholeStoreChunk(st array.Store, attrs []int) array.ChunkScan {
	if attrs == nil {
		return st.Scan
	}
	return func(visit func(coords []int64, vals []value.Value) bool) {
		sub := make([]value.Value, len(attrs))
		st.Scan(func(coords []int64, vals []value.Value) bool {
			for vi, ai := range attrs {
				sub[vi] = vals[ai]
			}
			return visit(coords, sub)
		})
	}
}

// runChunk is the pipeline's one cell loop: it fills a batch of scan
// columns from one chunk — dimensions appended typed, the effective
// restriction applied per cell, ctx polled every 1024 cells — runs the
// stage (output capped at maxRows; -1 for none), and publishes the
// chunk's counters and profile and charges its budget once.
func (e *Engine) runChunk(ctx context.Context, p *pipeline, chunk array.ChunkScan, maxRows int) (*Dataset, error) {
	if err := faultinject.Hit("scan.chunk"); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	in := NewDataset(p.cols)
	nd := len(p.eff)
	dims := make([]*bat.IntVector, nd)
	for i := range dims {
		dims[i] = in.Vecs[i].(*bat.IntVector)
	}
	var visited int64
	var ctxErr error
	chunk(func(coords []int64, vals []value.Value) bool {
		visited++
		if visited&1023 == 0 {
			if ctxErr = ctx.Err(); ctxErr != nil {
				return false
			}
		}
		if !effMatch(p.eff, coords) {
			return true
		}
		for i, c := range coords {
			dims[i].AppendInt64(c)
		}
		for vi, v := range vals {
			in.Vecs[nd+vi].Append(v)
		}
		return true
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	scanned := time.Since(start)
	// An empty batch skips the stage: the exchange drops empty outputs.
	out := in
	if p.stage != nil && in.NumRows() > 0 {
		var err error
		if out, err = e.runStage(p, in, maxRows); err != nil {
			return nil, err
		}
	}
	e.flushChunk(p, visited, in.NumRows(), out.NumRows(), scanned)
	return out, chargeBudget(p.budget, approxDatasetBytes(out))
}

// flushChunk publishes one chunk's row flow to the engine counters —
// and to the armed profile, when there is one — with a handful of
// atomic adds (the hotloopflush discipline: none per cell).
func (e *Engine) flushChunk(p *pipeline, visited int64, matched, emitted int, scanned time.Duration) {
	m := e.metrics()
	m.scanChunks.Inc()
	m.scanCells.Add(visited)
	m.scanRows.Add(int64(emitted))
	pf := p.prof
	if pf == nil {
		return
	}
	pf.Scan.Chunks.Add(1)
	pf.Scan.Cells.Add(visited)
	pf.Scan.RowsOut.Add(int64(matched))
	pf.Scan.AddNanos(scanned)
	if p.stage != nil && p.stage.kernels() {
		pf.Scan.VecBatches.Add(1)
	} else {
		pf.Scan.RowBatches.Add(1)
	}
}

// exchange delivers a pipeline's chunk outputs in chunk order. Inline,
// each pull runs the next chunk on the caller's goroutine. In parallel
// (par > 1 and at least two chunks), the first pull starts the morsel
// pool over all chunks; workers send each chunk's output tagged with
// its index and the consumer reorders them, so iteration order (and
// results) equal the inline order. Workers poll ctx inside chunks, and
// their sends select on ctx.Done(), so canceling the query winds the
// scan down; stop also waits for the workers to exit. LIMIT caps
// each chunk's output at the rows still wanted and stops the exchange
// once enough have surfaced.
type exchange struct {
	e       *Engine
	p       *pipeline
	ctx     context.Context
	next    int // index of the next chunk to deliver
	emitted int
	// Parallel delivery state, set up by the first pull.
	cancel  context.CancelFunc
	ch      chan chunkOut
	pending map[int]*Dataset
}

// chunkOut is one worker result: chunk idx's output, or an error.
type chunkOut struct {
	idx int
	ds  *Dataset
	err error
}

// pull returns the next non-empty chunk output, or nil once the chunks
// are exhausted or the LIMIT is met (which also stops the workers).
func (x *exchange) pull() (*Dataset, error) {
	p := x.p
	for x.next < len(p.chunks) && (p.limit < 0 || x.emitted < p.limit) {
		var ds *Dataset
		var err error
		if p.par > 1 && len(p.chunks) >= 2 {
			ds, err = x.await(x.next)
		} else {
			want := -1
			if p.limit >= 0 {
				want = p.limit - x.emitted
			}
			ds, err = x.e.runChunk(x.ctx, p, p.chunks[x.next], want)
		}
		if err != nil {
			return nil, err
		}
		x.next++
		if p.limit >= 0 && x.emitted+ds.NumRows() > p.limit {
			ds = headRows(ds, p.limit-x.emitted)
		}
		x.emitted += ds.NumRows()
		if ds.NumRows() > 0 {
			return ds, nil
		}
	}
	x.stop()
	return nil, nil
}

// await returns chunk idx's output from the parallel workers, starting
// them on first use.
func (x *exchange) await(idx int) (*Dataset, error) {
	if x.ch == nil {
		x.start()
	}
	for {
		if ds, ok := x.pending[idx]; ok {
			delete(x.pending, idx)
			return ds, nil
		}
		b, ok := <-x.ch
		if !ok {
			// Closed without chunk idx: the workers stopped on a canceled
			// context and their error send lost the race with Done.
			return nil, x.ctx.Err()
		}
		if b.err != nil {
			return nil, b.err
		}
		x.pending[b.idx] = b.ds
	}
}

// start runs every chunk on the morsel pool. Each chunk's output is
// capped at the LIMIT: the final result takes at most that many rows
// from any one chunk.
func (x *exchange) start() {
	e, p := x.e, x.p
	x.ctx, x.cancel = context.WithCancel(x.ctx)
	ctx := x.ctx
	// Two results per worker let every worker finish a chunk ahead of
	// the consumer without buffering the whole scan.
	ch := make(chan chunkOut, 2*e.pool.Workers())
	x.ch, x.pending = ch, make(map[int]*Dataset)
	go func() {
		defer close(ch)
		err := e.pool.ForEachCtx(ctx, len(p.chunks), 1, func(m parallelMorsel) error {
			for ci := m.Lo; ci < m.Hi; ci++ {
				ds, err := e.runChunk(ctx, p, p.chunks[ci], p.limit)
				if err != nil {
					return err
				}
				select {
				case ch <- chunkOut{idx: ci, ds: ds}:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return nil
		})
		if err != nil {
			select {
			case ch <- chunkOut{err: err}:
			case <-ctx.Done():
			}
		}
	}()
}

// stop cancels in-flight workers and returns once they have exited
// (the producer closes ch last); the exchange is unusable afterwards.
func (x *exchange) stop() {
	if x.cancel == nil {
		return
	}
	x.cancel()
	for range x.ch {
	}
}

// drain pulls every remaining chunk output and appends them to acc
// column by column, growing each column once.
func (x *exchange) drain(acc []bat.Vector) error {
	var parts []*Dataset
	rows := 0
	for {
		ds, err := x.pull()
		if err != nil {
			return err
		}
		if ds == nil {
			break
		}
		parts = append(parts, ds)
		rows += ds.NumRows()
	}
	for i := range acc {
		acc[i] = bat.Grow(acc[i], rows)
		for _, ds := range parts {
			acc[i] = bat.Concat(acc[i], ds.Vecs[i])
		}
	}
	return nil
}

// headRows returns the first k rows of ds as a fresh dataset.
func headRows(ds *Dataset, k int) *Dataset {
	out := &Dataset{Cols: ds.Cols, Vecs: make([]bat.Vector, len(ds.Vecs))}
	for i, v := range ds.Vecs {
		out.Vecs[i] = v.Slice(0, k)
	}
	return out
}

// QueryStream executes a SELECT as a row stream. Statements whose
// shape does not qualify for incremental execution are materialized
// (honoring ctx) and streamed from the completed dataset. Like
// ExecContext it is a governance boundary, but the admission slot,
// memory budget and statement timer live for the cursor's lifetime:
// they release on Cursor.Close (or the teardown safety nets), not when
// this call returns.
func (e *Engine) QueryStream(ctx context.Context, sel *ast.Select, params map[string]value.Value) (cur *Cursor, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.stmtDepth > 0 {
		return e.queryStreamPinned(ctx, sel, params)
	}
	gov := e.gov
	admitRel, err := gov.Admit(ctx)
	if err != nil {
		return nil, err
	}
	sctx, cancel := gov.WithStatementTimeout(ctx)
	bud := gov.NewBudget()
	e.budget = bud
	e.stmtDepth++
	cleanup := func() {
		cancel()
		bud.Release()
		admitRel()
	}
	defer func() {
		e.stmtDepth--
		e.budget = nil
		if r := recover(); r != nil {
			cur, err = nil, governor.NewPanicError(r, debug.Stack())
		}
		err = govFinish(gov, sctx, err)
		if err != nil || cur == nil {
			cleanup()
			return
		}
		// Success: governance outlives the call. Terminal errors reported
		// through the cursor translate at the same boundary, and the
		// cursor's close hook — ledgered so teardown safety nets reach it
		// for cursors abandoned without Close — releases slot, budget and
		// timer.
		govRel := e.registerCursorRelease(cleanup)
		cur.mapErr = func(err error) error { return govFinish(gov, sctx, err) }
		prev := cur.onClose
		cur.onClose = func() {
			if prev != nil {
				prev()
			}
			govRel()
		}
	}()
	return e.queryStreamPinned(sctx, sel, params)
}

// queryStreamPinned is QueryStream inside the governance boundary:
// snapshot pinning, stream compilation and the materializing fallback.
func (e *Engine) queryStreamPinned(ctx context.Context, sel *ast.Select, params map[string]value.Value) (*Cursor, error) {
	start := time.Now()
	release := e.pinCursorSnapshot()
	// The pin releases on every exit — error, fallback, or a panic
	// propagating through compilation or the materializing fallback —
	// except when ownership transfers to the returned stream cursor.
	pinHeld := release != nil
	defer func() {
		if pinHeld {
			release()
		}
	}()
	norm := make(map[string]value.Value, len(params))
	for k, v := range params {
		norm[strings.ToLower(k)] = v
	}
	env := &baseEnv{params: norm}
	p, ok, err := e.compileStream(sel, env)
	if err != nil {
		e.metrics().statement("select", time.Since(start))
		return nil, err
	}
	if !ok {
		// The materializing fallback runs through ExecContext, which
		// does its own statement accounting and snapshot pinning.
		ds, err := e.ExecContext(ctx, sel, params)
		if err != nil {
			return nil, err
		}
		return datasetCursor(ds), nil
	}
	cur := e.pipelineCursor(ctx, p)
	met := e.metrics()
	cur.onClose = func() {
		if release != nil {
			release()
		}
		met.statement("select", time.Since(start))
	}
	pinHeld = false
	return cur, nil
}

// ReleaseCursorPins frees the catalog snapshots pinned by this
// session's still-open streaming cursors: the connection layer's
// teardown safety net for Rows abandoned without Close (context
// cancellation, a panicking consumer, a driver connection closed
// mid-iteration). Releasing is idempotent per cursor, so a later
// Cursor.Close finds nothing left to do.
func (e *Engine) ReleaseCursorPins() {
	for _, rel := range e.curPins {
		rel()
	}
}

// ReleaseAllCursorPins frees the cursor-held snapshot pins of every
// session of this database — DB.Close's safety net for Rows abandoned
// on implicit (per-call) sessions, which no connection teardown ever
// reaches. Like ReleaseCursorPins, it is a teardown call: run it after
// in-flight statements have finished.
func (sh *Shared) ReleaseAllCursorPins() {
	sh.curMu.Lock()
	rels := make([]func(), 0, len(sh.curRel))
	for _, rel := range sh.curRel {
		rels = append(rels, rel)
	}
	sh.curMu.Unlock()
	for _, rel := range rels {
		rel()
	}
}

// pipelineCursor opens a compiled statement pipeline as a cursor.
func (e *Engine) pipelineCursor(ctx context.Context, p *pipeline) *Cursor {
	return &Cursor{
		cols:    p.stage.header,
		src:     &exchange{e: e, p: p, ctx: ctx},
		outCols: p.stage.outCols,
	}
}

// compileStream vets the SELECT's shape and compiles its pipeline. ok
// is false (with no error) when the statement must take the
// materializing path.
func (e *Engine) compileStream(sel *ast.Select, env *baseEnv) (*pipeline, bool, error) {
	if sel.SetRight != nil || sel.Distinct || len(sel.OrderBy) > 0 ||
		sel.GroupBy != nil || len(sel.From) != 1 {
		return nil, false, nil
	}
	tr, ok := sel.From[0].(*ast.TableRef)
	if !ok || tr.Subquery != nil {
		return nil, false, nil
	}
	// Aggregates need the whole input; NEXT/subqueries/UDFs/RAND need
	// engine state (parSafeSelect vets all of those plus indexers).
	for _, it := range sel.Items {
		if it.Expr == nil || ast.HasAggregate(it.Expr) {
			return nil, false, nil
		}
	}
	if sel.Having != nil && ast.HasAggregate(sel.Having) {
		return nil, false, nil
	}
	if !parSafeSelect(sel) {
		return nil, false, nil
	}
	// Only catalog arrays stream; environment-bound arrays and tables
	// fall back (they are small or already materialized).
	if _, envBound := env.Lookup("", tr.Name); envBound {
		return nil, false, nil
	}
	arr, found := e.cat().Array(tr.Name)
	if !found {
		return nil, false, nil
	}
	if e.fromIsVacuous(sel, env) {
		return nil, false, nil
	}
	qual := tr.Name
	if tr.Alias != "" {
		qual = tr.Alias
	}
	var sels []dimSel
	if len(tr.Indexers) > 0 {
		s, err := e.resolveIndexers(arr, tr.Indexers, env)
		if err != nil {
			return nil, false, err
		}
		sels = s
	}
	conjs := splitConjuncts(sel.Where)
	consumed := make([]bool, len(conjs))
	restrict := e.pushdownDims(arr, qual, conjs, consumed, sels, env)
	var remaining []ast.Expr
	for i, c := range conjs {
		if !consumed[i] {
			remaining = append(remaining, c)
		}
	}
	p := &pipeline{eff: effectiveSels(arr, sels, restrict), limit: -1, prof: e.prof, budget: e.budget}
	if sel.Limit != nil {
		lv, err := e.Ev.Eval(sel.Limit, env)
		if err != nil {
			return nil, false, err
		}
		p.limit = max(0, int(lv.AsInt()))
	}
	st := &batchStage{outer: env, where: andAll(remaining), having: sel.Having}
	st.items = expandStars(sel.Items, scanCols(arr, qual))
	for _, it := range st.items {
		if _, isStar := it.Expr.(*ast.Star); isStar {
			return nil, false, fmt.Errorf("cannot expand * against %s", qual)
		}
	}
	st.header = streamColumns(st.items, arr, qual)
	dec := e.selectDecision(sel)
	attrs := dec.scanAttrs(arr, tr.Name)
	p.cols = scanColsPruned(arr, qual, attrs)
	e.compileStage(st, p.cols)
	p.stage = st
	// Single-source statement: unqualified identifiers bind to this
	// array, so bare conjuncts are trusted for zone tests.
	sk := e.buildChunkSkipper(arr, qual, p.eff, remaining, true)
	p.chunks, p.par = e.scanChunkList(arr, p.eff, attrs, dec.par, sk, p.prof)
	return p, true, nil
}

// streamColumns builds the provisional column header of a streaming
// cursor: names, qualifiers and dimension flags are final; types of
// computed expressions refine during materialization.
func streamColumns(items []ast.SelectItem, a *array.Array, qual string) []Col {
	src := scanCols(a, qual)
	cols := make([]Col, len(items))
	for i, it := range items {
		cols[i] = Col{Name: itemName(it, i), Typ: value.Unknown, IsDim: it.DimQual}
		if id, ok := it.Expr.(*ast.Ident); ok {
			cols[i].Qual = id.Table
			for _, sc := range src {
				if strings.EqualFold(sc.Name, id.Name) && (id.Table == "" || strings.EqualFold(sc.Qual, id.Table)) {
					cols[i].Typ = sc.Typ
					break
				}
			}
		}
	}
	return cols
}
