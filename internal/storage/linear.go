package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// linearStore is the shared implementation of the two dense schemes of
// Figure 1: Virtual (row-major, cell location derived as |y|*x+y) and
// D-Order (column-major, the "programming language compilation
// technique" ordering). The index columns are never materialized —
// the coordinate of a cell is derived from its position, exactly the
// virtual-OID trick of MonetDB BATs (§2.2). The attribute columns are
// cut into chunks of chunkCells consecutive positions, the unit of
// copy-on-write and of zone maps.
type linearStore struct {
	scheme   string
	dims     []array.Dimension
	attrs    []array.Attr
	sizes    []int64
	strides  []int64
	starts   []int64 // per-dimension first index value
	steps    []int64
	total    int64
	chunks   []*chunk // chunk i holds positions [i·chunkCells, (i+1)·chunkCells)
	liveCnt  int
	rowMajor bool
	cow      cow
	// allStats holds the assembled ChunkStats result until the next
	// Set; clones share it with their source.
	allStats atomic.Pointer[[]array.ChunkStats]
	// derived counts the chunk zone maps this store derived from cell
	// data, so tests can check that a write re-derives one chunk only.
	derived atomic.Int64
}

// NewVirtual creates a row-major dense store. All dimensions must be
// bounded; the adaptive layer guarantees this.
func NewVirtual(schema array.Schema) (array.Store, error) {
	return newLinear("virtual", schema, true)
}

// NewDOrder creates a column-major dense store (first dimension varies
// fastest), matching Fortran/FITS serialization order.
func NewDOrder(schema array.Schema) (array.Store, error) {
	return newLinear("dorder", schema, false)
}

func newLinear(scheme string, schema array.Schema, rowMajor bool) (array.Store, error) {
	s := &linearStore{
		scheme:   scheme,
		dims:     schema.Dims,
		attrs:    schema.Attrs,
		rowMajor: rowMajor,
	}
	s.sizes = make([]int64, len(s.dims))
	total := int64(1)
	for i, d := range s.dims {
		if !d.Bounded() {
			return nil, fmt.Errorf("%s storage requires bounded dimensions; %s is unbounded", scheme, d.Name)
		}
		s.sizes[i] = d.Size()
		total *= s.sizes[i]
	}
	s.total = total
	s.steps = dimSteps(s.dims)
	s.starts = make([]int64, len(s.dims))
	s.strides = make([]int64, len(s.dims))
	stride := int64(1)
	for k := range s.dims {
		i := k
		if rowMajor {
			i = len(s.dims) - 1 - k
		}
		s.strides[i] = stride
		stride *= s.sizes[i]
		s.starts[i] = s.dims[i].Start
	}
	s.cow.retire()
	tok := s.cow.token()
	for lo := int64(0); lo < total; lo += chunkCells {
		s.chunks = append(s.chunks, newChunk(s.attrs, int(min(chunkCells, total-lo)), tok))
	}
	// Initialize every valid cell to the attribute defaults; cells
	// carved out by dimension CHECKs stay holes (Fig. 2 forms).
	// Constant defaults resolve once; without dimension CHECKs or
	// computed defaults every column is a plain fill.
	consts := make([]value.Value, len(s.attrs))
	perCell := false
	for _, d := range s.dims {
		perCell = perCell || d.Check != nil
	}
	for ai, at := range s.attrs {
		if at.DefaultFn != nil {
			perCell = true
		} else {
			consts[ai] = defaultValue(at, nil)
		}
	}
	if !perCell {
		for ai, dv := range consts {
			for ci, c := range s.chunks {
				c.cols[ai].fill(dv, s.chunkLen(ci))
			}
			if !dv.Null {
				s.liveCnt = int(total)
			}
		}
		return s, nil
	}
	coords := make([]int64, len(s.dims))
	for p := int64(0); p < total; p++ {
		s.coordsOf(p, coords)
		if !dimChecksPass(s.dims, coords) {
			continue
		}
		c, pos := s.chunks[p/chunkCells], int(p%chunkCells)
		live := false
		for ai, at := range s.attrs {
			dv := consts[ai]
			if at.DefaultFn != nil {
				dv = defaultValue(at, coords)
			}
			c.cols[ai].set(pos, dv)
			if !dv.Null {
				live = true
			}
		}
		if live {
			s.liveCnt++
		}
	}
	return s, nil
}

// offset linearizes coordinates; -1 when out of range.
func (s *linearStore) offset(coords []int64) int64 {
	var off int64
	for i, d := range s.dims {
		ord := d.Ordinal(coords[i])
		if ord < 0 || ord >= s.sizes[i] {
			return -1
		}
		off += ord * s.strides[i]
	}
	return off
}

// coordsOf decodes a linear position into index values (into out).
func (s *linearStore) coordsOf(pos int64, out []int64) {
	if s.rowMajor {
		for i := 0; i < len(s.dims); i++ {
			ord := pos / s.strides[i]
			pos -= ord * s.strides[i]
			out[i] = s.dims[i].Index(ord)
		}
	} else {
		for i := len(s.dims) - 1; i >= 0; i-- {
			ord := pos / s.strides[i]
			pos -= ord * s.strides[i]
			out[i] = s.dims[i].Index(ord)
		}
	}
}

func (s *linearStore) Scheme() string { return s.scheme }
func (s *linearStore) Len() int       { return s.liveCnt }

func (s *linearStore) Get(coords []int64, attr int) value.Value {
	off := s.offset(coords)
	if off < 0 {
		return value.NewNull(s.attrs[attr].Typ)
	}
	return s.chunks[off/chunkCells].cols[attr].get(int(off % chunkCells))
}

func (s *linearStore) Set(coords []int64, attr int, v value.Value) error {
	off := s.offset(coords)
	if off < 0 {
		return fmt.Errorf("%s store: coordinates %v out of bounds", s.scheme, coords)
	}
	ci, pos := off/chunkCells, int(off%chunkCells)
	c := s.cow.own(s.chunks[ci])
	s.chunks[ci] = c
	if s.allStats.Load() != nil {
		s.allStats.Store(nil)
	}
	wasHole := c.isHole(pos)
	c.cols[attr].set(pos, v)
	nowHole := c.isHole(pos)
	switch {
	case wasHole && !nowHole:
		s.liveCnt++
	case !wasHole && nowHole:
		s.liveCnt--
	}
	return nil
}

func (s *linearStore) Scan(visit func(coords []int64, vals []value.Value) bool) {
	cols := array.AllAttrs(nil, len(s.attrs))
	coords := make([]int64, len(s.dims))
	vals := make([]value.Value, len(cols))
	for ci := range s.chunks {
		if !s.scanChunk(ci, cols, coords, vals, visit) {
			return
		}
	}
}

// chunkLen is the cell count of chunk ci; only the last chunk is short.
func (s *linearStore) chunkLen(ci int) int {
	return int(min(chunkCells, s.total-int64(ci)*chunkCells))
}

// scanChunk visits the live cells of chunk ci in position order,
// materializing the attribute columns listed in cols; a false return
// from visit stops the walk and is propagated.
func (s *linearStore) scanChunk(ci int, cols []int, coords []int64, vals []value.Value, visit func(coords []int64, vals []value.Value) bool) bool {
	c := s.chunks[ci]
	base := int64(ci) * chunkCells
	var live uint64
	for p, n := 0, s.chunkLen(ci); p < n; p++ {
		if p&63 == 0 {
			live = c.liveWord(p >> 6)
		}
		if live&(1<<(uint(p)&63)) == 0 {
			continue
		}
		s.coordsOf(base+int64(p), coords)
		for vi, ai := range cols {
			vals[vi] = c.cols[ai].get(p)
		}
		if !visit(coords, vals) {
			return false
		}
	}
	return true
}

// ScanChunks returns one scan per storage chunk, whatever the target:
// zone maps describe storage chunks, so skipping and morsels work at
// that grain. Concatenated in order the chunks reproduce Scan exactly.
// Only the columns in attrs are materialized into vals (liveness still
// consults every column, like Scan).
func (s *linearStore) ScanChunks(_ int, attrs []int) []array.ChunkScan {
	cols := array.AllAttrs(attrs, len(s.attrs))
	out := make([]array.ChunkScan, len(s.chunks))
	for ci := range s.chunks {
		out[ci] = func(visit func(coords []int64, vals []value.Value) bool) {
			s.scanChunk(ci, cols, make([]int64, len(s.dims)), make([]value.Value, len(cols)), visit)
		}
	}
	return out
}

// ChunkStats returns zone maps index-aligned with ScanChunks. Each
// chunk's map is derived once and cached in the chunk, so clones share
// the maps of the chunks they share and a write re-derives only the
// chunk it touched.
func (s *linearStore) ChunkStats(int) []array.ChunkStats {
	if zm := s.allStats.Load(); zm != nil {
		return *zm
	}
	out := make([]array.ChunkStats, len(s.chunks))
	for ci, c := range s.chunks {
		zs := c.zm.Load()
		if zs == nil {
			zs = c.derive(s.chunkLen(ci), s.grid(ci))
			s.derived.Add(1)
		}
		out[ci] = *zs
	}
	s.allStats.Store(&out)
	return out
}

// grid locates chunk ci's cells for zone-map derivation.
func (s *linearStore) grid(ci int) cellGrid {
	return cellGrid{first: int64(ci) * chunkCells, base: s.starts, step: s.steps, stride: s.strides, span: s.sizes}
}

func (s *linearStore) Bounds() (lo, hi []int64, ok bool) {
	lo = make([]int64, len(s.dims))
	hi = make([]int64, len(s.dims))
	for i, d := range s.dims {
		lo[i] = d.Start
		hi[i] = d.Index(s.sizes[i] - 1)
	}
	return lo, hi, true
}

// Clone copies the table of chunk pointers only. Neither side owns a
// chunk afterwards: the first write into a chunk copies that chunk.
func (s *linearStore) Clone() array.Store {
	out := &linearStore{
		scheme:   s.scheme,
		dims:     s.dims,
		attrs:    s.attrs,
		sizes:    s.sizes,
		strides:  s.strides,
		starts:   s.starts,
		steps:    s.steps,
		total:    s.total,
		chunks:   append([]*chunk(nil), s.chunks...),
		liveCnt:  s.liveCnt,
		rowMajor: s.rowMajor,
	}
	out.allStats.Store(s.allStats.Load())
	s.cow.retire()
	out.cow.retire()
	return out
}

// MeterCopies implements array.CopyMeter.
func (s *linearStore) MeterCopies(add func(bytes int64)) { s.cow.sink = add }

// FloatChunks hands the raw float column of attribute attr to visit
// chunk by chunk, in position order, for bulk kernels and black-box
// marshaling; it returns false when the attribute is not Float-typed.
func (s *linearStore) FloatChunks(attr int, visit func(data []float64, valid []uint64)) bool {
	if s.attrs[attr].Typ != value.Float {
		return false
	}
	for _, c := range s.chunks {
		visit(c.cols[attr].f, c.cols[attr].valid)
	}
	return true
}

// RowMajor reports the linearization order (true for Virtual, false
// for D-Order); black-box marshaling uses it to decide on a recast.
func (s *linearStore) RowMajor() bool { return s.rowMajor }

// DenseFloats is implemented by dense stores that can expose an
// attribute as raw float chunks. The UDF marshaling layer (§6.2) uses
// it to hand arrays to external library functions.
type DenseFloats interface {
	FloatChunks(attr int, visit func(data []float64, valid []uint64)) bool
	RowMajor() bool
}
