package storage

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// chunkCells is the number of cells in one dense-store chunk: a run of
// consecutive linear positions in the Virtual and D-Order schemes, the
// cell count of a 64×64 slab block. The chunk is the unit of
// copy-on-write, of zone maps and of chunked scans.
const chunkCells = 4096

// chunk holds one column per attribute over a fixed run of cells plus
// the chunk's lazily derived zone map. A chunk reachable from more than
// one store is immutable: only the store whose copy-on-write token
// equals owner writes it, and Clone retires the tokens of both sides.
type chunk struct {
	owner uint64
	// origin is the index value of a slab block's low corner; nil in
	// linear stores, whose chunks are located by position.
	origin []int64
	cols   []*column
	zm     atomic.Pointer[array.ChunkStats]
}

func newChunk(attrs []array.Attr, n int, owner uint64) *chunk {
	c := &chunk{owner: owner, cols: make([]*column, len(attrs))}
	for ai, at := range attrs {
		c.cols[ai] = newColumn(at.Typ, n)
	}
	return c
}

// privateCopy returns a copy of c owned by owner, with an empty zone
// map slot, and the number of bytes copied.
func (c *chunk) privateCopy(owner uint64) (*chunk, int64) {
	out := &chunk{owner: owner, origin: c.origin, cols: make([]*column, len(c.cols))}
	var n int64
	for ai, col := range c.cols {
		out.cols[ai] = col.clone()
		n += col.bytes()
	}
	return out, n
}

// isHole reports whether every attribute of the cell at pos is NULL.
func (c *chunk) isHole(pos int) bool {
	for _, col := range c.cols {
		if col.isValid(pos) {
			return false
		}
	}
	return true
}

// liveWord returns the liveness bits of cells [64w, 64w+64): a cell is
// live when any attribute is non-NULL.
func (c *chunk) liveWord(w int) uint64 {
	var live uint64
	for _, col := range c.cols {
		live |= col.valid[w]
	}
	return live
}

// cow is a store's copy-on-write identity: the token its owned chunks
// carry, and where the byte counts of chunk copies go.
type cow struct {
	tok  atomic.Uint64
	sink func(bytes int64)
}

// cowTokens mints copy-on-write tokens; every token is used by one
// store only.
var cowTokens atomic.Uint64

// retire gives the store a fresh token, so it owns none of its
// current chunks. Clone retires both the source and the copy; the
// atomic store keeps concurrent clones of one source race-free.
func (w *cow) retire() { w.tok.Store(cowTokens.Add(1)) }

func (w *cow) token() uint64 { return w.tok.Load() }

// own returns c ready for a write by the store: c itself, its zone map
// dropped, when the store owns it; otherwise a private copy, whose
// bytes go to the sink. The caller installs the result in place of c.
func (w *cow) own(c *chunk) *chunk {
	tok := w.token()
	if c.owner == tok {
		if c.zm.Load() != nil {
			c.zm.Store(nil)
		}
		return c
	}
	out, n := c.privateCopy(tok)
	if w.sink != nil {
		w.sink(n)
	}
	return out
}

// cellGrid locates a chunk's cells: the cell at chunk position p has,
// in dimension d, ordinal ((first+p) / stride[d]) mod span[d], and
// that ordinal is the coordinate base[d] + ordinal·step[d].
type cellGrid struct {
	first                    int64
	base, step, stride, span []int64
}

// dimSteps returns each dimension's grid step (0 reads as 1).
func dimSteps(dims []array.Dimension) []int64 {
	out := make([]int64, len(dims))
	for i, d := range dims {
		out[i] = max(d.Step, 1)
	}
	return out
}

// derive computes the chunk's zone map from the typed columns and
// their validity words, without boxing cells, and caches it in the
// chunk: the live-cell count, the bounding box of live cells and each
// attribute's null count and min/max (the first of equal values wins,
// as value.Compare orders them). n is the chunk's cell count and g
// locates its cells. Concurrent readers may both derive a missing map;
// either result is exact.
func (c *chunk) derive(n int, g cellGrid) *array.ChunkStats {
	nd := len(g.span)
	cs := &array.ChunkStats{
		DimLo: make([]int64, nd),
		DimHi: make([]int64, nd),
		Attrs: make([]array.AttrStats, len(c.cols)),
	}
	nw := (n + 63) / 64
	live := make([]uint64, nw)
	for w := range live {
		live[w] = c.liveWord(w)
		cs.Rows += int64(bits.OnesCount64(live[w]))
	}
	for ai, col := range c.cols {
		as := &cs.Attrs[ai]
		for w, lw := range live {
			as.Nulls += int64(bits.OnesCount64(lw &^ col.valid[w]))
		}
		as.Min, as.Max = col.minMax()
	}
	if cs.Rows == 0 {
		c.zm.Store(cs)
		return cs
	}
	// Fold each run of consecutive live cells into the bounding box:
	// along one dimension a run covers one contiguous range of
	// ordinals, or the whole span when it wraps.
	lo := make([]int64, nd)
	hi := make([]int64, nd)
	first := true
	for p := 0; p < n; {
		lw := live[p>>6] >> (uint(p) & 63)
		if lw == 0 {
			p = (p>>6 + 1) << 6
			continue
		}
		p += bits.TrailingZeros64(lw)
		a := p
		for p < n {
			run := bits.TrailingZeros64(^(live[p>>6] >> (uint(p) & 63)))
			p += run
			if run == 0 || p&63 != 0 {
				break
			}
		}
		for d := 0; d < nd; d++ {
			q0, q1 := (g.first+int64(a))/g.stride[d], (g.first+int64(p-1))/g.stride[d]
			o0, o1 := q0%g.span[d], q1%g.span[d]
			if q1-q0 >= g.span[d] || o0 > o1 {
				o0, o1 = 0, g.span[d]-1
			}
			if first || o0 < lo[d] {
				lo[d] = o0
			}
			if first || o1 > hi[d] {
				hi[d] = o1
			}
		}
		first = false
	}
	for d := range nd {
		cs.DimLo[d] = g.base[d] + lo[d]*g.step[d]
		cs.DimHi[d] = g.base[d] + hi[d]*g.step[d]
	}
	c.zm.Store(cs)
	return cs
}

// mergeStats folds the zone maps of consecutive chunks into the zone
// map of their concatenation.
func mergeStats(parts []*array.ChunkStats, nd int, attrs []array.Attr) array.ChunkStats {
	if len(parts) == 1 {
		return *parts[0]
	}
	out := array.ChunkStats{
		DimLo: make([]int64, nd),
		DimHi: make([]int64, nd),
		Attrs: make([]array.AttrStats, len(attrs)),
	}
	for ai, at := range attrs {
		out.Attrs[ai].Min = value.NewNull(at.Typ)
		out.Attrs[ai].Max = value.NewNull(at.Typ)
	}
	for _, p := range parts {
		if p.Rows == 0 {
			continue
		}
		if out.Rows == 0 {
			copy(out.DimLo, p.DimLo)
			copy(out.DimHi, p.DimHi)
		} else {
			for d := 0; d < nd; d++ {
				out.DimLo[d] = min(out.DimLo[d], p.DimLo[d])
				out.DimHi[d] = max(out.DimHi[d], p.DimHi[d])
			}
		}
		out.Rows += p.Rows
		for ai := range out.Attrs {
			as, ps := &out.Attrs[ai], &p.Attrs[ai]
			as.Nulls += ps.Nulls
			if ps.Min.Null {
				continue
			}
			if as.Min.Null || value.Compare(ps.Min, as.Min) < 0 {
				as.Min = ps.Min
			}
			if as.Max.Null || value.Compare(ps.Max, as.Max) > 0 {
				as.Max = ps.Max
			}
		}
	}
	return out
}
