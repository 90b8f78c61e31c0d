package storage

import (
	"encoding/binary"
	"maps"
	"sort"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// DefaultSlabSize is the per-dimension edge length of a slab block.
// The SciDB-inspired n-ary Slabs scheme (§2.2) breaks a sizeable array
// into rectangles; 64 keeps a 2-D float slab at 32 KiB, L1-friendly.
const DefaultSlabSize = 64

// slabStore is the n-ary Slabs scheme of Figure 1: the array is broken
// into fixed-size rectangles allocated on demand. It supports
// unbounded dimensions (new slabs appear as cells materialize) and is
// the natural unit for parallel processing. Each slab block is a
// storage chunk: the unit of copy-on-write and of zone maps.
type slabStore struct {
	dims     []array.Dimension
	attrs    []array.Attr
	slabSize int64
	vol      int // cells per block
	steps    []int64
	// blocks maps packed slab coordinates to dense blocks.
	blocks map[string]*chunk
	live   int
	// bounds tracking for unbounded dims.
	haveCells bool
	lo, hi    []int64
	cow       cow
	// allStats holds the assembled ChunkStats result until the next
	// Set; clones share it with their source.
	allStats atomic.Pointer[[]array.ChunkStats]
	// derived counts the chunk zone maps this store derived from cell
	// data, so tests can check that a write re-derives one chunk only.
	derived atomic.Int64
}

// NewSlab creates a slab store with the default slab size.
func NewSlab(schema array.Schema) (array.Store, error) {
	return NewSlabSized(schema, DefaultSlabSize)
}

// NewSlabSized creates a slab store with a custom slab edge length,
// used by the slab-size ablation bench.
func NewSlabSized(schema array.Schema, slabSize int64) (array.Store, error) {
	s := &slabStore{
		dims:     schema.Dims,
		attrs:    schema.Attrs,
		slabSize: slabSize,
		vol:      1,
		steps:    dimSteps(schema.Dims),
		blocks:   make(map[string]*chunk),
		lo:       make([]int64, len(schema.Dims)),
		hi:       make([]int64, len(schema.Dims)),
	}
	for range s.dims {
		s.vol *= int(slabSize)
	}
	s.cow.retire()
	// Bounded arrays with non-NULL defaults materialize eagerly so all
	// covered cells exist, as the array semantics require.
	if allBounded(s.dims) && anyNonNullDefault(s.attrs) {
		coords := make([]int64, len(s.dims))
		var fill func(d int)
		fill = func(d int) {
			if d == len(s.dims) {
				if !dimChecksPass(s.dims, coords) {
					return
				}
				blk, pos := s.writable(coords, true)
				live := false
				for ai, at := range s.attrs {
					dv := defaultValue(at, coords)
					blk.cols[ai].set(pos, dv)
					if !dv.Null {
						live = true
					}
				}
				if live {
					s.live++
					s.extendBounds(coords)
				}
				return
			}
			dim := s.dims[d]
			for ord := int64(0); ord < dim.Size(); ord++ {
				coords[d] = dim.Index(ord)
				fill(d + 1)
			}
		}
		fill(0)
	}
	return s, nil
}

func (s *slabStore) extendBounds(coords []int64) {
	if !s.haveCells {
		copy(s.lo, coords)
		copy(s.hi, coords)
		s.haveCells = true
		return
	}
	for i, c := range coords {
		if c < s.lo[i] {
			s.lo[i] = c
		}
		if c > s.hi[i] {
			s.hi[i] = c
		}
	}
}

// slabKey returns the packed slab coordinates for coords and the
// in-block position.
func (s *slabStore) slabKey(coords []int64) (key string, pos int) {
	buf := make([]byte, 8*len(coords))
	p := int64(0)
	for i, c := range coords {
		ord := s.dims[i].Ordinal(c)
		sc := floorDiv(ord, s.slabSize)
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(sc))
		within := ord - sc*s.slabSize
		p = p*s.slabSize + within
	}
	return string(buf), int(p)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// writable returns the block holding coords ready for a write, and the
// in-block position: a block the store does not own is copied first
// (copy-on-write), and a missing block is allocated when create is set
// (otherwise nil is returned).
func (s *slabStore) writable(coords []int64, create bool) (*chunk, int) {
	key, pos := s.slabKey(coords)
	blk := s.blocks[key]
	switch {
	case blk != nil:
		blk = s.cow.own(blk)
	case !create:
		return nil, 0
	default:
		blk = newChunk(s.attrs, s.vol, s.cow.token())
		blk.origin = make([]int64, len(coords))
		for i, c := range coords {
			ord := s.dims[i].Ordinal(c)
			blk.origin[i] = s.dims[i].Index(floorDiv(ord, s.slabSize) * s.slabSize)
		}
	}
	s.blocks[key] = blk
	if s.allStats.Load() != nil {
		s.allStats.Store(nil)
	}
	return blk, pos
}

func (s *slabStore) Scheme() string { return "slab" }
func (s *slabStore) Len() int       { return s.live }

func (s *slabStore) Get(coords []int64, attr int) value.Value {
	key, pos := s.slabKey(coords)
	blk := s.blocks[key]
	if blk == nil {
		return value.NewNull(s.attrs[attr].Typ)
	}
	return blk.cols[attr].get(pos)
}

func (s *slabStore) Set(coords []int64, attr int, v value.Value) error {
	blk, pos := s.writable(coords, !v.Null)
	if blk == nil {
		return nil // hole write into an unallocated slab
	}
	wasHole := blk.isHole(pos)
	if wasHole && !v.Null {
		// Materializing a fresh cell: fill sibling attrs with defaults.
		for ai, at := range s.attrs {
			if ai == attr {
				continue
			}
			blk.cols[ai].set(pos, defaultValue(at, coords))
		}
	}
	blk.cols[attr].set(pos, v)
	nowHole := blk.isHole(pos)
	switch {
	case wasHole && !nowHole:
		s.live++
		s.extendBounds(coords)
	case !wasHole && nowHole:
		s.live--
	}
	return nil
}

// sortedKeys returns the slab keys in the deterministic scan order.
func (s *slabStore) sortedKeys() []string {
	keys := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scanBlock visits the non-hole cells of one slab in position order,
// materializing the attribute columns listed in cols; false return
// from visit stops the walk (and is propagated).
func (s *slabStore) scanBlock(blk *chunk, cols []int, coords []int64, vals []value.Value, visit func(coords []int64, vals []value.Value) bool) bool {
	var live uint64
	for pos := 0; pos < s.vol; pos++ {
		if pos&63 == 0 {
			live = blk.liveWord(pos >> 6)
		}
		if live&(1<<(uint(pos)&63)) == 0 {
			continue
		}
		// Decode in-block position to coordinates.
		p := int64(pos)
		for i := len(s.dims) - 1; i >= 0; i-- {
			within := p % s.slabSize
			p /= s.slabSize
			coords[i] = blk.origin[i] + within*s.steps[i]
		}
		for vi, ai := range cols {
			vals[vi] = blk.cols[ai].get(pos)
		}
		if !visit(coords, vals) {
			return false
		}
	}
	return true
}

func (s *slabStore) Scan(visit func(coords []int64, vals []value.Value) bool) {
	coords := make([]int64, len(s.dims))
	vals := make([]value.Value, len(s.attrs))
	cols := array.AllAttrs(nil, len(s.attrs))
	for _, k := range s.sortedKeys() {
		if !s.scanBlock(s.blocks[k], cols, coords, vals, visit) {
			return
		}
	}
}

// groups splits the sorted slab list into the store's scan chunks:
// runs of consecutive slabs holding at least chunkCells cells between
// them, so with the default slab size every 2-D or larger block is a
// chunk of its own.
func (s *slabStore) groups() [][]string {
	keys := s.sortedKeys()
	per := max(1, chunkCells/s.vol)
	out := make([][]string, 0, (len(keys)+per-1)/per)
	for lo := 0; lo < len(keys); lo += per {
		out = append(out, keys[lo:min(lo+per, len(keys))])
	}
	return out
}

// ScanChunks returns one scan per scan chunk (see groups), whatever
// the target: zone maps describe those chunks, so skipping and morsels
// work at their grain. Concatenating the chunks in order reproduces
// Scan exactly. Only the attribute columns in attrs are materialized.
func (s *slabStore) ScanChunks(_ int, attrs []int) []array.ChunkScan {
	cols := array.AllAttrs(attrs, len(s.attrs))
	groups := s.groups()
	out := make([]array.ChunkScan, len(groups))
	for ci, group := range groups {
		out[ci] = func(visit func(coords []int64, vals []value.Value) bool) {
			coords := make([]int64, len(s.dims))
			vals := make([]value.Value, len(cols))
			for _, k := range group {
				if !s.scanBlock(s.blocks[k], cols, coords, vals, visit) {
					return
				}
			}
		}
	}
	return out
}

// ChunkStats returns zone maps index-aligned with ScanChunks, folded
// from per-block maps that are derived once and cached in the block:
// clones share the maps of the blocks they share, and a write
// re-derives only the block it touched.
func (s *slabStore) ChunkStats(int) []array.ChunkStats {
	if zm := s.allStats.Load(); zm != nil {
		return *zm
	}
	groups := s.groups()
	out := make([]array.ChunkStats, len(groups))
	var parts []*array.ChunkStats
	for ci, group := range groups {
		parts = parts[:0]
		for _, k := range group {
			blk := s.blocks[k]
			zs := blk.zm.Load()
			if zs == nil {
				zs = blk.derive(s.vol, s.grid(blk))
				s.derived.Add(1)
			}
			parts = append(parts, zs)
		}
		out[ci] = mergeStats(parts, len(s.dims), s.attrs)
	}
	s.allStats.Store(&out)
	return out
}

// grid locates a block's cells for zone-map derivation.
func (s *slabStore) grid(blk *chunk) cellGrid {
	nd := len(s.dims)
	g := cellGrid{base: blk.origin, step: s.steps, stride: make([]int64, nd), span: make([]int64, nd)}
	stride := int64(1)
	for i := nd - 1; i >= 0; i-- {
		g.stride[i], g.span[i] = stride, s.slabSize
		stride *= s.slabSize
	}
	return g
}

func (s *slabStore) Bounds() (lo, hi []int64, ok bool) {
	if !s.haveCells {
		return nil, nil, false
	}
	return append([]int64(nil), s.lo...), append([]int64(nil), s.hi...), true
}

// Clone copies the block table only. Neither side owns a block
// afterwards: the first write into a block copies that block.
func (s *slabStore) Clone() array.Store {
	out := &slabStore{
		dims:      s.dims,
		attrs:     s.attrs,
		slabSize:  s.slabSize,
		vol:       s.vol,
		steps:     s.steps,
		blocks:    maps.Clone(s.blocks),
		live:      s.live,
		haveCells: s.haveCells,
		lo:        append([]int64(nil), s.lo...),
		hi:        append([]int64(nil), s.hi...),
	}
	out.allStats.Store(s.allStats.Load())
	s.cow.retire()
	out.cow.retire()
	return out
}

// MeterCopies implements array.CopyMeter.
func (s *slabStore) MeterCopies(add func(bytes int64)) { s.cow.sink = add }

// NumSlabs reports the number of allocated slabs (parallelism units).
func (s *slabStore) NumSlabs() int { return len(s.blocks) }
