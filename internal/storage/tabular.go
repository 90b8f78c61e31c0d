package storage

import (
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/array"
	"repro/internal/value"
)

// tabularStore is the Tabular scheme of Figure 1: the array index
// values are materialized as explicit columns alongside the attribute
// columns — exactly the relational encoding of an array. It is the
// representation of choice for sparse arrays and for arrays with
// unbounded dimensions, where dense allocation is impossible (§2.2).
type tabularStore struct {
	dims  []array.Dimension
	attrs []array.Attr
	// idx holds one materialized index column per dimension.
	idx []*column
	// cols holds the attribute columns.
	cols []*column
	// lookup maps packed coordinates to row position.
	lookup map[string]int
	// tomb marks deleted rows awaiting compaction.
	tomb []bool
	live int
	// Incrementally tracked bounding box. Deletes do not shrink it, so
	// the box is conservative (a superset) after heavy deletion — the
	// engine only needs an enclosing rectangle.
	haveCells bool
	blo, bhi  []int64
	// dimVals caches sorted distinct coordinate values per dimension
	// for sparse-range expansion; invalidated on inserts. Stale values
	// after deletes are harmless (reads come back NULL and are
	// skipped). dimMu guards the lazy build: concurrent read-only
	// queries (the morsel-driven executor) may race to build it.
	dimMu   sync.Mutex
	dimVals [][]int64
	zm      zoneMaps
}

// NewTabular creates a tabular store. Cells materialize on first
// write; defaults fill unset attributes of a written cell. For
// bounded arrays whose defaults are non-NULL the engine materializes
// default cells eagerly so scans observe them, mirroring the paper's
// "all cells covered by the dimensions exist".
func NewTabular(schema array.Schema) (array.Store, error) {
	s := &tabularStore{
		dims:   schema.Dims,
		attrs:  schema.Attrs,
		lookup: make(map[string]int),
		blo:    make([]int64, len(schema.Dims)),
		bhi:    make([]int64, len(schema.Dims)),
	}
	s.idx = make([]*column, len(s.dims))
	for i, d := range s.dims {
		s.idx[i] = newColumn(d.Typ, 0)
	}
	s.cols = make([]*column, len(s.attrs))
	for i, a := range s.attrs {
		s.cols[i] = newColumn(a.Typ, 0)
	}
	if allBounded(s.dims) && anyNonNullDefault(s.attrs) {
		coords := make([]int64, len(s.dims))
		var fill func(d int)
		fill = func(d int) {
			if d == len(s.dims) {
				if !dimChecksPass(s.dims, coords) {
					return
				}
				row := s.newRow(coords)
				live := false
				for ai, at := range s.attrs {
					dv := defaultValue(at, coords)
					s.cols[ai].set(row, dv)
					if !dv.Null {
						live = true
					}
				}
				if live {
					s.live++
				} else {
					s.tomb[row] = true
					delete(s.lookup, packCoords(coords))
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

func allBounded(dims []array.Dimension) bool {
	for _, d := range dims {
		if !d.Bounded() {
			return false
		}
	}
	return true
}

func anyNonNullDefault(attrs []array.Attr) bool {
	for _, a := range attrs {
		if a.DefaultFn != nil || !a.Default.Null {
			return true
		}
	}
	return false
}

// packCoords builds a map key from coordinates.
func packCoords(coords []int64) string {
	buf := make([]byte, 8*len(coords))
	for i, c := range coords {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(c))
	}
	return string(buf)
}

func (s *tabularStore) newRow(coords []int64) int {
	s.zm.bump()
	row := -1
	for i := range s.idx {
		row = s.idx[i].grow()
		s.idx[i].set(row, value.Value{Typ: s.dims[i].Typ, I: coords[i]})
	}
	for i := range s.cols {
		s.cols[i].grow()
	}
	s.tomb = append(s.tomb, false)
	s.lookup[packCoords(coords)] = row
	s.dimVals = nil
	if !s.haveCells {
		copy(s.blo, coords)
		copy(s.bhi, coords)
		s.haveCells = true
	} else {
		for i, c := range coords {
			if c < s.blo[i] {
				s.blo[i] = c
			}
			if c > s.bhi[i] {
				s.bhi[i] = c
			}
		}
	}
	return row
}

func (s *tabularStore) Scheme() string { return "tabular" }
func (s *tabularStore) Len() int       { return s.live }

func (s *tabularStore) Get(coords []int64, attr int) value.Value {
	row, ok := s.lookup[packCoords(coords)]
	if !ok || s.tomb[row] {
		return value.NewNull(s.attrs[attr].Typ)
	}
	return s.cols[attr].get(row)
}

func (s *tabularStore) Set(coords []int64, attr int, v value.Value) error {
	s.zm.bump()
	key := packCoords(coords)
	row, ok := s.lookup[key]
	if !ok || s.tomb[row] {
		if v.Null {
			return nil // punching a hole in an absent cell is a no-op
		}
		row = s.newRow(coords)
		// Fill other attributes with their defaults on materialization.
		for ai, at := range s.attrs {
			if ai == attr {
				continue
			}
			s.cols[ai].set(row, defaultValue(at, coords))
		}
		s.cols[attr].set(row, v)
		s.live++
		return nil
	}
	s.cols[attr].set(row, v)
	if s.rowIsHole(row) {
		s.tomb[row] = true
		delete(s.lookup, key)
		s.live--
	}
	return nil
}

func (s *tabularStore) rowIsHole(row int) bool {
	for _, c := range s.cols {
		if c.isValid(row) {
			return false
		}
	}
	return true
}

func (s *tabularStore) Scan(visit func(coords []int64, vals []value.Value) bool) {
	coords := make([]int64, len(s.dims))
	vals := make([]value.Value, len(s.attrs))
	n := len(s.tomb)
	for row := 0; row < n; row++ {
		if s.tomb[row] {
			continue
		}
		for i := range s.idx {
			coords[i] = s.idx[i].get(row).I
		}
		for ai := range s.cols {
			vals[ai] = s.cols[ai].get(row)
		}
		if !visit(coords, vals) {
			return
		}
	}
}

// chunkRanges splits [0, total) into roughly target contiguous ranges.
func chunkRanges(total int64, target int) [][2]int64 {
	if total <= 0 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	size := (total + int64(target) - 1) / int64(target)
	if size < 1 {
		size = 1
	}
	out := make([][2]int64, 0, target)
	for lo := int64(0); lo < total; lo += size {
		hi := lo + size
		if hi > total {
			hi = total
		}
		out = append(out, [2]int64{lo, hi})
	}
	return out
}

// ScanChunks splits the row range into contiguous chunks; concatenated
// in order they reproduce Scan exactly. Only the attribute columns in
// attrs are materialized into vals.
func (s *tabularStore) ScanChunks(target int, attrs []int) []array.ChunkScan {
	cols := array.AllAttrs(attrs, len(s.attrs))
	ranges := chunkRanges(int64(len(s.tomb)), target)
	out := make([]array.ChunkScan, len(ranges))
	for ci, r := range ranges {
		lo, hi := int(r[0]), int(r[1])
		out[ci] = func(visit func(coords []int64, vals []value.Value) bool) {
			coords := make([]int64, len(s.dims))
			vals := make([]value.Value, len(cols))
			for row := lo; row < hi; row++ {
				if s.tomb[row] {
					continue
				}
				for i := range s.idx {
					coords[i] = s.idx[i].get(row).I
				}
				for vi, ai := range cols {
					vals[vi] = s.cols[ai].get(row)
				}
				if !visit(coords, vals) {
					return
				}
			}
		}
	}
	return out
}

// ChunkStats returns zone maps index-aligned with ScanChunks(target, ·).
func (s *tabularStore) ChunkStats(target int) []array.ChunkStats {
	return s.zm.get(target, func() []array.ChunkStats {
		return computeZoneMaps(s, target, s.dims, s.attrs)
	})
}

// DimValues returns the sorted distinct coordinate values along
// dimension di — the sparse-range expansion index. The result must be
// treated as read-only.
func (s *tabularStore) DimValues(di int) []int64 {
	s.dimMu.Lock()
	defer s.dimMu.Unlock()
	if s.dimVals == nil {
		s.dimVals = make([][]int64, len(s.dims))
	}
	if s.dimVals[di] != nil {
		return s.dimVals[di]
	}
	set := make(map[int64]struct{}, len(s.tomb))
	for row := 0; row < len(s.tomb); row++ {
		if s.tomb[row] {
			continue
		}
		set[s.idx[di].get(row).I] = struct{}{}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	s.dimVals[di] = out
	return out
}

func (s *tabularStore) Bounds() (lo, hi []int64, ok bool) {
	if !s.haveCells || s.live == 0 {
		return nil, nil, false
	}
	return append([]int64(nil), s.blo...), append([]int64(nil), s.bhi...), true
}

func (s *tabularStore) Clone() array.Store {
	out := &tabularStore{
		dims:      s.dims,
		attrs:     s.attrs,
		lookup:    make(map[string]int, len(s.lookup)),
		tomb:      append([]bool(nil), s.tomb...),
		live:      s.live,
		haveCells: s.haveCells,
		blo:       append([]int64(nil), s.blo...),
		bhi:       append([]int64(nil), s.bhi...),
	}
	out.idx = make([]*column, len(s.idx))
	for i, c := range s.idx {
		out.idx[i] = c.clone()
	}
	out.cols = make([]*column, len(s.cols))
	for i, c := range s.cols {
		out.cols[i] = c.clone()
	}
	for k, v := range s.lookup {
		out.lookup[k] = v
	}
	return out
}
