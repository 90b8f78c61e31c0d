package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/array"
	"repro/internal/value"
)

// zoneMaps maintains lazily-computed per-chunk zone maps for the
// tabular store (the dense stores cache a zone map in each storage
// chunk instead, see chunk.go). Every mutating operation bumps seq;
// ChunkStats recomputes when the cached generation is stale, so readers
// always observe exact statistics. The engine's MVCC layer clones
// stores before mutating them (copy-on-write), and clones start with a
// fresh zoneMaps, so a snapshot's stats can never describe cells it
// does not contain.
//
// mu guards the lazy build the same way tabularStore.dimMu guards the
// dim-values cache: concurrent read-only queries (the morsel-driven
// executor) may race to compute stats for the same generation.
type zoneMaps struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	cache map[int]zoneEntry // keyed by ScanChunks target
}

type zoneEntry struct {
	seq   uint64
	stats []array.ChunkStats
}

// bump invalidates cached stats; called by every mutating store op.
func (z *zoneMaps) bump() { z.seq.Add(1) }

// get returns the zone maps for the given chunking target, recomputing
// via compute when the cache is missing or stale.
func (z *zoneMaps) get(target int, compute func() []array.ChunkStats) []array.ChunkStats {
	cur := z.seq.Load()
	z.mu.Lock()
	defer z.mu.Unlock()
	if e, ok := z.cache[target]; ok && e.seq == cur {
		return e.stats
	}
	stats := compute()
	if z.cache == nil {
		z.cache = make(map[int]zoneEntry)
	}
	z.cache[target] = zoneEntry{seq: cur, stats: stats}
	return stats
}

// computeZoneMaps derives exact per-chunk statistics by driving the
// store's own ScanChunks partitioning, so stats[i] is index-aligned
// with chunk i of any ScanChunks(target, attrs) call on the unmutated
// store. Rows counts live cells, DimLo/DimHi bound their coordinates
// inclusively, and each attribute's Min/Max cover non-NULL values only
// (typed NULLs when the chunk has none — see array.AttrStats).
func computeZoneMaps(st array.ChunkedScanner, target int, dims []array.Dimension, attrs []array.Attr) []array.ChunkStats {
	chunks := st.ScanChunks(target, nil)
	out := make([]array.ChunkStats, len(chunks))
	for ci, chunk := range chunks {
		cs := &out[ci]
		cs.DimLo = make([]int64, len(dims))
		cs.DimHi = make([]int64, len(dims))
		cs.Attrs = make([]array.AttrStats, len(attrs))
		for ai, at := range attrs {
			cs.Attrs[ai].Min = value.NewNull(at.Typ)
			cs.Attrs[ai].Max = value.NewNull(at.Typ)
		}
		chunk(func(coords []int64, vals []value.Value) bool {
			if cs.Rows == 0 {
				copy(cs.DimLo, coords)
				copy(cs.DimHi, coords)
			} else {
				for i, c := range coords {
					if c < cs.DimLo[i] {
						cs.DimLo[i] = c
					}
					if c > cs.DimHi[i] {
						cs.DimHi[i] = c
					}
				}
			}
			cs.Rows++
			for ai := range attrs {
				v := vals[ai]
				as := &cs.Attrs[ai]
				if v.Null {
					as.Nulls++
					continue
				}
				if as.Min.Null || value.Compare(v, as.Min) < 0 {
					as.Min = v
				}
				if as.Max.Null || value.Compare(v, as.Max) > 0 {
					as.Max = v
				}
			}
			return true
		})
	}
	return out
}
