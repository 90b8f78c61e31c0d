package storage

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/catalog"
	"repro/internal/value"
)

// The tests in this file run on 200×200 arrays, which span many
// chunks in every dense scheme (10 linear chunks of 4096 cells, 16
// slab blocks of 64×64), so copy-on-write and zone maps are exercised
// at chunk granularity rather than inside one chunk.

const bigN = 200

// bigSchema has a defaulted Float attribute, so every cell exists, and
// an Int attribute that starts NULL.
func bigSchema() array.Schema {
	return array.Schema{
		Dims: []array.Dimension{
			{Name: "x", Typ: value.Int, Start: 0, End: bigN, Step: 1},
			{Name: "y", Typ: value.Int, Start: 0, End: bigN, Step: 1},
		},
		Attrs: []array.Attr{
			{Name: "a", Typ: value.Float, Default: value.NewFloat(0.5)},
			{Name: "b", Typ: value.Int, Default: value.NewNull(value.Int)},
		},
	}
}

// chunkedSchemes builds the dense schemes with their default chunking.
func chunkedSchemes(t *testing.T) map[string]array.Store {
	t.Helper()
	out := make(map[string]array.Store)
	for _, scheme := range []string{SchemeVirtual, SchemeDOrder, SchemeSlab} {
		st, err := NewScheme(scheme, bigSchema(), Hints{})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if n := len(st.(array.ChunkedScanner).ScanChunks(1, nil)); n < 8 {
			t.Fatalf("%s: %d scan chunks, want a multi-chunk array", scheme, n)
		}
		out[scheme] = st
	}
	return out
}

// cellWrite is one Set of attribute a.
type cellWrite struct {
	x, y int64
	v    value.Value
}

// randomWrites draws n writes spread over the whole array, about one
// in eight punching a NULL.
func randomWrites(seed int64, n int) []cellWrite {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cellWrite, n)
	for i := range out {
		out[i] = cellWrite{x: rng.Int63n(bigN), y: rng.Int63n(bigN), v: value.NewFloat(float64(rng.Intn(1 << 20)))}
		if rng.Intn(8) == 0 {
			out[i].v = value.NewNull(value.Float)
		}
	}
	return out
}

func apply(t *testing.T, st array.Store, ws []cellWrite) {
	t.Helper()
	for _, w := range ws {
		if err := st.Set([]int64{w.x, w.y}, 0, w.v); err != nil {
			t.Fatal(err)
		}
	}
}

// contents renders attribute a of every cell plus Len, the observable
// state the isolation tests compare.
func contents(st array.Store) []value.Value {
	out := make([]value.Value, 0, bigN*bigN+1)
	for x := int64(0); x < bigN; x++ {
		for y := int64(0); y < bigN; y++ {
			out = append(out, st.Get([]int64{x, y}, 0))
		}
	}
	return append(out, value.NewInt(int64(st.Len())))
}

func sameContents(t *testing.T, what string, got, want []value.Value) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.Null != w.Null || (!g.Null && value.Compare(g, w) != 0) {
			t.Fatalf("%s: cell %d = %v, want %v", what, i, g, w)
		}
	}
}

// expected applies writes to a plain copy of contents.
func expected(base []value.Value, ws []cellWrite) []value.Value {
	out := append([]value.Value(nil), base...)
	live := out[len(out)-1].I
	for _, w := range ws {
		i := w.x*bigN + w.y
		if out[i].Null != w.v.Null {
			if w.v.Null {
				live--
			} else {
				live++
			}
		}
		out[i] = w.v
	}
	out[len(out)-1] = value.NewInt(live)
	return out
}

// TestChunkCloneIsolation writes a clone, then its source, and checks
// that neither ever observes the other's writes.
func TestChunkCloneIsolation(t *testing.T) {
	for name, st := range chunkedSchemes(t) {
		base := contents(st)
		cl := st.Clone()
		toClone, toBase := randomWrites(1, 600), randomWrites(2, 600)
		apply(t, cl, toClone)
		sameContents(t, name+" source after clone writes", contents(st), base)
		sameContents(t, name+" clone", contents(cl), expected(base, toClone))
		apply(t, st, toBase)
		sameContents(t, name+" clone after source writes", contents(cl), expected(base, toClone))
		sameContents(t, name+" source", contents(st), expected(base, toBase))
		assertStatsFresh(t, name, st, bigSchema(), "source")
		assertStatsFresh(t, name, cl, bigSchema(), "clone")
	}
}

// TestChunkConcurrentClones clones one source from two goroutines at
// once and writes each clone while a third goroutine reads the source;
// run it under -race.
func TestChunkConcurrentClones(t *testing.T) {
	for name, st := range chunkedSchemes(t) {
		st.(array.StatsProvider).ChunkStats(1)
		base := contents(st)
		var wg sync.WaitGroup
		clones := make([]array.Store, 2)
		for i := range clones {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := st.Clone()
				for _, w := range randomWrites(int64(10+i), 400) {
					if err := cl.Set([]int64{w.x, w.y}, 0, w.v); err != nil {
						t.Error(err)
						return
					}
				}
				cl.(array.StatsProvider).ChunkStats(1)
				clones[i] = cl
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				st.(array.StatsProvider).ChunkStats(1)
				for _, c := range st.(array.ChunkedScanner).ScanChunks(1, nil) {
					c(func([]int64, []value.Value) bool { return true })
				}
			}
		}()
		wg.Wait()
		sameContents(t, name+" source", contents(st), base)
		for i, cl := range clones {
			sameContents(t, name+" clone", contents(cl), expected(base, randomWrites(int64(10+i), 400)))
			assertStatsFresh(t, name, cl, bigSchema(), "concurrent clone")
		}
	}
}

// derivations reads a dense store's count of derived zone maps.
func derivations(st array.Store) int64 {
	switch s := st.(type) {
	case *linearStore:
		return s.derived.Load()
	case *slabStore:
		return s.derived.Load()
	}
	return 0
}

// TestChunkWriteRederivesOneZoneMap counts zone-map derivations: a
// clone shares its source's maps, and a write re-derives only the map
// of the chunk it touched, however many cells of that chunk it wrote.
func TestChunkWriteRederivesOneZoneMap(t *testing.T) {
	for name, st := range chunkedSchemes(t) {
		sp := st.(array.StatsProvider)
		n := len(sp.ChunkStats(1))
		if d := derivations(st); d != int64(n) {
			t.Errorf("%s: first read derived %d zone maps, want one per chunk (%d)", name, d, n)
		}
		sp.ChunkStats(1)
		cl := st.Clone()
		cl.(array.StatsProvider).ChunkStats(1)
		if d, dc := derivations(st), derivations(cl); d != int64(n) || dc != 0 {
			t.Errorf("%s: re-reading and cloning derived %d+%d more zone maps, want 0", name, d-int64(n), dc)
		}
		for _, c := range [][]int64{{150, 150}, {150, 151}, {151, 150}} {
			if err := cl.Set(c, 0, value.NewFloat(-1)); err != nil {
				t.Fatal(err)
			}
		}
		stats := cl.(array.StatsProvider).ChunkStats(1)
		if d := derivations(cl); d != 1 {
			t.Errorf("%s: after writes into one chunk, %d of %d zone maps re-derived, want 1", name, d, n)
		}
		found := false
		for _, cs := range stats {
			found = found || cs.Attrs[0].Min.AsFloat() == -1
		}
		if !found {
			t.Errorf("%s: no chunk's zone map shows the written minimum", name)
		}
		sp.ChunkStats(1)
		if d := derivations(st); d != int64(n) {
			t.Errorf("%s: the clone's writes made the source re-derive %d zone maps", name, d-int64(n))
		}
	}
}

// TestChunkZoneMapsMatchBruteForce drives multi-chunk stores through
// inserts, updates and NULL punches on both attributes, checking after
// each phase that every chunk's zone map equals the brute-force
// recompute, on a clone as well as its source.
func TestChunkZoneMapsMatchBruteForce(t *testing.T) {
	sch := bigSchema()
	for name, st := range chunkedSchemes(t) {
		assertStatsFresh(t, name, st, sch, "defaults")
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 300; i++ {
			c := []int64{rng.Int63n(bigN), rng.Int63n(bigN)}
			if err := st.Set(c, 1, value.NewInt(rng.Int63n(1000)-500)); err != nil {
				t.Fatal(err)
			}
		}
		apply(t, st, randomWrites(6, 300))
		assertStatsFresh(t, name, st, sch, "mixed writes")
		cl := st.Clone()
		// Punch whole rows, emptying some chunks' bounding boxes at the
		// edges, and move the extremes.
		for y := int64(0); y < bigN; y++ {
			for _, x := range []int64{0, 1, 100} {
				for ai, typ := range []value.Type{value.Float, value.Int} {
					if err := cl.Set([]int64{x, y}, ai, value.NewNull(typ)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := cl.Set([]int64{bigN - 1, bigN - 1}, 0, value.NewFloat(math.Inf(1))); err != nil {
			t.Fatal(err)
		}
		assertStatsFresh(t, name, cl, sch, "clone punched")
		assertStatsFresh(t, name, st, sch, "source after clone punched")
	}
}

// chunkImage copies the raw words of every chunk a store holds.
func chunkImage(st array.Store) map[*chunk][][]uint64 {
	var chunks []*chunk
	switch s := st.(type) {
	case *linearStore:
		chunks = s.chunks
	case *slabStore:
		for _, c := range s.blocks {
			chunks = append(chunks, c)
		}
	}
	out := make(map[*chunk][][]uint64, len(chunks))
	for _, c := range chunks {
		var img [][]uint64
		for _, col := range c.cols {
			words := append([]uint64(nil), col.valid...)
			for _, f := range col.f {
				words = append(words, math.Float64bits(f))
			}
			for _, i := range col.i {
				words = append(words, uint64(i))
			}
			img = append(img, words)
		}
		out[c] = img
	}
	return out
}

func sameImage(t *testing.T, what string, got, want map[*chunk][][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", what, len(got), len(want))
	}
	for c, w := range want {
		g, ok := got[c]
		if !ok {
			t.Fatalf("%s: a chunk was replaced", what)
		}
		for ci := range w {
			for i := range w[ci] {
				if g[ci][i] != w[ci][i] {
					t.Fatalf("%s: column %d word %d changed", what, ci, i)
				}
			}
		}
	}
}

// TestChunkSavepointRollback runs a transaction whose second statement
// fails after writing many chunks and rolls back to its savepoint: the
// committed base snapshot's chunks must stay bit-identical throughout,
// and the transaction keeps only its first statement's writes.
func TestChunkSavepointRollback(t *testing.T) {
	for _, scheme := range []string{SchemeVirtual, SchemeDOrder, SchemeSlab} {
		st, err := NewScheme(scheme, bigSchema(), Hints{})
		if err != nil {
			t.Fatal(err)
		}
		cat := catalog.New()
		if err := cat.PutArray(&array.Array{Name: "m", Schema: bigSchema(), Store: st}); err != nil {
			t.Fatal(err)
		}
		baseArr, _ := cat.Array("m")
		base := contents(baseArr.Store)
		img := chunkImage(baseArr.Store)

		m := cat.BeginTx()
		write := func(ws []cellWrite) {
			a, ok := m.ArrayForWrite("m")
			if !ok {
				t.Fatal("array missing in mutation")
			}
			apply(t, a.Store, ws)
		}
		stmt1, stmt2, stmt3 := randomWrites(21, 50), randomWrites(22, 500), randomWrites(23, 50)
		m.Savepoint()
		write(stmt1)
		sp := m.Savepoint()
		write(stmt2)
		m.RollbackTo(sp)
		sameImage(t, scheme+" base after rollback", chunkImage(baseArr.Store), img)
		view, _ := m.View().Array("m")
		sameContents(t, scheme+" view after rollback", contents(view.Store), expected(base, stmt1))
		m.Savepoint()
		write(stmt3)
		if err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		sameImage(t, scheme+" base after commit", chunkImage(baseArr.Store), img)
		sameContents(t, scheme+" base contents", contents(baseArr.Store), base)
		cur, _ := cat.Array("m")
		sameContents(t, scheme+" committed", contents(cur.Store), expected(expected(base, stmt1), stmt3))
	}
}
