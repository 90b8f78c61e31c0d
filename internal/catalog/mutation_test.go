package catalog

import (
	"errors"
	"testing"

	"repro/internal/array"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/value"
)

func testArray(t *testing.T, name string) *array.Array {
	t.Helper()
	sch := array.Schema{
		Dims:  []array.Dimension{{Name: "x", Typ: value.Int, Start: 0, End: 4, Step: 1}},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewNull(value.Float)}},
	}
	st, err := storage.New(sch, storage.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	return &array.Array{Name: name, Schema: sch, Store: st}
}

// TestSnapshotIsolatesReads pins the core MVCC property: a snapshot
// taken before a commit keeps serving the old version.
func TestSnapshotIsolatesReads(t *testing.T) {
	c := New()
	if err := c.PutArray(testArray(t, "a")); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()

	m := c.BeginTx()
	w, ok := m.ArrayForWrite("a")
	if !ok {
		t.Fatal("array missing in mutation view")
	}
	if err := w.Set([]int64{1}, 0, value.NewFloat(7)); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes are invisible outside the mutation.
	cur, _ := c.Array("a")
	if got := cur.Get([]int64{1}, 0); !got.Null {
		t.Fatalf("uncommitted write visible: %v", got)
	}
	// The mutation's own view sees them.
	mv, _ := m.View().Array("a")
	if got := mv.Get([]int64{1}, 0); got.Null || got.F != 7 {
		t.Fatalf("mutation view = %v, want 7", got)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed version is live; the pinned snapshot still serves the
	// old one.
	cur, _ = c.Array("a")
	if got := cur.Get([]int64{1}, 0); got.Null || got.F != 7 {
		t.Fatalf("committed write lost: %v", got)
	}
	old, _ := before.Array("a")
	if got := old.Get([]int64{1}, 0); !got.Null {
		t.Fatalf("pinned snapshot observed the commit: %v", got)
	}
	if before.Version() == c.Version() {
		t.Fatal("commit did not bump the catalog version")
	}
}

// TestFirstCommitterWins pins the conflict rule: two transactions
// writing the same array — the second Commit fails with ErrConflict.
func TestFirstCommitterWins(t *testing.T) {
	c := New()
	if err := c.PutArray(testArray(t, "a")); err != nil {
		t.Fatal(err)
	}
	m1 := c.BeginTx()
	m2 := c.BeginTx()
	w1, _ := m1.ArrayForWrite("a")
	w2, _ := m2.ArrayForWrite("a")
	_ = w1.Set([]int64{0}, 0, value.NewFloat(1))
	_ = w2.Set([]int64{0}, 0, value.NewFloat(2))
	if err := m1.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	if err := m2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer error = %v, want ErrConflict", err)
	}
	// The winner's write survives.
	a, _ := c.Array("a")
	if got := a.Get([]int64{0}, 0); got.F != 1 {
		t.Fatalf("surviving value = %v, want 1", got)
	}
}

// TestDisjointTransactionsRebase pins the other half of the rule:
// transactions writing different objects both commit, even when the
// root moved under the later one.
func TestDisjointTransactionsRebase(t *testing.T) {
	c := New()
	if err := c.PutArray(testArray(t, "a")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutArray(testArray(t, "b")); err != nil {
		t.Fatal(err)
	}
	m1 := c.BeginTx()
	m2 := c.BeginTx()
	w1, _ := m1.ArrayForWrite("a")
	w2, _ := m2.ArrayForWrite("b")
	_ = w1.Set([]int64{0}, 0, value.NewFloat(1))
	_ = w2.Set([]int64{2}, 0, value.NewFloat(2))
	if err := m1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Commit(); err != nil {
		t.Fatalf("disjoint commit rebased onto the new root should succeed: %v", err)
	}
	a, _ := c.Array("a")
	b, _ := c.Array("b")
	if a.Get([]int64{0}, 0).F != 1 || b.Get([]int64{2}, 0).F != 2 {
		t.Fatal("one of the disjoint commits was lost")
	}
}

// TestCreateSameNameConflicts: both transactions CREATE the same
// name; the later committer conflicts instead of silently replacing.
func TestCreateSameNameConflicts(t *testing.T) {
	c := New()
	m1 := c.BeginTx()
	m2 := c.BeginTx()
	if err := m1.PutArray(testArray(t, "fresh")); err != nil {
		t.Fatal(err)
	}
	if err := m2.PutArray(testArray(t, "fresh")); err != nil {
		t.Fatal(err) // base snapshot had no such name: allowed until commit
	}
	if err := m1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second CREATE commit error = %v, want ErrConflict", err)
	}
}

// TestDropInTransaction: a drop is invisible until commit and
// conflicts with a concurrent write of the dropped object.
func TestDropInTransaction(t *testing.T) {
	c := New()
	if err := c.PutArray(testArray(t, "a")); err != nil {
		t.Fatal(err)
	}
	m1 := c.BeginTx()
	if err := m1.Drop("ARRAY", "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m1.View().Array("a"); ok {
		t.Fatal("drop not visible in the mutation view")
	}
	if _, ok := c.Array("a"); !ok {
		t.Fatal("uncommitted drop leaked")
	}
	m2 := c.BeginTx()
	w, _ := m2.ArrayForWrite("a")
	_ = w.Set([]int64{0}, 0, value.NewFloat(9))
	if err := m1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Array("a"); ok {
		t.Fatal("committed drop did not remove the array")
	}
	if err := m2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("write to concurrently dropped array: err = %v, want ErrConflict", err)
	}
}

// TestAbortDiscards: an aborted mutation leaves no trace.
func TestAbortDiscards(t *testing.T) {
	c := New()
	m := c.BeginExclusive()
	if err := m.PutArray(testArray(t, "tmp")); err != nil {
		t.Fatal(err)
	}
	m.Abort()
	if _, ok := c.Array("tmp"); ok {
		t.Fatal("aborted exclusive mutation published")
	}
	// The writer lock was released: the next writer proceeds.
	if err := c.PutArray(testArray(t, "tmp")); err != nil {
		t.Fatal(err)
	}
}

// TestTableCloneIsDeep guards the copy-on-write contract for tables.
func TestTableCloneIsDeep(t *testing.T) {
	tbl := NewTable("t", []TableColumn{{Name: "a", Typ: value.Int}})
	if err := tbl.Append([]value.Value{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	cl := tbl.Clone()
	if err := cl.Append([]value.Value{value.NewInt(2)}); err != nil {
		t.Fatal(err)
	}
	cl.Vecs[0].Set(0, value.NewInt(99))
	if tbl.NumRows() != 1 || tbl.Vecs[0].Get(0).I != 1 {
		t.Fatalf("clone mutation leaked into the original: rows=%d v0=%v", tbl.NumRows(), tbl.Vecs[0].Get(0))
	}
}

// TestSchemaVersionIgnoresDataWrites: plan caches stamp against
// SchemaVersion, which must move on DDL and stay put on DML — a DML
// commit must not evict every session's memoized plans.
func TestSchemaVersionIgnoresDataWrites(t *testing.T) {
	c := New()
	if err := c.PutArray(testArray(t, "a")); err != nil {
		t.Fatal(err)
	}
	sv := c.Snapshot().SchemaVersion()
	// Data write: full version moves, schema version doesn't.
	m := c.BeginExclusive()
	w, _ := m.ArrayForWrite("a")
	_ = w.Set([]int64{0}, 0, value.NewFloat(1))
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().SchemaVersion(); got != sv {
		t.Fatalf("DML moved the schema version: %d -> %d", sv, got)
	}
	if c.Snapshot().Version() == sv {
		t.Fatal("DML did not move the data version")
	}
	// Schema write moves it.
	if err := c.Drop("ARRAY", "a"); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().SchemaVersion(); got == sv {
		t.Fatal("DDL did not move the schema version")
	}
}

// TestCloneBytesCountChunkCopies: privatizing a dense array copies
// nothing up front, and each write copies the one chunk it lands in,
// which is what the clone-bytes counter reports.
func TestCloneBytesCountChunkCopies(t *testing.T) {
	sch := array.Schema{
		Dims: []array.Dimension{
			{Name: "x", Typ: value.Int, Start: 0, End: 1024, Step: 1},
			{Name: "y", Typ: value.Int, Start: 0, End: 1024, Step: 1},
		},
		Attrs: []array.Attr{{Name: "v", Typ: value.Float, Default: value.NewFloat(0)}},
	}
	st, err := storage.New(sch, storage.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	reg := telemetry.NewRegistry()
	clones, bytes := reg.Counter("clones"), reg.Counter("bytes")
	c.SetMetrics(clones, bytes)
	if err := c.PutArray(&array.Array{Name: "m", Schema: sch, Store: st}); err != nil {
		t.Fatal(err)
	}
	// One 4096-cell chunk of a FLOAT column: the values and the
	// validity words.
	const chunkBytes = 4096*8 + 4096/8
	m := c.BeginExclusive()
	w, _ := m.ArrayForWrite("m")
	if got := bytes.Value(); got != 0 {
		t.Fatalf("clone copied %d bytes before any write", got)
	}
	for _, xy := range [][]int64{{5, 5}, {5, 6}, {900, 3}} {
		if err := w.Set(xy, 0, value.NewFloat(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if clones.Value() != 1 || bytes.Value() != 2*chunkBytes {
		t.Fatalf("clones=%d bytes=%d, want 1 clone and two chunks (%d bytes)", clones.Value(), bytes.Value(), 2*chunkBytes)
	}
}
