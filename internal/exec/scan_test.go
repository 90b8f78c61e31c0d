package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// --- intersectSel -----------------------------------------------------------

func rng(lo, hi, step int64) dimSel { return dimSel{lo: lo, hi: hi, step: step} }
func pt(v int64) dimSel             { return dimSel{point: true, val: v} }
func fullSel() dimSel               { return dimSel{full: true} }
func selValues(s dimSel, n int64) []int64 {
	var out []int64
	for v := int64(0); v < n; v++ {
		if selContains(s, v) {
			out = append(out, v)
		}
	}
	return out
}

// TestIntersectSel pins the corrected intersection semantics: disjoint
// operands yield an empty selection (a point outside the other range
// used to survive as the point), and stepped ranges intersect
// phase-aware with an lcm stride.
func TestIntersectSel(t *testing.T) {
	cases := []struct {
		name string
		a, b dimSel
		want []int64 // admitted values in [0, 24)
	}{
		{"point-in-range", pt(3), rng(0, 5, 1), []int64{3}},
		{"point-outside-range", pt(10), rng(0, 5, 1), nil}, // the ISSUE example
		{"range-then-point-outside", rng(0, 5, 1), pt(10), nil},
		{"point-off-stride", pt(4), rng(0, 10, 3), nil},
		{"point-on-stride", pt(6), rng(0, 10, 3), []int64{6}},
		{"equal-points", pt(7), pt(7), []int64{7}},
		{"distinct-points", pt(7), pt(8), nil},
		{"full-left", fullSel(), rng(2, 6, 1), []int64{2, 3, 4, 5}},
		{"full-right", rng(2, 6, 1), fullSel(), []int64{2, 3, 4, 5}},
		{"plain-overlap", rng(0, 10, 1), rng(5, 20, 1), []int64{5, 6, 7, 8, 9}},
		{"disjoint-ranges", rng(0, 5, 1), rng(10, 20, 1), nil},
		{"stride-meets-bound", rng(0, 24, 3), rng(4, 24, 1), []int64{6, 9, 12, 15, 18, 21}},
		{"strides-coprime", rng(0, 24, 3), rng(0, 24, 2), []int64{0, 6, 12, 18}},
		{"strides-never-meet", rng(0, 24, 2), rng(1, 24, 2), nil},
		{"strides-offset-meet", rng(1, 24, 4), rng(3, 24, 2), []int64{5, 9, 13, 17, 21}},
	}
	for _, tc := range cases {
		got := intersectSel(tc.a, tc.b)
		gotVals := selValues(got, 24)
		// The intersection must admit exactly the values both admit.
		var want []int64
		for v := int64(0); v < 24; v++ {
			if selContains(tc.a, v) && selContains(tc.b, v) {
				want = append(want, v)
			}
		}
		if fmt.Sprint(want) != fmt.Sprint(tc.want) {
			t.Fatalf("%s: test case is inconsistent: operands admit %v, case says %v", tc.name, want, tc.want)
		}
		if fmt.Sprint(gotVals) != fmt.Sprint(tc.want) {
			t.Errorf("%s: intersect admits %v, want %v (sel %+v)", tc.name, gotVals, tc.want, got)
		}
		if tc.want == nil && !selEmpty(got) && !got.point {
			t.Errorf("%s: disjoint intersection not provably empty: %+v", tc.name, got)
		}
	}
}

// TestSelContainsStride pins the scan-side matcher: [lo:hi:step]
// admits lo, lo+step, ... and full never rejects.
func TestSelContainsStride(t *testing.T) {
	s := rng(2, 12, 3)
	for v, want := range map[int64]bool{1: false, 2: true, 3: false, 5: true, 8: true, 11: true, 12: false, 14: false} {
		if got := selContains(s, v); got != want {
			t.Errorf("[2:12:3] contains %d = %v, want %v", v, got, want)
		}
	}
	if !selContains(fullSel(), -1000) {
		t.Error("full selection rejected a value")
	}
	sparse := dimSel{lo: 0, hi: 10, step: 4, sparse: true}
	if !selContains(sparse, 3) {
		t.Error("sparse range must ignore stride")
	}
}

// --- stepped FROM-clause slicing -------------------------------------------

func mustExecSQL(t *testing.T, e *Engine, sql string) *Dataset {
	t.Helper()
	stmts, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var last *Dataset
	for _, s := range stmts {
		ds, err := e.Exec(s, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		last = ds
	}
	return last
}

// TestSteppedFromSlice is the headline regression: SELECT x FROM
// A[0:10:3] must return exactly the stepped coordinates {0,3,6,9} —
// the same rows the identical slice yields in expression position —
// at parallelism 1 and 4.
func TestSteppedFromSlice(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := New()
		e.SetParallelism(par)
		mustExecSQL(t, e, `CREATE ARRAY a (x INTEGER DIMENSION[10], v FLOAT DEFAULT 0.0)`)
		mustExecSQL(t, e, `UPDATE a SET v = x * 1.0`)
		from := mustExecSQL(t, e, `SELECT x FROM a[0:10:3]`)
		var got []string
		for r := 0; r < from.NumRows(); r++ {
			got = append(got, from.Get(r, 0).String())
		}
		if strings.Join(got, ",") != "0,3,6,9" {
			t.Fatalf("par=%d: FROM a[0:10:3] returned x = %v, want 0,3,6,9", par, got)
		}
		// Expression position lists the same cells.
		expr := mustExecSQL(t, e, `SELECT a[0:10:3]`)
		if expr.NumRows() != from.NumRows() {
			t.Fatalf("par=%d: expression slice has %d rows, FROM slice %d", par, expr.NumRows(), from.NumRows())
		}
		for r := 0; r < expr.NumRows(); r++ {
			if expr.Get(r, 0).String() != got[r] {
				t.Fatalf("par=%d row %d: expression slice x=%s, FROM slice x=%s",
					par, r, expr.Get(r, 0).String(), got[r])
			}
		}
	}
}

// TestSteppedSliceIntersectsPushdown: a WHERE range on a stepped FROM
// slice must keep the slice's stride (intersection, not overwrite).
func TestSteppedSliceIntersectsPushdown(t *testing.T) {
	e := New()
	mustExecSQL(t, e, `CREATE ARRAY a (x INTEGER DIMENSION[20], v FLOAT DEFAULT 0.0)`)
	mustExecSQL(t, e, `UPDATE a SET v = x * 1.0`)
	// Slice admits 0,3,6,9,12,15,18; WHERE narrows to [5, 16).
	ds := mustExecSQL(t, e, `SELECT x FROM a[0:20:3] WHERE x >= 5 AND x < 16`)
	var got []string
	for r := 0; r < ds.NumRows(); r++ {
		got = append(got, ds.Get(r, 0).String())
	}
	if strings.Join(got, ",") != "6,9,12,15" {
		t.Fatalf("stepped slice ∩ range returned %v, want 6,9,12,15", got)
	}
}

// TestImplicitRangeOnSteppedGrid: a plain [lo:hi] slice on a dimension
// with its own grid step is a pure range — it must admit the grid's
// cells inside [lo, hi) even when lo is off the grid phase, matching
// the equivalent WHERE range and expression-position slicing. Only an
// explicit [lo:hi:step] anchors a stride at lo.
func TestImplicitRangeOnSteppedGrid(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := New()
		e.SetParallelism(par)
		mustExecSQL(t, e, `CREATE ARRAY g (x INTEGER DIMENSION[0:8:2], v FLOAT DEFAULT 1.0)`)
		collect := func(sql string, col int) string {
			ds := mustExecSQL(t, e, sql)
			var xs []string
			for r := 0; r < ds.NumRows(); r++ {
				xs = append(xs, ds.Get(r, col).String())
			}
			return strings.Join(xs, ",")
		}
		if got := collect(`SELECT x FROM g[1:8]`, 0); got != "2,4,6" {
			t.Fatalf("par=%d: FROM g[1:8] on grid 0,2,4,6 returned x = %q, want 2,4,6", par, got)
		}
		if got := collect(`SELECT x FROM g WHERE x >= 1 AND x < 8`, 0); got != "2,4,6" {
			t.Fatalf("par=%d: WHERE range returned x = %q, want 2,4,6", par, got)
		}
		if got := collect(`SELECT g[1:8]`, 0); got != "2,4,6" {
			t.Fatalf("par=%d: expression g[1:8] listed x = %q, want 2,4,6", par, got)
		}
		// Explicit off-grid stride selects nothing — on every surface.
		if got := collect(`SELECT x FROM g[1:8:2]`, 0); got != "" {
			t.Fatalf("par=%d: FROM g[1:8:2] (off-grid stride) returned %q, want empty", par, got)
		}
		// On-grid explicit stride keeps its lo anchor.
		if got := collect(`SELECT x FROM g[2:8:4]`, 0); got != "2,6" {
			t.Fatalf("par=%d: FROM g[2:8:4] returned %q, want 2,6", par, got)
		}
	}
}

// TestDisjointSliceAndPredicate: a slice and a contradicting pushed
// predicate must yield zero rows (and take the provably-empty short
// circuit rather than scanning).
func TestDisjointSliceAndPredicate(t *testing.T) {
	e := New()
	mustExecSQL(t, e, `CREATE ARRAY a (x INTEGER DIMENSION[20], v FLOAT DEFAULT 0.0)`)
	for _, q := range []string{
		`SELECT x FROM a[0:5] WHERE x = 10`,
		`SELECT x FROM a[0:5] WHERE x >= 7 AND x < 12`,
		`SELECT x FROM a[0:20:2] WHERE x = 11`,
	} {
		if ds := mustExecSQL(t, e, q); ds.NumRows() != 0 {
			t.Fatalf("%s returned %d rows, want 0:\n%s", q, ds.NumRows(), ds)
		}
	}
	if !effProvablyEmpty([]dimSel{rng(0, 10, 1), emptySel()}) {
		t.Fatal("effProvablyEmpty missed an empty selection")
	}
	if effProvablyEmpty([]dimSel{rng(0, 10, 1), fullSel()}) {
		t.Fatal("effProvablyEmpty false-positived on a live selection")
	}
}

// --- runtime projection pruning --------------------------------------------

// TestSelectDecisionPrunesScans checks the optimizer's pruned
// projection reaches the runtime decision, and that a * query keeps
// everything.
func TestSelectDecisionPrunesScans(t *testing.T) {
	e := New()
	mustExecSQL(t, e, `CREATE ARRAY m (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4],
		a FLOAT DEFAULT 0.0, b FLOAT DEFAULT 0.0, c FLOAT DEFAULT 0.0)`)
	arr, _ := e.Cat.Array("m")
	sel := func(sql string) *ast.Select {
		stmt, err := parser.ParseOne(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*ast.Select)
	}
	dec := e.selectDecision(sel(`SELECT x, b FROM m WHERE a > 1`))
	if got := fmt.Sprint(dec.scanAttrs(arr, "m")); got != "[0 1]" {
		t.Fatalf("pruned attrs = %s, want [0 1] (a, b kept; c dropped)", got)
	}
	dec = e.selectDecision(sel(`SELECT * FROM m`))
	if dec.scanAttrs(arr, "m") != nil {
		t.Fatalf("star query pruned the scan: %v", dec.scanAttrs(arr, "m"))
	}
	dec = e.selectDecision(sel(`SELECT x FROM m`))
	if got := dec.scanAttrs(arr, "m"); got == nil || len(got) != 0 {
		t.Fatalf("dims-only query should prune every attribute, got %v", got)
	}
}

// TestEnvArrayShadowingCatalogNotPruned: inside a PSM body, a FROM
// name can bind to an array parameter that shadows a catalog array of
// the same name but a different schema. The pruned projection was
// planned against the catalog schema, so it must not apply to the
// environment-bound array — pruning there could drop an attribute the
// body references (w below, absent from the catalog array).
func TestEnvArrayShadowingCatalogNotPruned(t *testing.T) {
	e := New()
	mustExecSQL(t, e, `CREATE ARRAY m (x INTEGER DIMENSION[4], v FLOAT DEFAULT 1.0, z FLOAT DEFAULT 2.0)`)
	mustExecSQL(t, e, `CREATE ARRAY src (x INTEGER DIMENSION[4], v FLOAT DEFAULT 3.0, w FLOAT DEFAULT 7.0)`)
	mustExecSQL(t, e, `
		CREATE FUNCTION pick (m ARRAY (x INTEGER DIMENSION, v FLOAT, w FLOAT))
		RETURNS FLOAT
		BEGIN RETURN SELECT SUM(v + w) FROM m; END;
	`)
	ds := mustExecSQL(t, e, `SELECT pick(src[*])`)
	if got := ds.Get(0, 0).AsFloat(); got != 40 {
		t.Fatalf("pick(src) = %v, want 40 (4 cells of v=3 + w=7)", got)
	}
}

// TestPrunedScanKeepsMixedHoleRows: a cell whose selected attribute is
// NULL but whose unselected attribute is set is live — pruning must
// not turn it into a hole.
func TestPrunedScanKeepsMixedHoleRows(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := New()
		e.SetParallelism(par)
		mustExecSQL(t, e, `CREATE ARRAY m (x INTEGER DIMENSION[4], a FLOAT, b FLOAT)`)
		// Only b is set at x=2: the cell is live, a reads NULL.
		mustExecSQL(t, e, `UPDATE m SET b = 5.0 WHERE x = 2`)
		ds := mustExecSQL(t, e, `SELECT x, a FROM m`)
		if ds.NumRows() != 1 {
			t.Fatalf("par=%d: pruned scan returned %d rows, want 1:\n%s", par, ds.NumRows(), ds)
		}
		if got := ds.Get(0, 0).AsInt(); got != 2 {
			t.Fatalf("par=%d: row at x=%d, want 2", par, got)
		}
		if !ds.Get(0, 1).Null {
			t.Fatalf("par=%d: pruned NULL attribute read as %v", par, ds.Get(0, 1))
		}
		// The one-cell direct read judges liveness on every attribute
		// too: x=2 is live with a NULL, x=1 is a hole.
		ds = mustExecSQL(t, e, `SELECT a FROM m WHERE x = 2`)
		if ds.NumRows() != 1 || !ds.Get(0, 0).Null {
			t.Fatalf("par=%d: point read of the live cell = %s, want one NULL row", par, ds)
		}
		if ds = mustExecSQL(t, e, `SELECT a FROM m WHERE x = 1`); ds.NumRows() != 0 {
			t.Fatalf("par=%d: point read of a hole returned %d rows:\n%s", par, ds.NumRows(), ds)
		}
	}
}
