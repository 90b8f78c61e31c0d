package sciql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/value"
)

// vectorQuerySet stresses exactly the semantics the kernel surface
// must reproduce bit-for-bit: SQL NULL three-valued logic, division
// and modulo by zero yielding NULL, mixed int/float promotion,
// BETWEEN/IN lowering, numeric builtins, hybrid projections where only
// some items compile, LIMIT pushed into the scan, and fallback shapes.
var vectorQuerySet = []string{
	// Arithmetic + comparison filters over int and float columns.
	`SELECT x, y, v FROM nmatrix WHERE MOD(x * 31 + y, 7) < 3 AND v > 10 ORDER BY x, y`,
	`SELECT x + v AS a, x * 2 AS b, v * 2 AS c, x / 4 AS d, v / 4 AS e FROM nmatrix WHERE x < 8 ORDER BY x, y`,
	// Division and modulo by zero produce NULLs (int and float paths).
	`SELECT x, v / (x - 5) AS d, MOD(y, x - 5) AS m FROM nmatrix WHERE y = 0 ORDER BY x`,
	`SELECT x, 100 / x AS a, 100.5 / x AS b FROM nmatrix WHERE y = 1 ORDER BY x`,
	// Three-valued logic over NULL-bearing columns.
	`SELECT x, y FROM nmatrix WHERE w > 100 OR n < 0 ORDER BY x, y`,
	`SELECT x, y FROM nmatrix WHERE NOT (w > 100) ORDER BY x, y`,
	`SELECT x, y, w FROM nmatrix WHERE w IS NULL AND v > 200 ORDER BY x, y`,
	`SELECT x, y, n FROM nmatrix WHERE n IS NOT NULL AND v > 50 ORDER BY x, y`,
	// NULL-bearing columns in the projection.
	`SELECT w, n, w + n AS s, w * 2 AS d FROM nmatrix WHERE v > 400 ORDER BY x, y`,
	// BETWEEN / IN over constants (including negated forms).
	`SELECT x, y FROM nmatrix WHERE x BETWEEN 3 AND 9 AND y NOT BETWEEN 2 AND 29 ORDER BY x, y`,
	`SELECT x, y FROM nmatrix WHERE y IN (1, 4, 7) AND x NOT IN (0, 2) ORDER BY x, y`,
	`SELECT x, w FROM nmatrix WHERE w BETWEEN 10 AND 40 ORDER BY x, y`,
	// Numeric builtins.
	`SELECT SQRT(v) AS r, ABS(x - 16) AS a, POWER(v, 0.5) AS p FROM nmatrix WHERE FLOOR(v / 100) = 3 ORDER BY x, y`,
	`SELECT -x AS nx, -v AS nv FROM nmatrix WHERE -x < -28 ORDER BY x, y`,
	// Hybrid projection: CASE falls back per item, the rest vectorize.
	`SELECT x, CASE WHEN v > 100 THEN 1 ELSE 0 END AS c, v + 1 AS p FROM nmatrix WHERE v > 50 ORDER BY x, y`,
	// Value grouping with vectorized keys and aggregate arguments;
	// aggregates skip NULLs.
	`SELECT MOD(x, 5) AS k, COUNT(*), AVG(v), SUM(w), MIN(n), MAX(v) FROM nmatrix WHERE MOD(x + y, 2) = 0 GROUP BY MOD(x, 5) ORDER BY k`,
	`SELECT COUNT(w), COUNT(n), SUM(n) FROM nmatrix`,
	// LIMIT pushdown (with and without a residual filter).
	`SELECT x, y FROM nmatrix WHERE v > 10 LIMIT 7`,
	`SELECT x, y, v FROM nmatrix LIMIT 5`,
	`SELECT x, y FROM nmatrix WHERE v > 10 LIMIT 0`,
	// HAVING without aggregates (the paper's gap-query shape).
	`SELECT x, y FROM nmatrix WHERE x < 20 HAVING y < 5 ORDER BY x, y`,
	// Stepped FROM slicing composed with the batch pipeline.
	`SELECT x, y, v FROM nmatrix[0:32:4][*] WHERE v > 30 ORDER BY x, y`,
	// String fallback (|| is outside the kernel surface).
	`SELECT x || '-' || y AS tag FROM nmatrix WHERE x < 2 ORDER BY x, y`,
}

// setupVectorDB builds a 32x32 array whose w and n columns are NULL on
// most cells, so NULL semantics are exercised on live rows (v is
// always set, keeping every cell live).
func setupVectorDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE ARRAY nmatrix (x INTEGER DIMENSION[32], y INTEGER DIMENSION[32], v FLOAT DEFAULT 0.0, w FLOAT, n INTEGER);
		UPDATE nmatrix SET v = x * 31 + y;
		UPDATE nmatrix SET w = v / 2 WHERE MOD(x + y, 3) = 0;
		UPDATE nmatrix SET n = x - y WHERE x > 10;
	`)
	return db
}

// TestVectorizedMatchesInterpreted is the identity suite of the
// vectorized engine: every query runs with vectorization forced off
// and forced on, at parallelism 1 and 4, through both the cursor
// (Query) and the materializing (Exec) paths, and every combination
// must render byte-identically to the interpreted serial reference.
// Run under -race in CI, this also vets the kernel paths for data
// races.
func TestVectorizedMatchesInterpreted(t *testing.T) {
	db := setupVectorDB(t)
	for _, q := range vectorQuerySet {
		db.Vectorize(false)
		db.Parallelism(1)
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		for _, vec := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				db.Vectorize(vec)
				db.Parallelism(par)
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("vec=%v par=%d %s: %v", vec, par, q, err)
				}
				if got.String() != want.String() {
					t.Errorf("Query vec=%v par=%d differs for %s:\ngot:\n%s\nwant:\n%s",
						vec, par, q, got.String(), want.String())
				}
				exec, err := db.Exec(q)
				if err != nil {
					t.Fatalf("exec vec=%v par=%d %s: %v", vec, par, q, err)
				}
				if exec.String() != want.String() {
					t.Errorf("Exec vec=%v par=%d differs for %s:\ngot:\n%s\nwant:\n%s",
						vec, par, q, exec.String(), want.String())
				}
			}
		}
	}
}

// TestVectorizedParallelSuite re-runs the morsel-driven executor's
// whole query set with vectorization forced on and off at several
// widths — the walkthrough-shaped coverage of the identity contract.
func TestVectorizedParallelSuite(t *testing.T) {
	db := setupParallelDB(t)
	for _, q := range parallelQuerySet {
		db.Vectorize(false)
		db.Parallelism(1)
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		for _, vec := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				db.Vectorize(vec)
				db.Parallelism(par)
				got, err := db.Query(q)
				if err != nil {
					t.Fatalf("vec=%v par=%d %s: %v", vec, par, q, err)
				}
				if got.String() != want.String() {
					t.Errorf("vec=%v par=%d differs for %s:\ngot:\n%s\nwant:\n%s",
						vec, par, q, got.String(), want.String())
				}
			}
		}
	}
}

// TestVectorizedRowsCursor checks the incremental cursor view of the
// vectorized pipeline: rows pulled one at a time equal the
// materialized result, and early Close is safe.
func TestVectorizedRowsCursor(t *testing.T) {
	db := setupVectorDB(t)
	const q = `SELECT x, y, v + 1 AS p FROM nmatrix WHERE MOD(x + y, 5) = 0`
	want := db.MustQuery(q)
	rows, err := db.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	r := 0
	for rows.Next() {
		vals := rows.Values()
		for c, v := range vals {
			if wv := want.Get(r, c); wv.String() != v.String() {
				t.Fatalf("row %d col %d: got %s want %s", r, c, v, wv)
			}
		}
		r++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if r != want.NumRows() {
		t.Fatalf("cursor yielded %d rows, want %d", r, want.NumRows())
	}
	// Early close mid-stream must not leak or corrupt later queries.
	rows2, err := db.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.Next() {
		t.Fatal("expected at least one row")
	}
	rows2.Close()
	if got := db.MustQuery(q); got.String() != want.String() {
		t.Fatal("query after early close differs")
	}
}

// TestVectorizedLimitPushdown checks LIMIT stops the chunked scan
// early on both the serial and the parallel path, at the exact row
// counts of the full query's prefix.
func TestVectorizedLimitPushdown(t *testing.T) {
	db := Open()
	const n = 128 // 16384 cells: crosses the parallel chunk gate
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY big (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(`UPDATE big SET v = x * 128 + y`)
	const full = `SELECT x, y, v FROM big WHERE MOD(x + y, 3) = 0`
	db.Parallelism(1)
	ref := db.MustQuery(full)
	for _, limit := range []int{1, 7, 100, 5000} {
		q := fmt.Sprintf(`%s LIMIT %d`, full, limit)
		for _, vec := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				db.Vectorize(vec)
				db.Parallelism(par)
				got := db.MustQuery(q)
				wantRows := limit
				if wantRows > ref.NumRows() {
					wantRows = ref.NumRows()
				}
				if got.NumRows() != wantRows {
					t.Fatalf("vec=%v par=%d limit=%d: got %d rows, want %d", vec, par, limit, got.NumRows(), wantRows)
				}
				for r := 0; r < wantRows; r++ {
					for c := 0; c < ref.NumCols(); c++ {
						if got.Get(r, c).String() != ref.Get(r, c).String() {
							t.Fatalf("vec=%v par=%d limit=%d row %d differs", vec, par, limit, r)
						}
					}
				}
			}
		}
	}
	db.Vectorize(true)
}

// TestPerExpressionFallback pins the scan pipeline's per-expression
// fallback: a streamable SELECT whose projection mixes kernel items
// with an interpreted CASE item runs as one batch pipeline, and the
// CASE column — Int-only over the first 4096-cell chunk (x = 0), Float
// over the others — takes one whole-column type at materialization.
// Results are byte-identical under every storage scheme, vectorization
// setting and parallelism, through db.Query and through row-by-row
// iteration (row sets agree across schemes, whose scan orders differ);
// a per-batch promotion would leave Int cells in the materialized
// column and fail the type check.
func TestPerExpressionFallback(t *testing.T) {
	const q = `SELECT x, y, CASE WHEN x = 0 THEN y ELSE v / 2 END AS c, v + 1 AS p FROM f WHERE v > 2`
	const wantRows = 3*4096 - 3
	var rowSet string
	for _, scheme := range []string{"virtual", "tabular", "dorder", "slab"} {
		want := ""
		db := Open()
		db.SetStorageHint("f", scheme, 64)
		db.MustExec(`CREATE ARRAY f (x INTEGER DIMENSION[3], y INTEGER DIMENSION[4096], v FLOAT DEFAULT 0.0)`)
		db.MustExec(`UPDATE f SET v = x * 4096 + y`)
		for _, vec := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				db.Vectorize(vec)
				db.Parallelism(par)
				name := fmt.Sprintf("%s vec=%v par=%d", scheme, vec, par)
				rs, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if rs.NumRows() != wantRows {
					t.Fatalf("%s: %d rows, want %d", name, rs.NumRows(), wantRows)
				}
				if rs.Cols[2].Typ != value.Float {
					t.Fatalf("%s: CASE column typed %v, want FLOAT", name, rs.Cols[2].Typ)
				}
				for r := 0; r < rs.NumRows(); r++ {
					if v := rs.Get(r, 2); v.Typ != value.Float {
						t.Fatalf("%s: row %d of the CASE column is %v %s: promoted per batch, not per column", name, r, v.Typ, v)
					}
				}
				got := rs.String()
				if want == "" {
					want = got
					lines := renderResult(rs)
					sort.Strings(lines)
					if set := strings.Join(lines, "\n"); rowSet == "" {
						rowSet = set
					} else if set != rowSet {
						t.Fatalf("%s: row set differs from the virtual scheme's", name)
					}
				} else if got != want {
					t.Fatalf("%s: db.Query differs from vec=false par=1", name)
				}
				rows, err := db.QueryContext(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				streamed := drainRows(t, rows)
				for r, line := range streamed {
					parts := make([]string, rs.NumCols())
					for c := range parts {
						parts[c] = rs.Get(r, c).String()
					}
					if line != strings.Join(parts, "|") {
						t.Fatalf("%s: streamed row %d = %s, materialized %s", name, r, line, strings.Join(parts, "|"))
					}
				}
				if len(streamed) != wantRows {
					t.Fatalf("%s: streamed %d rows, want %d", name, len(streamed), wantRows)
				}
				if !vec {
					continue
				}
				an, err := db.Query("EXPLAIN ANALYZE " + q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				project := ""
				for r := 0; r < an.NumRows(); r++ {
					if line := an.Get(r, 0).S; strings.Contains(line, "Project") {
						project = line
					}
				}
				if !strings.Contains(project, "[mixed]") {
					t.Fatalf("%s: Project not reported [mixed]:\n%s", name, an)
				}
			}
		}
	}
}
