package sciql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// walkthroughDB builds the paper-walkthrough schema the §3–§5 suite
// queries against.
func walkthroughDB(t testing.TB) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`
		CREATE ARRAY matrix (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		CREATE ARRAY stripes (x INTEGER DIMENSION[4] CHECK(MOD(x,2) = 1), y INTEGER DIMENSION[4], v FLOAT DEFAULT 0.0);
		CREATE ARRAY diagonal (x INTEGER DIMENSION[4], y INTEGER DIMENSION[4] CHECK(x = y), v FLOAT DEFAULT 0.0);
		CREATE ARRAY vmatrix (x INTEGER DIMENSION[-1:5], y INTEGER DIMENSION[-1:5], w FLOAT DEFAULT 0);
		UPDATE stripes SET v = CASE WHEN x>y THEN x + y WHEN x<y THEN x - y ELSE 0 END;
		UPDATE diagonal SET v = x + y;
		UPDATE matrix SET v = x * 4 + y;
		INSERT INTO vmatrix SELECT [y], [x], v FROM matrix;
		CREATE TABLE mtable (x INTEGER, y INTEGER, v FLOAT);
		INSERT INTO mtable SELECT x, y, v FROM matrix;
	`)
	return db
}

// walkthroughQueries is the paper-walkthrough query suite: both
// stream-eligible shapes (scan/filter/project/limit) and fallback
// shapes (aggregation, tiling, ORDER BY, DISTINCT, joins, UNION).
var walkthroughQueries = []string{
	`SELECT x, y, v FROM matrix`,
	`SELECT * FROM matrix`,
	`SELECT x, y, v FROM matrix WHERE v > 5`,
	`SELECT x, y, v FROM matrix WHERE x = 2`,
	`SELECT x, y, v FROM matrix WHERE x >= 1 AND x < 3 AND v > 4`,
	`SELECT x + y AS s, v * 2 FROM matrix WHERE MOD(x, 2) = 0`,
	`SELECT x, y, v FROM matrix WHERE v > ?lo`,
	`SELECT x, v FROM matrix LIMIT 5`,
	`SELECT x, v FROM matrix LIMIT 0`,
	`SELECT matrix.v FROM matrix WHERE matrix.x = 1`,
	`SELECT x, y, v FROM matrix WHERE x = 1 AND x = 2`,
	`SELECT x, y, v FROM matrix[0:4:2][*]`,
	`SELECT x, y FROM matrix[1:4:2][0:4:3]`,
	`SELECT x, w FROM vmatrix[-1:5:3][*] WHERE w > 0`,
	`SELECT count(*) FROM stripes`,
	`SELECT x, AVG(v) FROM matrix GROUP BY x`,
	`SELECT [x], [y], AVG(v) FROM matrix GROUP BY DISTINCT matrix[x:x+2][y:y+2]`,
	`SELECT x, y, AVG(w) FROM vmatrix[0:4][0:4]
	   GROUP BY vmatrix[x][y], vmatrix[x-1][y], vmatrix[x+1][y], vmatrix[x][y-1], vmatrix[x][y+1]`,
	`SELECT x, y, v FROM matrix ORDER BY v DESC LIMIT 3`,
	`SELECT DISTINCT v FROM diagonal`,
	`SELECT m.x, m.v, t.v FROM matrix m JOIN mtable t ON m.x = t.x AND m.y = t.y WHERE m.x < 2`,
	`SELECT x FROM matrix WHERE v > 13 UNION SELECT x FROM matrix WHERE v < 2`,
	`SELECT x, y, v FROM matrix WHERE v > (SELECT AVG(v) FROM matrix)`,
}

var walkthroughArgs = []Arg{Float("lo", 6.5)}

// TestRowsMatchMaterialized checks the satellite identity property:
// Rows iteration produces byte-identical results to the materialized
// interpreter across the walkthrough suite, serially and in parallel.
func TestRowsMatchMaterialized(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			db := walkthroughDB(t)
			db.Parallelism(par)
			for _, q := range walkthroughQueries {
				// Materialized interpreter (no cursor involved).
				mat, err := db.Exec(q, walkthroughArgs...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				// Streaming cursor, drained by hand.
				rows, err := db.QueryContext(context.Background(), q, walkthroughArgs...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				var got []string
				for rows.Next() {
					parts := make([]string, 0, len(rows.Values()))
					for _, v := range rows.Values() {
						parts = append(parts, v.String())
					}
					got = append(got, strings.Join(parts, "|"))
				}
				if err := rows.Err(); err != nil {
					t.Fatalf("%s: rows.Err: %v", q, err)
				}
				rows.Close()
				var want []string
				for r := 0; r < mat.NumRows(); r++ {
					parts := make([]string, 0, mat.NumCols())
					for c := 0; c < mat.NumCols(); c++ {
						parts = append(parts, mat.Get(r, c).String())
					}
					want = append(want, strings.Join(parts, "|"))
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s:\nrows:\n%s\nmaterialized:\n%s", q, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				// The materialized Query view must render identically too.
				rs, err := db.Query(q, walkthroughArgs...)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if rs.String() != mat.String() {
					t.Fatalf("%s: Query view differs from interpreter:\n%s\nvs\n%s", q, rs.String(), mat.String())
				}
			}
		})
	}
}

// TestStreamingIsIncremental pins that eligible queries really stream:
// the first row arrives from an open cursor, not a completed dataset.
func TestStreamingIsIncremental(t *testing.T) {
	db := walkthroughDB(t)
	rows, err := db.QueryContext(context.Background(), `SELECT x, y, v FROM matrix WHERE v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.cur.Streaming() {
		t.Fatal("scan/filter/project query did not take the streaming path")
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	// A point SELECT streams too: its scan is the one-cell direct read.
	const point = `SELECT v FROM matrix WHERE x = 2 AND y = 3`
	pr, err := db.QueryContext(context.Background(), point)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if !pr.cur.Streaming() {
		t.Fatal("point query did not take the streaming path")
	}
	if !pr.Next() || pr.Values()[0].String() != "11" {
		t.Fatalf("point query row = %v (err %v), want 11", pr.Values(), pr.Err())
	}
	an, err := db.Query("EXPLAIN ANALYZE " + point)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(an.String(), " cells=1 ") && !strings.Contains(an.String(), " cells=1)") {
		t.Fatalf("point query EXPLAIN ANALYZE does not report cells=1:\n%s", an)
	}
	// Aggregations fall back to the materialized path, same interface.
	agg, err := db.QueryContext(context.Background(), `SELECT AVG(v) FROM matrix`)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	if agg.cur.Streaming() {
		t.Fatal("aggregate query unexpectedly claims to stream")
	}
}

// bigDB builds a database large enough that queries take measurable
// time, for cancellation tests.
func bigDB(t testing.TB, n int) *DB {
	t.Helper()
	db := Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY big (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(`UPDATE big SET v = x * 31 + y`)
	return db
}

// TestCancelParallelQuery cancels a long parallel aggregation
// mid-flight: the call must return ctx.Err() promptly and leak no
// goroutines (the race detector guards the shutdown path).
func TestCancelParallelQuery(t *testing.T) {
	db := bigDB(t, 256)
	db.Parallelism(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := db.ExecContext(ctx,
				`SELECT MOD(x*31+y, 101), AVG(SQRT(v) * SQRT(v+1) + POWER(v, 0.3)) FROM big GROUP BY MOD(x*31+y, 101)`)
			done <- err
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			// The race between cancel and completion may let a fast run
			// finish; what must never happen is a different error or a
			// hang past the deadline below.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled (or completion), got %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("canceled query did not return within 10s")
		}
	}
	waitForGoroutines(t, before)
}

// TestCancelStreamingQuery cancels an open streaming cursor (parallel
// morsel stream): Next must surface ctx.Err() and the workers must
// wind down.
func TestCancelStreamingQuery(t *testing.T) {
	db := bigDB(t, 200)
	db.Parallelism(4)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT x, y, SQRT(v) FROM big WHERE MOD(x+y, 3) = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() { //nolint:revive // drain until cancellation surfaces
	}
	if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled (or drained), got %v", err)
	}
	rows.Close()
	waitForGoroutines(t, before)
}

// TestCloseStopsStream closes a cursor mid-iteration; the producing
// workers must wind down without draining the query.
func TestCloseStopsStream(t *testing.T) {
	db := bigDB(t, 200)
	db.Parallelism(4)
	before := runtime.NumGoroutine()
	rows, err := db.QueryContext(context.Background(), `SELECT x, y, v FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	rows.Close()
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count settles back to
// (roughly) the baseline, failing the test on a leak.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

// TestPreparedStatements covers Prepare/Stmt: plan once, bind many.
func TestPreparedStatements(t *testing.T) {
	db := walkthroughDB(t)
	st, err := db.Prepare(`SELECT v FROM matrix WHERE x = ?x AND y = ?y`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for x := int64(0); x < 4; x++ {
		rs, err := st.Query(Int("x", x), Int("y", x))
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Get(0, 0).AsFloat(); got != float64(x*4+x) {
			t.Fatalf("v(%d,%d) = %v, want %v", x, x, got, x*4+x)
		}
	}
	// Non-SELECT through a prepared statement.
	up, err := db.Prepare(`UPDATE matrix SET v = v + ?d WHERE x = 0 AND y = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Exec(Float("d", 100)); err != nil {
		t.Fatal(err)
	}
	if got := db.MustQuery(`SELECT v FROM matrix WHERE x = 0 AND y = 0`).Get(0, 0).AsFloat(); got != 100 {
		t.Fatalf("after prepared UPDATE, v = %v", got)
	}
	// Query on a DDL statement must be rejected.
	if _, err := st.ExecContext(context.Background(), Int("x", 0), Int("y", 0)); err != nil {
		t.Fatalf("Exec on a SELECT stmt should work: %v", err)
	}
	bad, err := db.Prepare(`CREATE ARRAY nope (x INTEGER DIMENSION[2], v FLOAT DEFAULT 0.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Query(); err == nil {
		t.Fatal("Query on a DDL statement should error")
	}
}

// TestPlanCacheReusesAST pins the ad-hoc plan cache: identical text
// hits the LRU and reuses the parsed statement, so the engine's
// per-node plan memoization applies across calls.
func TestPlanCacheReusesAST(t *testing.T) {
	db := walkthroughDB(t)
	q := `SELECT v FROM matrix WHERE x = ?x`
	first, err := db.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != second[0] {
		t.Fatal("identical text did not reuse the cached AST")
	}
	db.SetPlanCacheSize(0) // disable
	third, err := db.compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if third[0] == first[0] {
		t.Fatal("disabled cache still returned the cached AST")
	}
	// LRU eviction: capacity 2, three distinct texts.
	db.SetPlanCacheSize(2)
	a, _ := db.compile(`SELECT v FROM matrix WHERE x = 0`)
	db.MustQuery(`SELECT v FROM matrix WHERE x = 1`)
	db.MustQuery(`SELECT v FROM matrix WHERE x = 2`)
	a2, _ := db.compile(`SELECT v FROM matrix WHERE x = 0`)
	if a[0] == a2[0] {
		t.Fatal("expected eviction of the oldest entry at capacity 2")
	}
}

// TestExplainDirectCompile covers the fixed Explain: leading comments
// work, EXPLAIN prefixes are accepted, and multi-statement input is
// rejected instead of executed.
func TestExplainDirectCompile(t *testing.T) {
	db := walkthroughDB(t)
	plan, err := db.Explain(`SELECT x, v FROM matrix WHERE x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan matrix") || !strings.Contains(plan, "x=1 (pushed)") {
		t.Fatalf("unexpected plan:\n%s", plan)
	}
	viaPrefix, err := db.Explain(`EXPLAIN SELECT x, v FROM matrix WHERE x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if viaPrefix != plan {
		t.Fatalf("EXPLAIN-prefixed text rendered differently:\n%s\nvs\n%s", viaPrefix, plan)
	}
	// Multi-statement input must be rejected — and, critically, not
	// executed (the old string-concat implementation ran it).
	if _, err := db.Explain(`SELECT 1; UPDATE matrix SET v = -1`); err == nil {
		t.Fatal("multi-statement Explain should error")
	}
	if got := db.MustQuery(`SELECT v FROM matrix WHERE x = 3 AND y = 3`).Get(0, 0).AsFloat(); got != 15 {
		t.Fatalf("Explain executed its input! v(3,3) = %v", got)
	}
	if _, err := db.Explain(`UPDATE matrix SET v = 0`); err == nil {
		t.Fatal("Explain of non-SELECT should error")
	}
}

// TestConflictingEqualityPushdown is the regression test for the
// shared-pushdown convergence: WHERE x = 1 AND x = 2 must yield zero
// rows (the executor used to let the second equality overwrite the
// first, returning x=2's rows).
func TestConflictingEqualityPushdown(t *testing.T) {
	db := walkthroughDB(t)
	for _, par := range []int{1, 4} {
		db.Parallelism(par)
		rs := db.MustQuery(`SELECT x, y, v FROM matrix WHERE x = 1 AND x = 2`)
		if rs.NumRows() != 0 {
			t.Fatalf("par=%d: contradiction returned %d rows:\n%s", par, rs.NumRows(), rs)
		}
	}
	// And the plan keeps the contradiction visible.
	plan, err := db.Explain(`SELECT x FROM matrix WHERE x = 1 AND x = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Filter") || !strings.Contains(plan, "x=1 (pushed)") {
		t.Fatalf("expected pushed point plus residual filter:\n%s", plan)
	}
}

// TestRangePushdownConsumed checks that consumed range conjuncts
// restrict correctly (bounds are exact, half-open).
func TestRangePushdownConsumed(t *testing.T) {
	db := walkthroughDB(t)
	rs := db.MustQuery(`SELECT x, y FROM matrix WHERE x >= 1 AND x < 3 AND y <= 1`)
	if rs.NumRows() != 4 { // x in {1,2}, y in {0,1}
		t.Fatalf("range query returned %d rows, want 4:\n%s", rs.NumRows(), rs)
	}
	// Float bounds must NOT be consumed into integer scan bounds.
	rs = db.MustQuery(`SELECT x FROM matrix WHERE x > 0.5 AND y = 0`)
	if rs.NumRows() != 3 { // x in {1,2,3}
		t.Fatalf("float lower bound returned %d rows, want 3:\n%s", rs.NumRows(), rs)
	}
}
