// Command sciqlbench runs the paper-reproduction experiment suite
// (DESIGN.md's index F1–F3, A1–A6, B1–B2, C1–C4, X1–X3) once with
// wall-clock timing and prints the results as tables, including the
// correctness checks that validate each experiment's outcome. The Go
// benchmarks in bench_test.go measure the same operations with
// testing.B statistics.
//
// Usage:
//
//	sciqlbench            # full suite (paper-shaped sizes, ~a minute)
//	sciqlbench -quick     # smaller sizes for a fast smoke run
//	sciqlbench -only F1   # run a single experiment id prefix
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage"
	"repro/sciql"
)

var (
	quick = flag.Bool("quick", false, "use smaller sizes")
	only  = flag.String("only", "", "run only experiments whose id has this prefix")
	par   = flag.Int("par", 4, "worker count for the parallel-execution experiments (P1, P3)")
)

func main() {
	flag.Parse()
	fmt.Println("SciQL reproduction — experiment suite")
	fmt.Println("(paper: Kersten, Nes, Zhang, Ivanova — SciQL, EDBT 2011)")
	fmt.Println()
	runF1()
	runSlabAblation()
	runF2()
	runF3()
	runAML()
	runAstro()
	runSeis()
	runX1()
	runX2()
	runX3()
	runP1()
	runP2()
	runP3()
	runP4()
	runP5()
	runP6()
	runP8()
	runP9()
	runP10()
}

func want(id string) bool {
	return *only == "" || strings.HasPrefix(id, *only)
}

func timeIt(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// ratio is the speedup of b over a (a's time divided by b's).
func ratio(a, b time.Duration) float64 { return float64(a.Nanoseconds()) / float64(b.Nanoseconds()) }

func fail(id string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
	os.Exit(1)
}

func header(id, title string) {
	fmt.Printf("== %s — %s\n", id, title)
}

func runF1() {
	if !want("F1") {
		return
	}
	n := int64(256)
	if *quick {
		n = 128
	}
	header("F1", fmt.Sprintf("Fig.1 storage schemes (%dx%d, scan/point/slice, µs)", n, n))
	fmt.Printf("%-10s %-9s %10s %10s %10s\n", "scheme", "density", "scan", "point4k", "slice")
	for _, density := range []float64{1.0, 0.1, 0.01} {
		for _, scheme := range []string{storage.SchemeVirtual, storage.SchemeTabular, storage.SchemeDOrder, storage.SchemeSlab} {
			a, err := experiments.MakeGrid(scheme, n, density, 1)
			if err != nil {
				fail("F1", err)
			}
			dScan, _ := timeIt(func() error { experiments.ScanSum(a); return nil })
			dPoint, _ := timeIt(func() error { experiments.PointProbes(a, 4096, 2); return nil })
			dSlice, _ := timeIt(func() error { experiments.SliceSum(a); return nil })
			fmt.Printf("%-10s %-9v %10d %10d %10d\n", scheme, density,
				dScan.Microseconds(), dPoint.Microseconds(), dSlice.Microseconds())
		}
	}
	fmt.Println()
}

func runSlabAblation() {
	if !want("F1") {
		return
	}
	n := int64(256)
	header("F1b", "slab-size ablation (dense scan/point, µs)")
	fmt.Printf("%-10s %10s %10s\n", "slab", "scan", "point4k")
	for _, size := range []int64{8, 16, 64, 256} {
		a, err := experiments.MakeGridSlab(n, size, 1)
		if err != nil {
			fail("F1b", err)
		}
		dScan, _ := timeIt(func() error { experiments.ScanSum(a); return nil })
		dPoint, _ := timeIt(func() error { experiments.PointProbes(a, 4096, 2); return nil })
		fmt.Printf("%-10d %10d %10d\n", size, dScan.Microseconds(), dPoint.Microseconds())
	}
	fmt.Println()
}

func runF2() {
	if !want("F2") {
		return
	}
	n := int64(128)
	header("F2", fmt.Sprintf("Fig.2 array forms (%dx%d, full aggregate, µs)", n, n))
	fmt.Printf("%-10s %10s %12s\n", "form", "aggregate", "scheme")
	for _, form := range []string{"matrix", "stripes", "diagonal", "sparse"} {
		s, err := experiments.MakeForm(form, n)
		if err != nil {
			fail("F2", err)
		}
		var d time.Duration
		d, err = timeIt(func() error { _, e := experiments.FormAggregate(s); return e })
		if err != nil {
			fail("F2", err)
		}
		a, _ := s.Engine.Cat.Array("f")
		fmt.Printf("%-10s %10d %12s\n", form, d.Microseconds(), a.Store.Scheme())
	}
	fmt.Println()
}

func runF3() {
	if !want("F3") {
		return
	}
	n := int64(64)
	s, err := experiments.NewMatrixSession(n)
	if err != nil {
		fail("F3", err)
	}
	header("F3", fmt.Sprintf("Fig.3 tiling (%dx%d matrix, ms)", n, n))
	fmt.Printf("%-6s %14s %8s %14s %8s\n", "tile", "overlapping", "groups", "distinct", "groups")
	for _, t := range []int64{2, 4, 8} {
		var og, dg int
		dOver, err := timeIt(func() error { g, e := experiments.Tiling(s, t, false); og = g; return e })
		if err != nil {
			fail("F3", err)
		}
		dDist, err := timeIt(func() error { g, e := experiments.Tiling(s, t, true); dg = g; return e })
		if err != nil {
			fail("F3", err)
		}
		fmt.Printf("%-6d %14d %8d %14d %8d\n", t, dOver.Milliseconds(), og, dDist.Milliseconds(), dg)
	}
	fmt.Println()
}

func runAML() {
	if !want("A") {
		return
	}
	n := 128
	if *quick {
		n = 64
	}
	a, err := experiments.NewAML(n)
	if err != nil {
		fail("AML", err)
	}
	header("A1–A6", fmt.Sprintf("AML image-analysis suite (%dx%d x 7 channels)", n, n))
	fmt.Printf("%-22s %10s   %s\n", "experiment", "ms", "validation")

	before, clean0, err := a.StripedLineMeans()
	if err != nil {
		fail("A1", err)
	}
	d, err := timeIt(a.Destripe)
	if err != nil {
		fail("A1", err)
	}
	after, _, _ := a.StripedLineMeans()
	fmt.Printf("%-22s %10d   striped mean %.2f -> %.2f (clean %.2f)\n",
		"A1 DESTRIPE", d.Milliseconds(), before, after, clean0)

	var pixels int
	d, err = timeIt(func() error { p, e := a.TVI(n / 4); pixels = p; return e })
	if err != nil {
		fail("A2", err)
	}
	fmt.Printf("%-22s %10d   %d conv+tvi pixels\n", "A2 TVI", d.Milliseconds(), pixels)

	var avg float64
	d, err = timeIt(func() error { v, e := a.NDVI(0); avg = v; return e })
	if err != nil {
		fail("A3", err)
	}
	fmt.Printf("%-22s %10d   mean NDVI %.3f (>0: vegetation signal)\n", "A3 NDVI", d.Milliseconds(), avg)

	var tiles int
	d, err = timeIt(func() error { t, e := a.Mask(); tiles = t; return e })
	if err != nil {
		fail("A4", err)
	}
	fmt.Printf("%-22s %10d   %d tiles kept in [10,100]\n", "A4 MASK", d.Milliseconds(), tiles)

	d, err = timeIt(func() error { return a.Wavelet(0) })
	if err != nil {
		fail("A5", err)
	}
	fmt.Printf("%-22s %10d   %dx%d reconstruction\n", "A5 WAVELET", d.Milliseconds(), n, n/2)

	var sum float64
	d, err = timeIt(func() error { v, e := experiments.MatVec(int64(n)); sum = v; return e })
	if err != nil {
		fail("A6", err)
	}
	fmt.Printf("%-22s %10d   checksum %.0f\n", "A6 MATVEC", d.Milliseconds(), sum)
	fmt.Println()
}

func runAstro() {
	if !want("B") {
		return
	}
	events := 100000
	if *quick {
		events = 20000
	}
	as, err := experiments.NewAstro(events, 256)
	if err != nil {
		fail("B1", err)
	}
	header("B1–B2", fmt.Sprintf("astronomy (%d photon events, 256x256 detector)", events))
	fmt.Printf("%-22s %10s   %s\n", "experiment", "ms", "validation")
	var total int64
	d, err := timeIt(func() error { t, e := as.Binning(0); total = t; return e })
	if err != nil {
		fail("B1", err)
	}
	fmt.Printf("%-22s %10d   %d events binned (all preserved)\n", "B1 binning", d.Milliseconds(), total)
	if err := as.PrepareImage(); err != nil {
		fail("B1", err)
	}
	var bins int
	d, err = timeIt(func() error { b, e := as.Rebin(); bins = b; return e })
	if err != nil {
		fail("B1", err)
	}
	fmt.Printf("%-22s %10d   %d super-bins (16x re-binning)\n", "B1 rebin-16x", d.Milliseconds(), bins)

	ws, err := experiments.NewWCSSession(128)
	if err != nil {
		fail("B2", err)
	}
	d, err = timeIt(func() error { return experiments.WCS(ws) })
	if err != nil {
		fail("B2", err)
	}
	fmt.Printf("%-22s %10d   128x128 pixel->world transform\n", "B2 WCS", d.Milliseconds())
	fmt.Println()
}

func runSeis() {
	if !want("C") {
		return
	}
	n := 20000
	if *quick {
		n = 5000
	}
	se, err := experiments.NewSeis(n, 20, 30)
	if err != nil {
		fail("C", err)
	}
	header("C1–C4", fmt.Sprintf("seismology (%d samples, 20 gaps, 30 spikes)", n))
	fmt.Printf("%-22s %10s   %s\n", "experiment", "ms", "validation")
	var cnt int64
	d, err := timeIt(func() error { c, e := se.Retrieve(); cnt = c; return e })
	if err != nil {
		fail("C1", err)
	}
	fmt.Printf("%-22s %10d   %d samples in window\n", "C1 retrieval", d.Milliseconds(), cnt)
	var gaps int
	d, err = timeIt(func() error { g, e := se.Gaps(); gaps = g; return e })
	if err != nil {
		fail("C2", err)
	}
	fmt.Printf("%-22s %10d   %d/%d injected gaps found\n", "C2 gap detection",
		d.Milliseconds(), gaps, len(se.W.GapStarts))
	var spikes int
	d, err = timeIt(func() error { s, e := se.Spikes(); spikes = s; return e })
	if err != nil {
		fail("C3", err)
	}
	fmt.Printf("%-22s %10d   %d jump points (2 per spike, %d spikes)\n", "C3 spike detection",
		d.Milliseconds(), spikes, len(se.W.SpikeTimes))
	mse, err := experiments.NewSeis(5000, 20, 30)
	if err != nil {
		fail("C4", err)
	}
	var rows int
	d, err = timeIt(func() error { r, e := mse.MovAvg(); rows = r; return e })
	if err != nil {
		fail("C4", err)
	}
	fmt.Printf("%-22s %10d   %d moving-average rows (5000 samples)\n", "C4 moving average",
		d.Milliseconds(), rows)
	fmt.Println()
}

func runX1() {
	if !want("X1") {
		return
	}
	n := int64(48)
	s, err := experiments.NewMatrixSession(n)
	if err != nil {
		fail("X1", err)
	}
	if err := experiments.ConvRelationalSetup(s); err != nil {
		fail("X1", err)
	}
	header("X1", "structural grouping vs relational self-join (4-neighbor convolution)")
	dT, err := timeIt(func() error { _, e := experiments.ConvTiling(s); return e })
	if err != nil {
		fail("X1", err)
	}
	dR, err := timeIt(func() error { _, e := experiments.ConvRelational(s); return e })
	if err != nil {
		fail("X1", err)
	}
	fmt.Printf("sciql tiling:        %8.1f ms\n", float64(dT.Microseconds())/1000)
	fmt.Printf("relational self-join:%8.1f ms\n", float64(dR.Microseconds())/1000)
	fmt.Printf("speedup: %.2fx (paper's claim: structural grouping wins)\n\n",
		float64(dR.Nanoseconds())/float64(dT.Nanoseconds()))
}

func runX2() {
	if !want("X2") {
		return
	}
	v, err := experiments.NewVaultFixture(256, 50000)
	if err != nil {
		fail("X2", err)
	}
	defer v.Close()
	header("X2", "data-vault lazy metadata access (FITS COUNT)")
	var n1, n2 int64
	dLazy, err := timeIt(func() error { c, e := v.LazyCount(); n1 = c; return e })
	if err != nil {
		fail("X2", err)
	}
	dFull, err := timeIt(func() error { c, e := v.FullCount(); n2 = c; return e })
	if err != nil {
		fail("X2", err)
	}
	fmt.Printf("header-only COUNT:   %8.2f ms  (count=%d)\n", float64(dLazy.Microseconds())/1000, n1)
	fmt.Printf("full ingest + COUNT: %8.2f ms  (count=%d)\n", float64(dFull.Microseconds())/1000, n2)
	fmt.Printf("ratio: %.0fx (paper §2.1: metadata from the file header)\n\n",
		float64(dFull.Nanoseconds())/float64(dLazy.Nanoseconds()))
}

func runX3() {
	if !want("X3") {
		return
	}
	m, err := experiments.NewMarshalFixture(512)
	if err != nil {
		fail("X3", err)
	}
	header("X3", "black-box marshaling (512x512 to row-major library buffer)")
	dA, err := timeIt(func() error { _, e := m.MarshalAligned(); return e })
	if err != nil {
		fail("X3", err)
	}
	dR, err := timeIt(func() error { _, e := m.MarshalRecast(); return e })
	if err != nil {
		fail("X3", err)
	}
	fmt.Printf("aligned (row-major source):  %8.2f ms\n", float64(dA.Microseconds())/1000)
	fmt.Printf("recast (col-major source):   %8.2f ms\n", float64(dR.Microseconds())/1000)
	fmt.Printf("recast overhead: %.1fx (paper §6.2: 'potentially expensive')\n\n",
		float64(dR.Nanoseconds())/float64(dA.Nanoseconds()))
}

func runP1() {
	if !want("P1") {
		return
	}
	n := 128
	tile := 4
	if *quick {
		n = 64
	}
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	header("P1", fmt.Sprintf("morsel-driven parallel tiled aggregation (%dx%d, %dx%d tiles, %d workers, GOMAXPROCS=%d)",
		n, n, tile, tile, workers, runtime.GOMAXPROCS(0)))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY pmatrix (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(`UPDATE pmatrix SET v = x * 31 + y`)
	q := fmt.Sprintf(`SELECT [x], [y], AVG(v) FROM pmatrix GROUP BY DISTINCT pmatrix[x:x+%d][y:y+%d]`, tile, tile)
	if plan, err := db.Explain(q); err == nil {
		fmt.Print(plan)
	}
	var serial, parallel string
	dS, err := timeIt(func() error {
		db.Parallelism(1)
		rs, e := db.Query(q)
		if e == nil {
			serial = rs.String()
		}
		return e
	})
	if err != nil {
		fail("P1", err)
	}
	dP, err := timeIt(func() error {
		db.Parallelism(workers)
		rs, e := db.Query(q)
		if e == nil {
			parallel = rs.String()
		}
		return e
	})
	if err != nil {
		fail("P1", err)
	}
	if serial != parallel {
		fail("P1", fmt.Errorf("parallel result differs from serial"))
	}
	fmt.Printf("serial (1 worker):    %8.1f ms\n", float64(dS.Microseconds())/1000)
	fmt.Printf("parallel (%d workers):%8.1f ms\n", workers, float64(dP.Microseconds())/1000)
	fmt.Printf("speedup: %.2fx (identical results; scaling requires >= %d cores)\n\n",
		float64(dS.Nanoseconds())/float64(dP.Nanoseconds()), workers)
}

// runP2 quantifies the prepared-statement / plan-cache win: the same
// parameterized SELECT re-executed many times as (a) ad-hoc text with
// the statement cache disabled (parse + plan every call), (b) ad-hoc
// text with the default LRU statement cache, and (c) a prepared
// statement. (b) and (c) skip parse+plan after the first call.
func runP2() {
	if !want("P2") {
		return
	}
	n, iters := int64(4), 5000
	if *quick {
		iters = 1000
	}
	header("P2", fmt.Sprintf("prepared statements vs ad-hoc text (%dx%d array, %d re-executions)", n, n, iters))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(
		`CREATE ARRAY bench (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, n, n))
	db.MustExec(`UPDATE bench SET v = x * 31 + y`)
	// The planner gates the morsel-driven path, so with parallelism
	// configured every fresh AST pays fold+compile+pushdown+prune; the
	// array is small enough that execution itself stays lean. Prepared
	// statements (and the LRU) skip parse and that planning entirely.
	db.Parallelism(4)
	q := `SELECT x, y, v, SQRT(v) + POWER(v, 0.25) AS s,
	        CASE WHEN MOD(x + y, 2) = 0 THEN v * 2.0 ELSE v / 2.0 END AS w
	      FROM bench
	      WHERE x >= ?x AND x < ?x + 8 AND y >= 0 AND y < 16
	        AND v > ?lo AND MOD(x * 31 + y, 7) <> 3
	        AND (v < 1000000 OR SQRT(v + 1) > 0 OR POWER(v, 2) < 100000000)`

	run := func(exec func(i int) error) time.Duration {
		d, err := timeIt(func() error {
			for i := 0; i < iters; i++ {
				if err := exec(i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fail("P2", err)
		}
		return d
	}
	args := func(i int) []sciql.Arg {
		return []sciql.Arg{sciql.Int("x", int64(i)%4), sciql.Float("lo", 1)}
	}

	db.SetPlanCacheSize(0)
	dCold := run(func(i int) error { _, err := db.Query(q, args(i)...); return err })
	db.SetPlanCacheSize(256)
	dCached := run(func(i int) error { _, err := db.Query(q, args(i)...); return err })
	st, err := db.Prepare(q)
	if err != nil {
		fail("P2", err)
	}
	dPrep := run(func(i int) error { _, err := st.Query(args(i)...); return err })

	perCall := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(iters) }
	fmt.Printf("ad-hoc, cache off  (parse+plan each): %8.1f us/exec\n", perCall(dCold))
	fmt.Printf("ad-hoc, LRU cache  (plan reused):     %8.1f us/exec\n", perCall(dCached))
	fmt.Printf("prepared statement (plan reused):     %8.1f us/exec\n", perCall(dPrep))
	fmt.Printf("prepared speedup over uncached ad-hoc: %.2fx\n\n",
		float64(dCold.Nanoseconds())/float64(dPrep.Nanoseconds()))
}

// runP3 measures the chunked parallel array scan: a filter-heavy query
// over a >=1M-cell array, serial vs chunk-parallel (the scan itself is
// the morsel domain; filter+projection run per chunk inside it), and a
// full- vs pruned-projection scan (unreferenced attribute columns are
// never materialized).
func runP3() {
	if !want("P3") {
		return
	}
	n := int64(1024)
	if *quick {
		n = 512
	}
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	header("P3", fmt.Sprintf("chunked parallel array scan + projection pruning (%dx%d = %d cells, %d workers, GOMAXPROCS=%d)",
		n, n, n*n, workers, runtime.GOMAXPROCS(0)))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY bigscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0, c FLOAT DEFAULT 3.0)`, n, n))
	filterQ := `SELECT x, y, a FROM bigscan WHERE MOD(x * 31 + y, 7) < 3 AND MOD(x + y, 5) <> 0 AND a > 0`
	var serialRows, parRows int
	dS, err := timeIt(func() error {
		db.Parallelism(1)
		rs, e := db.Query(filterQ)
		if e == nil {
			serialRows = rs.NumRows()
		}
		return e
	})
	if err != nil {
		fail("P3", err)
	}
	dP, err := timeIt(func() error {
		db.Parallelism(workers)
		rs, e := db.Query(filterQ)
		if e == nil {
			parRows = rs.NumRows()
		}
		return e
	})
	if err != nil {
		fail("P3", err)
	}
	if serialRows != parRows {
		fail("P3", fmt.Errorf("parallel scan returned %d rows, serial %d", parRows, serialRows))
	}
	fullQ := `SELECT x, y, a, b, c FROM bigscan WHERE MOD(x * 31 + y, 7) = 0`
	prunedQ := `SELECT x, y, a FROM bigscan WHERE MOD(x * 31 + y, 7) = 0`
	dFull, err := timeIt(func() error { _, e := db.Query(fullQ); return e })
	if err != nil {
		fail("P3", err)
	}
	dPruned, err := timeIt(func() error { _, e := db.Query(prunedQ); return e })
	if err != nil {
		fail("P3", err)
	}
	fmt.Printf("serial scan (1 worker):      %8.1f ms  (%d rows)\n", ms(dS), serialRows)
	fmt.Printf("chunked scan (%d workers):   %8.1f ms\n", workers, ms(dP))
	fmt.Printf("scan speedup: %.2fx (scaling requires >= %d cores)\n", ratio(dS, dP), workers)
	fmt.Printf("full projection (5 cols):    %8.1f ms\n", ms(dFull))
	fmt.Printf("pruned projection (3 cols):  %8.1f ms\n", ms(dPruned))
	fmt.Printf("pruning speedup: %.2fx (unused attribute columns never materialize)\n\n", ratio(dFull, dPruned))
}

// runP4 measures vectorized execution: the P3 filter-heavy 1M-cell
// scan single-core with the expression interpreter vs the compiled
// kernel pipeline (byte-identical results enforced), plus the full- vs
// pruned-projection comparison under vectorization.
func runP4() {
	if !want("P4") {
		return
	}
	n := int64(1024)
	if *quick {
		n = 512
	}
	header("P4", fmt.Sprintf("vectorized execution: BAT kernels vs tree-walking interpreter (%dx%d = %d cells, single core)",
		n, n, n*n))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY vecscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0, c FLOAT DEFAULT 3.0)`, n, n))
	filterQ := `SELECT x, y, a FROM vecscan WHERE MOD(x * 31 + y, 7) < 3 AND MOD(x + y, 5) <> 0 AND a > 0`
	db.Parallelism(1)
	var interpRows, vecRows int
	var interpOut, vecOut string
	dI, err := timeIt(func() error {
		db.Vectorize(false)
		rs, e := db.Query(filterQ)
		if e == nil {
			interpRows, interpOut = rs.NumRows(), rs.String()
		}
		return e
	})
	if err != nil {
		fail("P4", err)
	}
	dV, err := timeIt(func() error {
		db.Vectorize(true)
		rs, e := db.Query(filterQ)
		if e == nil {
			vecRows, vecOut = rs.NumRows(), rs.String()
		}
		return e
	})
	if err != nil {
		fail("P4", err)
	}
	if interpRows != vecRows || interpOut != vecOut {
		fail("P4", fmt.Errorf("vectorized result differs from interpreter (%d vs %d rows)", vecRows, interpRows))
	}
	fullQ := `SELECT x, y, a, b, c FROM vecscan WHERE MOD(x * 31 + y, 7) = 0`
	prunedQ := `SELECT x, y, a FROM vecscan WHERE MOD(x * 31 + y, 7) = 0`
	dFull, err := timeIt(func() error { _, e := db.Query(fullQ); return e })
	if err != nil {
		fail("P4", err)
	}
	dPruned, err := timeIt(func() error { _, e := db.Query(prunedQ); return e })
	if err != nil {
		fail("P4", err)
	}
	fmt.Printf("interpreted scan (row-at-a-time):  %8.1f ms  (%d rows)\n", ms(dI), interpRows)
	fmt.Printf("vectorized scan (BAT kernels):     %8.1f ms\n", ms(dV))
	fmt.Printf("vectorization speedup: %.2fx single-core (the paper's column-at-a-time argument)\n", ratio(dI, dV))
	fmt.Printf("vectorized full projection (5 cols):   %8.1f ms\n", ms(dFull))
	fmt.Printf("vectorized pruned projection (3 cols): %8.1f ms\n", ms(dPruned))
	fmt.Printf("pruning speedup under vectorization: %.2fx\n\n", ratio(dFull, dPruned))
}

// runP5 measures concurrent connections: 4 full filter scans executed
// back-to-back on one sciql.Conn vs fanned out over 4 Conns, then a
// consistency probe — readers streaming while a transaction commits
// must each see exactly one version. Connection scaling needs >= 4
// cores to show; single-core containers record the overhead floor.
func runP5() {
	if !want("P5") {
		return
	}
	n := int64(1024)
	if *quick {
		n = 256
	}
	header("P5", fmt.Sprintf("concurrent connections: 1 vs 4 sessions on the %dx%d = %d cell scan", n, n, n*n))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY conc (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0)`, n, n))
	const scans = 4
	q := `SELECT x, y, a FROM conc WHERE MOD(x * 31 + y, 7) < 3`

	drain := func(c *sciql.Conn) (int, error) {
		rows, err := c.QueryContext(context.Background(), q)
		if err != nil {
			return 0, err
		}
		defer rows.Close()
		cnt := 0
		for rows.Next() {
			cnt++
		}
		return cnt, rows.Err()
	}

	one, err := db.Conn(context.Background())
	if err != nil {
		fail("P5", err)
	}
	var rowsPerScan int
	dSeq, err := timeIt(func() error {
		for i := 0; i < scans; i++ {
			cnt, err := drain(one)
			if err != nil {
				return err
			}
			rowsPerScan = cnt
		}
		return nil
	})
	if err != nil {
		fail("P5", err)
	}

	conns := make([]*sciql.Conn, scans)
	for i := range conns {
		if conns[i], err = db.Conn(context.Background()); err != nil {
			fail("P5", err)
		}
	}
	dConc, err := timeIt(func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, scans)
		for _, c := range conns {
			wg.Add(1)
			go func(c *sciql.Conn) {
				defer wg.Done()
				if cnt, err := drain(c); err != nil {
					errCh <- err
				} else if cnt != rowsPerScan {
					errCh <- fmt.Errorf("concurrent scan saw %d rows, want %d", cnt, rowsPerScan)
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	})
	if err != nil {
		fail("P5", err)
	}

	// Consistency probe: a reader streams while a transaction rewrites
	// every cell; the drained result must be one version, not a tear.
	stable := true
	probe, err := db.Conn(context.Background())
	if err != nil {
		fail("P5", err)
	}
	rows, err := probe.QueryContext(context.Background(), `SELECT a FROM conc`)
	if err != nil {
		fail("P5", err)
	}
	if !rows.Next() {
		fail("P5", fmt.Errorf("no rows from probe scan"))
	}
	writer, err := db.Conn(context.Background())
	if err != nil {
		fail("P5", err)
	}
	tx, err := writer.Begin()
	if err != nil {
		fail("P5", err)
	}
	if _, err := tx.Exec(`UPDATE conc SET a = 9.0`); err != nil {
		fail("P5", err)
	}
	if err := tx.Commit(); err != nil {
		fail("P5", err)
	}
	var v sciql.Value
	if err := rows.Scan(&v); err != nil {
		fail("P5", err)
	}
	seen := v.AsFloat()
	for rows.Next() {
		if err := rows.Scan(&v); err != nil {
			fail("P5", err)
		}
		if v.AsFloat() != seen {
			stable = false
		}
	}
	rows.Close()
	if !stable {
		fail("P5", fmt.Errorf("open cursor observed a mix of versions (snapshot tear)"))
	}

	fmt.Printf("%d scans, 1 conn sequential:   %8.1f ms  (%d rows/scan)\n", scans, ms(dSeq), rowsPerScan)
	fmt.Printf("%d scans, %d conns concurrent: %8.1f ms\n", scans, scans, ms(dConc))
	fmt.Printf("connection scaling: %.2fx (needs >= %d cores to show; snapshot reads never block on the writer)\n", ratio(dSeq, dConc), scans)
	fmt.Printf("snapshot stability under a committing writer: %v\n\n", stable)
}

// runP6 measures what telemetry costs: the P4 vectorized filter scan
// with (a) nothing armed — the always-on counters are the only cost,
// (b) the slow-query log armed with a 1ns threshold so every query
// traces and logs, and (c) EXPLAIN ANALYZE, which arms the full
// per-operator profile. Counter deltas from db.Metrics() validate the
// instrumentation (cells visited, rows produced, slow queries logged),
// and a prepared-statement workload reports the plan-cache hit rate.
func runP6() {
	if !want("P6") {
		return
	}
	n := int64(1024)
	iters := 5
	if *quick {
		n = 512
		iters = 3
	}
	header("P6", fmt.Sprintf("telemetry overhead: unarmed vs slow-log armed vs EXPLAIN ANALYZE (%dx%d = %d cells, vectorized)",
		n, n, n*n))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY telscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		a FLOAT DEFAULT 1.0, b FLOAT DEFAULT 2.0, c FLOAT DEFAULT 3.0)`, n, n))
	filterQ := `SELECT x, y, a FROM telscan WHERE MOD(x * 31 + y, 7) < 3 AND MOD(x + y, 5) <> 0 AND a > 0`
	db.Parallelism(1)
	db.Vectorize(true)

	// best-of-iters wall time for one run mode; all modes return the
	// same row count or the experiment fails.
	var rowsSeen int
	measure := func(q string) time.Duration {
		best := time.Duration(0)
		for i := 0; i < iters; i++ {
			var cnt int
			d, err := timeIt(func() error {
				rs, e := db.Query(q)
				if e == nil {
					cnt = rs.NumRows()
				}
				return e
			})
			if err != nil {
				fail("P6", err)
			}
			if q == filterQ {
				if rowsSeen == 0 {
					rowsSeen = cnt
				} else if cnt != rowsSeen {
					fail("P6", fmt.Errorf("row count drifted: %d vs %d", cnt, rowsSeen))
				}
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	before := db.Metrics()
	dUnarmed := measure(filterQ)
	after := db.Metrics()
	cellsPerQ := (after["scan_cells_total"] - before["scan_cells_total"]) / int64(iters)

	// Arm the slow-query log so every statement crosses the threshold:
	// the armed path pays trace events, row accounting, and a log line.
	db.SetSlowQueryThreshold(time.Nanosecond, io.Discard)
	dArmed := measure(filterQ)
	slowLogged := db.Metrics()["slow_query_total"]
	db.SetSlowQueryThreshold(0, nil)

	dAnalyze := measure("EXPLAIN ANALYZE " + filterQ)

	// Plan-cache hit rate under a prepared workload: the first execution
	// plans, the rest hit the memoized decision.
	preparedExecs := 100
	st, err := db.Prepare(filterQ + ` AND x < 64`)
	if err != nil {
		fail("P6", err)
	}
	before = db.Metrics()
	for i := 0; i < preparedExecs; i++ {
		if _, err := st.Query(); err != nil {
			fail("P6", err)
		}
	}
	after = db.Metrics()
	hits := after["plan_cache_hit_total"] - before["plan_cache_hit_total"]
	misses := after["plan_cache_miss_total"] - before["plan_cache_miss_total"]
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}

	pct := func(d time.Duration) float64 {
		return (float64(d.Nanoseconds())/float64(dUnarmed.Nanoseconds()) - 1) * 100
	}
	fmt.Printf("unarmed (counters only):       %8.1f ms  (%d rows; %d cells scanned/query)\n",
		ms(dUnarmed), rowsSeen, cellsPerQ)
	fmt.Printf("slow-log armed (every query):  %8.1f ms  (%+.1f%%; %d slow queries logged)\n",
		ms(dArmed), pct(dArmed), slowLogged)
	fmt.Printf("EXPLAIN ANALYZE (profiled):    %8.1f ms  (%+.1f%%)\n", ms(dAnalyze), pct(dAnalyze))
	fmt.Printf("plan-cache hit rate, %d prepared execs: %.1f%% (%d hits / %d misses)\n\n",
		preparedExecs, hitRate*100, hits, misses)
}

// runP8 measures statistics-driven execution. Part one: the P4
// vectorized filter scan over a monotone attribute (v = x*n + y, so
// chunk zone maps are tight) with chunk skipping off vs on at 1%, 34%
// and 100% selectivity — at 100% every chunk overlaps the predicate
// and skipping must cost nothing. Part two: the partitioned hash join
// of the 1M-cell array against a small array, serial vs morsel-driven
// (byte-identical results enforced).
func runP8() {
	if !want("P8") {
		return
	}
	n := int64(1024)
	iters := 3
	if *quick {
		n = 512
	}
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	header("P8", fmt.Sprintf("zone-map chunk skipping + partitioned hash join (%dx%d = %d cells, GOMAXPROCS=%d)",
		n, n, n*n, runtime.GOMAXPROCS(0)))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY zscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		v FLOAT DEFAUL`+`T 0.0, w FLOAT DEFAULT 1.0)`, n, n))
	db.MustExec(`UPDATE zscan SET v = x * ` + fmt.Sprint(n) + ` + y`)
	db.Parallelism(1)
	db.Vectorize(true)

	cells := n * n
	best := func(q string) (time.Duration, int) {
		bd, rows := time.Duration(0), 0
		for i := 0; i < iters; i++ {
			var cnt int
			d, err := timeIt(func() error {
				rs, e := db.Query(q)
				if e == nil {
					cnt = rs.NumRows()
				}
				return e
			})
			if err != nil {
				fail("P8", err)
			}
			if bd == 0 || d < bd {
				bd = d
			}
			rows = cnt
		}
		return bd, rows
	}

	fmt.Printf("%-6s %12s %12s %9s %15s %10s\n", "sel", "skip off ms", "skip on ms", "speedup", "chunks skipped", "rows")
	for _, pctSel := range []int{1, 34, 100} {
		threshold := cells * int64(pctSel) / 100
		q := fmt.Sprintf(`SELECT x, y, v FROM zscan WHERE v < %d`, threshold)
		db.ChunkSkip(false)
		dOff, rowsOff := best(q)
		db.ChunkSkip(true)
		skippedBefore := db.Metrics()["scan_chunks_skipped_total"]
		dOn, rowsOn := best(q)
		skipped := (db.Metrics()["scan_chunks_skipped_total"] - skippedBefore) / int64(iters)
		if rowsOn != rowsOff {
			fail("P8", fmt.Errorf("skip on returned %d rows, off %d", rowsOn, rowsOff))
		}
		fmt.Printf("%-6s %12.1f %12.1f %8.2fx %15d %10d\n",
			fmt.Sprintf("%d%%", pctSel), ms(dOff), ms(dOn), ratio(dOff, dOn), skipped, rowsOn)
	}

	// Partitioned hash join: the 1M-cell array probes against a small
	// build side; the morsel pool fans key extraction, partition build
	// and probe.
	db.MustExec(`CREATE ARRAY zdim (x INTEGER DIMENSION[64], y INTEGER DIMENSION[64], s FLOAT DEFAULT 3.0)`)
	joinQ := `SELECT l.x, l.y, (l.v + r.s) AS e FROM zscan AS l JOIN zdim AS r ON l.x = r.x AND l.y = r.y`
	var serialOut, parOut string
	var joinRows int
	db.Parallelism(1)
	dJS, err := timeIt(func() error {
		rs, e := db.Query(joinQ)
		if e == nil {
			serialOut = rs.String()
			joinRows = rs.NumRows()
		}
		return e
	})
	if err != nil {
		fail("P8", err)
	}
	db.Parallelism(workers)
	dJP, err := timeIt(func() error {
		rs, e := db.Query(joinQ)
		if e == nil {
			parOut = rs.String()
		}
		return e
	})
	if err != nil {
		fail("P8", err)
	}
	if serialOut != parOut {
		fail("P8", fmt.Errorf("parallel join result differs from serial"))
	}
	fmt.Printf("hash join, serial:      %8.1f ms  (%d rows, byte-identical)\n", ms(dJS), joinRows)
	fmt.Printf("hash join, %d workers:  %8.1f ms\n", workers, ms(dJP))
	fmt.Printf("join speedup: %.2fx (scaling requires >= %d cores)\n\n", ratio(dJS, dJP), workers)
}

// runP9 measures the resource governor. Part one: the vectorized
// 1M-cell filter scan with the governor unarmed (no limits: budgeting
// is a nil pointer on the scan path) vs armed with generous limits
// (every chunk charges its byte estimate, the statement timer runs) —
// the target is <= 5% overhead with byte-identical results. Part two:
// admission-control throughput: a fleet of clients hammers 4 execution
// slots through wait queues of depth 1, 8 and 64; deeper queues trade
// rejections for completed work at roughly constant service rate.
func runP9() {
	if !want("P9") {
		return
	}
	n := int64(1024)
	iters := 5
	clients, perClient := 16, 12
	if *quick {
		n = 512
		iters = 3
		perClient = 6
	}
	header("P9", fmt.Sprintf("resource governor overhead + admission throughput (%dx%d = %d cells, GOMAXPROCS=%d)",
		n, n, n*n, runtime.GOMAXPROCS(0)))
	db := sciql.Open()
	db.MustExec(fmt.Sprintf(`CREATE ARRAY gscan (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d],
		v FLOAT DEFAUL`+`T 0.0)`, n, n))
	db.MustExec(`UPDATE gscan SET v = x * ` + fmt.Sprint(n) + ` + y`)
	db.Parallelism(1)
	db.Vectorize(true)

	cells := n * n
	q := fmt.Sprintf(`SELECT x, y, v FROM gscan WHERE v < %d`, cells/2)
	best := func() (time.Duration, string) {
		bd, out := time.Duration(0), ""
		for i := 0; i < iters; i++ {
			var s string
			d, err := timeIt(func() error {
				rs, e := db.Query(q)
				if e == nil {
					s = rs.String()
				}
				return e
			})
			if err != nil {
				fail("P9", err)
			}
			if bd == 0 || d < bd {
				bd = d
			}
			out = s
		}
		return bd, out
	}

	dOff, outOff := best()
	// Armed: generous limits nothing trips, so the measurement isolates
	// the accounting cost — admission slot, statement timer, and the
	// per-chunk budget charges.
	db.SetMemoryLimit(1<<40, 1<<40)
	db.SetStatementTimeout(time.Hour)
	db.SetMaxConcurrentQueries(64)
	dOn, outOn := best()
	db.SetMemoryLimit(0, 0)
	db.SetStatementTimeout(0)
	db.SetMaxConcurrentQueries(0)
	if outOn != outOff {
		fail("P9", fmt.Errorf("governed scan result differs from ungoverned"))
	}
	fmt.Printf("filter scan, governor unarmed: %8.1f ms\n", ms(dOff))
	fmt.Printf("filter scan, governor armed:   %8.1f ms  (byte-identical)\n", ms(dOn))
	fmt.Printf("governor overhead: %+.1f%% (target <= 5%%)\n", (ratio(dOn, dOff)-1)*100)

	// Admission throughput: a cheap per-query workload so the queue —
	// not the scan — is the contended resource.
	adb := sciql.Open()
	adb.MustExec(`CREATE ARRAY asmall (x INTEGER DIMENSION[256], y INTEGER DIMENSION[256], v FLOAT DEFAUL` + `T 0.0);
		UPDATE asmall SET v = x + y`)
	const aq = `SELECT x, y, v FROM asmall WHERE v > 128`
	adb.SetMaxConcurrentQueries(4)
	fmt.Printf("%-12s %10s %10s %10s %10s\n", "queue depth", "completed", "rejected", "wall ms", "qps")
	for _, depth := range []int{1, 8, 64} {
		adb.SetAdmissionQueue(depth, 50*time.Millisecond)
		var completed, rejected int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					_, err := adb.Query(aq)
					switch {
					case err == nil:
						atomic.AddInt64(&completed, 1)
					case errors.Is(err, sciql.ErrAdmission):
						atomic.AddInt64(&rejected, 1)
					default:
						fail("P9", err)
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(t0)
		fmt.Printf("%-12d %10d %10d %10.1f %10.0f\n", depth, completed, rejected, ms(wall), float64(completed)/wall.Seconds())
	}
	fmt.Println()
}
