package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	scidata "repro/internal/workload"
	"repro/sciql"
)

// science runs the paper's science queries on one connection: a fixed
// rotation of five shapes over two Landsat bands, each shape on a
// seeded window of fixed size.
type science struct {
	n    int
	seed int64
	rng  *rand.Rand // window positions; continues across phases
	eng  *exec.Engine
	sdb  *sciql.DB
	conn *sciql.Conn
	// b3 and b4 are the loaded bands, indexed x*n+y: the references.
	b3, b4 []float64
	next   int // position in the shape rotation
	lat    map[string][]time.Duration
	texts  textRing
	// seen holds every text sent; repeated counts those sent again.
	seen           map[string]bool
	sent, repeated int
	// req and parent place the plan span the trace hook records: the
	// hook runs on the client's goroutine, inside Conn.QueryContext.
	buf         *spanBuf
	req, parent int64
}

// scienceShapes is the rotation, in order.
var scienceShapes = []string{"tile", "mask", "ndvi", "slice", "groupby"}

func newScience(cfg config) *science {
	n := 512
	if cfg.tiny {
		n = 64
	}
	return &science{n: n, seed: cfg.seed, rng: rand.New(rand.NewSource(cfg.seed)), lat: map[string][]time.Duration{}, seen: map[string]bool{}}
}

func (s *science) db() *sciql.DB { return s.sdb }
func (s *science) cells() int    { return 2 * s.n * s.n }

func (s *science) setup() error {
	ls := scidata.NewLandsat(5, s.n, s.seed)
	s.eng = exec.New()
	s.sdb = sciql.Wrap(s.eng)
	s.sdb.Parallelism(runtime.GOMAXPROCS(0))
	s.b3, s.b4 = make([]float64, s.n*s.n), make([]float64, s.n*s.n)
	for i := range s.b3 {
		s.b3[i], s.b4[i] = float64(ls.Pix[3][i]), float64(ls.Pix[4][i])
	}
	if err := loadBand(s.sdb, "b3", s.n, s.b3); err != nil {
		return err
	}
	if err := loadBand(s.sdb, "b4", s.n, s.b4); err != nil {
		return err
	}
	var err error
	s.conn, err = s.sdb.Conn(context.Background())
	return err
}

// loadBand creates an n×n FLOAT array and fills it from vals (x*n+y).
func loadBand(db *sciql.DB, name string, n int, vals []float64) error {
	if _, err := db.Exec(fmt.Sprintf(`CREATE ARRAY %s (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0)`, name, n, n)); err != nil {
		return err
	}
	a, ok := db.LookupArray(name)
	if !ok {
		return fmt.Errorf("array %s not found after CREATE", name)
	}
	c := []int64{0, 0}
	for i, v := range vals {
		c[0], c[1] = int64(i/n), int64(i%n)
		if err := a.SetFloat(c, 0, v); err != nil {
			return err
		}
	}
	return nil
}

func (s *science) close() error {
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.conn = nil
	return errors.Join(err, s.sdb.Close())
}

func (s *science) run(deadline time.Time, tr *tracer) []*loop {
	l := &loop{}
	if tr != nil {
		s.buf = tr.buf()
		s.sdb.SetTraceHook(s.hook)
		defer func() {
			s.sdb.SetTraceHook(nil)
			tr.merge(s.buf)
			s.buf = nil
		}()
	}
	drive(l, deadline, s.step)
	return []*loop{l}
}

// hook turns the engine's plan event into a span under the call that
// is running.
func (s *science) hook(ev sciql.TraceEvent) {
	if ev.Phase == sciql.TracePlan {
		s.buf.put(s.buf.id(), s.req, s.parent, "plan.plan", ev.When.Add(-ev.D), ev.When)
	}
}

// step runs the next shape of the rotation and checks its answer.
func (s *science) step(l *loop) time.Duration {
	shape := scienceShapes[s.next%len(scienceShapes)]
	s.next++
	text, ref := s.query(shape)
	s.texts.add(text)
	s.sent++
	if s.seen[text] {
		s.repeated++
	}
	s.seen[text] = true

	t0 := time.Now()
	rows, err := s.timedQuery(text)
	d := time.Since(t0)

	c0 := time.Now()
	if err == nil {
		err = ref(rows)
	}
	l.read(d, len(rows), err)
	s.lat[shape] = append(s.lat[shape], d)
	return time.Since(c0)
}

// timedQuery runs text on the connection and reads every row; when
// tracing, it records the request and the open / first row / drain /
// close calls as spans.
func (s *science) timedQuery(text string) ([][]sciql.Value, error) {
	b := s.buf
	req, open := b.id(), b.id()
	s.req, s.parent = req, open
	t0 := time.Now()
	rs, err := s.conn.QueryContext(context.Background(), text)
	t1 := time.Now()
	b.put(open, req, req, "exec.open", t0, t1)
	if err != nil {
		b.put(req, req, 0, "bench.request", t0, time.Now())
		return nil, err
	}
	rows, first, err := readRows(rs)
	t2 := time.Now()
	rs.Close()
	t3 := time.Now()
	b.put(b.id(), req, req, "exec.first_row", t1, first)
	b.put(b.id(), req, req, "exec.drain", first, t2)
	b.put(b.id(), req, req, "exec.close", t2, t3)
	b.put(req, req, 0, "bench.request", t0, t3)
	return rows, err
}

// readRows reads every row of rs and reports when the first one (or
// the end) arrived.
func readRows(rs *sciql.Rows) ([][]sciql.Value, time.Time, error) {
	var rows [][]sciql.Value
	var first time.Time
	for rs.Next() {
		if first.IsZero() {
			first = time.Now()
		}
		rows = append(rows, slices.Clone(rs.Values()))
	}
	if first.IsZero() {
		first = time.Now()
	}
	return rows, first, rs.Err()
}

// query draws the next window for shape and returns the query text and
// the check of its answer, which computes the reference from the bands.
// Window sizes are fixed fractions of the band size; only positions
// depend on the seed.
func (s *science) query(shape string) (string, func([][]sciql.Value) error) {
	n := s.n
	switch shape {
	case "tile": // Fig. 3: DISTINCT 4×4 tiles averaged over an n/2 window.
		w := n / 2
		x0, y0 := 4*s.rng.Intn((n-w)/4+1), 4*s.rng.Intn((n-w)/4+1)
		text := fmt.Sprintf(`SELECT [x], [y], AVG(v) FROM b3[%d:%d][%d:%d] GROUP BY DISTINCT b3[x:x+4][y:y+4]`, x0, x0+w, y0, y0+w)
		return text, func(rows [][]sciql.Value) error {
			want := map[int]float64{}
			for x := x0; x < x0+w; x += 4 {
				for y := y0; y < y0+w; y += 4 {
					want[x*n+y] = s.window(s.b3, x, x+4, y, y+4)
				}
			}
			return checkTiles(rows, n, want)
		}
	case "mask": // A4: overlapping 3×3 tiles kept by HAVING over an n/4 window.
		w := n / 4
		x0, y0 := s.rng.Intn(n-w+1), s.rng.Intn(n-w+1)
		const lo, hi = 60, 120
		text := fmt.Sprintf(`SELECT [x], [y], AVG(v) FROM b3[%d:%d][%d:%d] GROUP BY b3[x-1:x+2][y-1:y+2] HAVING AVG(v) BETWEEN %d AND %d`, x0, x0+w, y0, y0+w, lo, hi)
		return text, func(rows [][]sciql.Value) error {
			want := map[int]float64{}
			for x := x0; x < x0+w; x++ {
				for y := y0; y < y0+w; y++ {
					if avg := s.window(s.b3, x-1, x+2, y-1, y+2); avg >= lo && avg <= hi {
						want[x*n+y] = avg
					}
				}
			}
			return checkTiles(rows, n, want)
		}
	case "ndvi": // A3-style: b3 ⋈ b4 on (x, y), normalized difference summed.
		h, w := n/8, n/2
		x0, y0 := s.rng.Intn(n-h+1), s.rng.Intn(n-w+1)
		text := fmt.Sprintf(`SELECT COUNT(*), SUM((n.v - r.v) / (n.v + r.v)) FROM b3[%d:%d][%d:%d] AS r JOIN b4[%d:%d][%d:%d] AS n ON r.x = n.x AND r.y = n.y`,
			x0, x0+h, y0, y0+w, x0, x0+h, y0, y0+w)
		return text, func(rows [][]sciql.Value) error {
			sum := 0.0
			for x := x0; x < x0+h; x++ {
				for y := y0; y < y0+w; y++ {
					r, v := s.b3[x*n+y], s.b4[x*n+y]
					sum += (v - r) / (v + r)
				}
			}
			return checkRow(rows, float64(h*w), sum)
		}
	case "slice": // A selective dimension range plus a value predicate.
		h := n / 16
		x0 := s.rng.Intn(n - h + 1)
		const t = 100
		text := fmt.Sprintf(`SELECT COUNT(*), SUM(v) FROM b3 WHERE x >= %d AND x <= %d AND v > %d`, x0, x0+h-1, t)
		return text, func(rows [][]sciql.Value) error {
			count, sum := 0, 0.0
			for _, v := range s.b3[x0*n : (x0+h)*n] {
				if v > t {
					count++
					sum += v
				}
			}
			if count == 0 {
				return checkRow(rows, 0, math.NaN())
			}
			return checkRow(rows, float64(count), sum)
		}
	default: // groupby: a value GROUP BY over n/2 rows of b4.
		h := n / 2
		x0 := s.rng.Intn(n - h + 1)
		text := fmt.Sprintf(`SELECT v, COUNT(*) FROM b4[%d:%d] GROUP BY v`, x0, x0+h)
		return text, func(rows [][]sciql.Value) error {
			want := map[float64]int64{}
			for _, v := range s.b4[x0*n : (x0+h)*n] {
				want[v]++
			}
			if len(rows) != len(want) {
				return fmt.Errorf("groupby: %d groups, want %d", len(rows), len(want))
			}
			for _, r := range rows {
				if len(r) != 2 || want[r[0].AsFloat()] != r[1].AsInt() {
					return fmt.Errorf("groupby: wrong group %v", r)
				}
			}
			return nil
		}
	}
}

// window averages the band over [x0,x1)×[y0,y1), ignoring cells outside
// the array as the engine's tiling does.
func (s *science) window(band []float64, x0, x1, y0, y1 int) float64 {
	sum, k := 0.0, 0
	for x := max(x0, 0); x < min(x1, s.n); x++ {
		for y := max(y0, 0); y < min(y1, s.n); y++ {
			sum += band[x*s.n+y]
			k++
		}
	}
	return sum / float64(k)
}

// checkTiles compares ([x], [y], AVG) rows against the reference
// averages keyed by x*n+y.
func checkTiles(rows [][]sciql.Value, n int, want map[int]float64) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d tiles, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("tile row has %d columns", len(r))
		}
		avg, ok := want[int(r[0].AsInt())*n+int(r[1].AsInt())]
		if !ok || !near(r[2].AsFloat(), avg) {
			return fmt.Errorf("tile %v: want avg %v (present %v)", r, avg, ok)
		}
	}
	return nil
}

// checkRow compares a one-row (COUNT, SUM) answer; a NaN sum expects
// NULL.
func checkRow(rows [][]sciql.Value, count, sum float64) error {
	if len(rows) != 1 || len(rows[0]) != 2 {
		return fmt.Errorf("want one (count, sum) row, got %v", rows)
	}
	r := rows[0]
	if float64(r[0].AsInt()) != count {
		return fmt.Errorf("count %v, want %v", r[0], count)
	}
	if math.IsNaN(sum) {
		if !r[1].Null {
			return fmt.Errorf("sum %v, want NULL", r[1])
		}
		return nil
	}
	if r[1].Null || !near(r[1].AsFloat(), sum) {
		return fmt.Errorf("sum %v, want %v", r[1], sum)
	}
	return nil
}

// near compares floats computed in different summation orders.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func (s *science) verify() int { return 0 }

func (s *science) details() map[string]any {
	p50 := map[string]float64{}
	for shape, ds := range s.lat {
		p50[shape] = ms(quantile(slices.Clone(ds), 0.5))
	}
	return map[string]any{"shape_p50_ms": p50, "repeat_text_frac": ratio(float64(s.repeated), float64(s.sent))}
}

// EXPLAIN ANALYZE lines: an operator with its reported time, a scan's
// counts, and the summary line with the rows returned.
var (
	opTime      = regexp.MustCompile(`^\s*(\w+) .*\(time=([^ )]+)`)
	scanChunks  = regexp.MustCompile(` chunks=(\d+)`)
	scanCells   = regexp.MustCompile(` cells=(\d+)`)
	scanSkipped = regexp.MustCompile(` chunks_skipped=(\d+)`)
	analyzeRows = regexp.MustCompile(`^analyze: rows=(\d+)`)
)

// count returns the number re captures in line, 0 when absent.
func count(re *regexp.Regexp, line string) int {
	g := re.FindStringSubmatch(line)
	if g == nil {
		return 0
	}
	n, _ := strconv.Atoi(g[1])
	return n
}

// layers: exec.* from the spans; operator times, cells per row and the
// chunk skip ratio from one EXPLAIN ANALYZE per shape (these shapes run
// materialized, which does not feed the engine's scan counters);
// parallel scaling per shape; parse and plan times on the texts sent;
// and the storage scan floor over both bands.
func (s *science) layers(tr *tracer) (map[string]float64, error) {
	m := map[string]float64{
		"exec.open_us":      tr.medianUS("exec.open"),
		"exec.first_row_us": tr.medianUS("exec.first_row"),
		"exec.drain_us":     tr.medianUS("exec.drain"),
	}
	ops := map[string]string{"Scan": "scan", "Filter": "filter", "Project": "project", "Aggregate": "aggregate", "TiledAggregate": "tiled", "Join": "join"}
	for _, op := range ops {
		m["exec.op."+op+"_ms"] = 0
	}
	procs := runtime.GOMAXPROCS(0)
	logScaling := 0.0
	var err error
	var chunks, skipped, cells, rows int
	for _, shape := range scienceShapes {
		text, _ := s.query(shape)
		plan, err := s.sdb.Query("EXPLAIN ANALYZE " + text)
		if err != nil {
			return nil, fmt.Errorf("explain analyze %s: %w", shape, err)
		}
		for r := range plan.NumRows() {
			line := plan.Get(r, 0).S
			if strings.HasPrefix(strings.TrimSpace(line), "Scan ") {
				chunks += count(scanChunks, line)
				cells += count(scanCells, line)
				skipped += count(scanSkipped, line)
			}
			rows += count(analyzeRows, line)
			if g := opTime.FindStringSubmatch(line); g != nil && ops[g[1]] != "" {
				d, err := time.ParseDuration(g[2])
				if err != nil {
					return nil, fmt.Errorf("explain analyze %s: %q: %w", shape, line, err)
				}
				m["exec.op."+ops[g[1]]+"_ms"] += ms(d)
			}
		}
		var p50 [2]time.Duration
		for i, par := range []int{1, procs} {
			s.sdb.Parallelism(par)
			if p50[i], err = timeMedian(3, func() error { _, err := s.sdb.Query(text); return err }); err != nil {
				return nil, fmt.Errorf("%s at parallelism %d: %w", shape, par, err)
			}
		}
		logScaling += math.Log(float64(p50[0]) / float64(p50[1]))
	}
	s.sdb.Parallelism(procs)
	m["exec.cells_per_row"] = ratio(float64(cells), float64(rows))
	m["storage.chunk_skip_ratio"] = ratio(float64(skipped), float64(chunks+skipped))
	m["parallel.scaling_x"] = math.Exp(logScaling / float64(len(scienceShapes)))

	if m["parser.parse_us"], m["plan.plan_us"], err = parsePlanUS(s.eng, s.texts.texts); err != nil {
		return nil, err
	}
	b3, _ := s.sdb.LookupArray("b3")
	b4, _ := s.sdb.LookupArray("b4")
	m["storage.scan_ns_per_cell"], err = scanNSPerCell(b3, b4)
	return m, err
}
