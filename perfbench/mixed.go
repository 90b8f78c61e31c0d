package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/sciql"
)

// mixed is one writer and one reader on one array, in process: the
// writer runs one-cell UPDATEs, the reader ad hoc point and 8×8 slice
// reads, each on an implicit session. Both draw cells from a seeded
// hot region so that reads meet fresh writes.
type mixed struct {
	n, hot int
	x0, y0 int // the hot region's corner
	seed   int64
	eng    *exec.Engine
	sdb    *sciql.DB
	// loaded is what the loader stored, x*n+y.
	loaded []float64
	wrng   *rand.Rand
	rrng   *rand.Rand
	reads  int // reads issued; every fifth is a slice
	// Writer state: each write stores a distinct negative value, so a
	// value read that is not the loaded one must be among written[cell].
	seq     int
	written map[int][]float64
	// odd is what the reader saw that differs from the loaded value,
	// checked against written once both loops have stopped.
	odd []cellValue
	// rep keys read texts by cell for point reads, n*n + origin for
	// slices.
	rep *repeats
}

type cellValue struct {
	cell int
	v    float64
}

func newMixed(cfg config) *mixed {
	n, hot := 1024, 128
	if cfg.tiny {
		n, hot = 64, 32
	}
	return &mixed{n: n, hot: hot, seed: cfg.seed, written: map[int][]float64{}, rep: newRepeats(2 * n * n)}
}

func (m *mixed) db() *sciql.DB { return m.sdb }
func (m *mixed) cells() int    { return m.n * m.n }

func (m *mixed) setup() error {
	rng := rand.New(rand.NewSource(m.seed))
	m.x0, m.y0 = rng.Intn(m.n-m.hot+1), rng.Intn(m.n-m.hot+1)
	m.wrng, m.rrng = rand.New(rand.NewSource(rng.Int63())), rand.New(rand.NewSource(rng.Int63()))
	m.loaded = make([]float64, m.n*m.n)
	for i := range m.loaded {
		m.loaded[i] = float64(rng.Intn(1 << 20))
	}
	m.eng = exec.New()
	m.sdb = sciql.Wrap(m.eng)
	m.sdb.Parallelism(runtime.GOMAXPROCS(0))
	return loadBand(m.sdb, "m", m.n, m.loaded)
}

func (m *mixed) close() error {
	if m.sdb == nil {
		return nil
	}
	err := m.sdb.Close()
	m.sdb = nil
	return err
}

// cell draws a cell of the hot region whose 8×8 slice stays inside it.
func (m *mixed) cell(rng *rand.Rand, margin int) (x, y int) {
	return m.x0 + rng.Intn(m.hot-margin), m.y0 + rng.Intn(m.hot-margin)
}

func (m *mixed) run(deadline time.Time, tr *tracer) []*loop {
	w, r := &loop{}, &loop{}
	var wb, rb *spanBuf
	if tr != nil {
		wb, rb = tr.buf(), tr.buf()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		drive(w, deadline, func(l *loop) time.Duration { return m.write(l, wb) })
	}()
	go func() {
		defer wg.Done()
		drive(r, deadline, func(l *loop) time.Duration { return m.read(l, rb) })
	}()
	wg.Wait()
	if tr != nil {
		tr.merge(wb)
		tr.merge(rb)
	}
	return []*loop{w, r}
}

// write stores the next distinct value in one cell through
// DB.ExecContext.
func (m *mixed) write(l *loop, b *spanBuf) time.Duration {
	x, y := m.cell(m.wrng, 0)
	m.seq++
	v := -m.seq
	text := fmt.Sprintf(`UPDATE m SET v = %d WHERE x = %d AND y = %d`, v, x, y)
	req := b.id()
	t0 := time.Now()
	_, err := m.sdb.ExecContext(context.Background(), text)
	t1 := time.Now()
	b.put(b.id(), req, req, "sciql.exec", t0, t1)
	b.put(req, req, 0, "bench.request", t0, t1)
	l.write(t1.Sub(t0), err)
	if err == nil {
		k := x*m.n + y
		m.written[k] = append(m.written[k], float64(v))
	}
	return 0
}

// read runs one ad hoc read: four point reads, then one 8×8 slice.
// Untraced it goes through DB.QueryContext; traced, through the same
// steps driven by hand — session, parse, plan, QueryStream, Next,
// Close — each a span.
//
// The mix is a fixed rotation, not a random draw: a slice read costs
// about two thousand point reads, so with random draws the reads
// completed per second followed how many slices chance put into each
// time slice. The first point read after a slice meets the many
// versions the writer committed meanwhile and is several times slower
// than the next; those are a quarter of the point reads, so the p50
// lies among the fast point reads and the p90 in the middle of the
// slices, away from the edges between these groups.
func (m *mixed) read(l *loop, b *spanBuf) time.Duration {
	var text string
	var x, y int
	m.reads++
	slice := m.reads%5 == 0
	if slice {
		x, y = m.cell(m.rrng, 7)
		text = fmt.Sprintf(`SELECT x, y, v FROM m WHERE x >= %d AND x <= %d AND y >= %d AND y <= %d`, x, x+7, y, y+7)
		m.rep.mark(m.n*m.n + x*m.n + y)
	} else {
		x, y = m.cell(m.rrng, 0)
		text = fmt.Sprintf(`SELECT v FROM m WHERE x = %d AND y = %d`, x, y)
		m.rep.mark(x*m.n + y)
	}
	t0 := time.Now()
	var rows [][]sciql.Value
	var err error
	if b == nil {
		var rs *sciql.Rows
		if rs, err = m.sdb.QueryContext(context.Background(), text); err == nil {
			rows, _, err = readRows(rs)
			rs.Close()
		}
	} else {
		rows, err = m.tracedRead(text, b)
	}
	d := time.Since(t0)

	c0 := time.Now()
	if err == nil {
		err = m.check(rows, x, y, slice)
	}
	l.read(d, len(rows), err)
	return time.Since(c0)
}

// tracedRead is one implicit-session read through exec's public
// methods, each step a span of the request.
func (m *mixed) tracedRead(text string, b *spanBuf) ([][]sciql.Value, error) {
	req := b.id()
	t0 := time.Now()
	sess := m.eng.NewSession()
	t1 := time.Now()
	stmts, err := parser.Parse(text)
	t2 := time.Now()
	b.put(b.id(), req, req, "sciql.session_open", t0, t1)
	b.put(b.id(), req, req, "parser.parse", t1, t2)
	if err != nil {
		b.put(req, req, 0, "bench.request", t0, t2)
		return nil, err
	}
	sel, ok := stmts[0].(*ast.Select)
	if len(stmts) != 1 || !ok {
		return nil, fmt.Errorf("%q is not one SELECT", text)
	}
	sess.PrimePlan(sel)
	t3 := time.Now()
	cur, err := sess.QueryStream(context.Background(), sel, nil)
	t4 := time.Now()
	b.put(b.id(), req, req, "plan.plan", t2, t3)
	b.put(b.id(), req, req, "exec.open", t3, t4)
	if err != nil {
		b.put(req, req, 0, "bench.request", t0, t4)
		return nil, err
	}
	var rows [][]sciql.Value
	first := t4
	for {
		row, err := cur.Next()
		if err != nil || row == nil {
			t5 := time.Now()
			cur.Close()
			t6 := time.Now()
			if len(rows) == 0 {
				first = t5
			}
			b.put(b.id(), req, req, "exec.first_row", t4, first)
			b.put(b.id(), req, req, "exec.drain", first, t5)
			b.put(b.id(), req, req, "exec.close", t5, t6)
			b.put(req, req, 0, "bench.request", t0, t6)
			return rows, err
		}
		if len(rows) == 0 {
			first = time.Now()
		}
		rows = append(rows, row)
	}
}

// check accepts a value when it is the loaded one; any other value is
// kept for verify, which requires the writer to have stored it.
func (m *mixed) check(rows [][]sciql.Value, x0, y0 int, slice bool) error {
	if !slice {
		if len(rows) != 1 || len(rows[0]) != 1 {
			return fmt.Errorf("point (%d,%d): %d rows", x0, y0, len(rows))
		}
		m.note(x0*m.n+y0, rows[0][0].AsFloat())
		return nil
	}
	if len(rows) != 64 {
		return fmt.Errorf("slice (%d,%d): %d rows, want 64", x0, y0, len(rows))
	}
	var got uint64
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("slice (%d,%d): row of %d columns", x0, y0, len(r))
		}
		dx, dy := int(r[0].AsInt())-x0, int(r[1].AsInt())-y0
		if dx < 0 || dx > 7 || dy < 0 || dy > 7 {
			return fmt.Errorf("slice (%d,%d): row %v outside it", x0, y0, r)
		}
		got |= 1 << (dx*8 + dy)
		m.note((x0+dx)*m.n+y0+dy, r[2].AsFloat())
	}
	if got != ^uint64(0) {
		return fmt.Errorf("slice (%d,%d): cells missing", x0, y0)
	}
	return nil
}

func (m *mixed) note(cell int, v float64) {
	if v != m.loaded[cell] {
		m.odd = append(m.odd, cellValue{cell, v})
	}
}

// verify checks every value read that was not the loaded one against
// the writes to its cell, and that each written cell now holds its last
// write.
func (m *mixed) verify() int {
	failed := 0
	for _, o := range m.odd {
		ok := false
		for _, w := range m.written[o.cell] {
			ok = ok || w == o.v
		}
		if !ok {
			failed++
		}
	}
	a, _ := m.sdb.LookupArray("m")
	for cell, ws := range m.written {
		if v := a.Get([]int64{int64(cell / m.n), int64(cell % m.n)}, 0); v.AsFloat() != ws[len(ws)-1] {
			failed++
		}
	}
	return failed
}

func (m *mixed) details() map[string]any {
	return map[string]any{"writes_total": m.seq, "reads_of_written_values": len(m.odd), "repeat_text_frac": m.rep.frac()}
}

// layers: the session, parse, plan and exec steps of the traced reads;
// the storage scan floor.
func (m *mixed) layers(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{
		"sciql.session_open_us": tr.medianUS("sciql.session_open"),
		"parser.parse_us":       tr.medianUS("parser.parse"),
		"plan.plan_us":          tr.medianUS("plan.plan"),
		"exec.open_us":          tr.medianUS("exec.open"),
		"exec.first_row_us":     tr.medianUS("exec.first_row"),
		"exec.drain_us":         tr.medianUS("exec.drain"),
	}
	a, _ := m.sdb.LookupArray("m")
	var err error
	out["storage.scan_ns_per_cell"], err = scanNSPerCell(a)
	return out, err
}
