package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/server/pgwire"
	"repro/sciql"
)

// point is sciqld's point traffic: two persistent pgwire connections to
// an in-process server, each a closed loop of point and slice reads on
// one array whose values follow a formula of the coordinates.
type point struct {
	n       int
	seed    int64
	off     float64 // the formula's seeded offset
	eng     *exec.Engine
	sdb     *sciql.DB
	srv     *server.Server
	clients []*pgwire.Client
	rngs    []*rand.Rand
	// rep keys texts by cell for point reads, n*n + origin for slices
	// and 2*n*n for the parameterized text.
	rep   *repeats
	texts []textRing // per client
}

// pointExtText is the one text sent with bound parameters.
const pointExtText = `SELECT v FROM p WHERE x = ?1 AND y = ?2`

func newPoint(cfg config) *point {
	n := 256
	if cfg.tiny {
		n = 32
	}
	return &point{n: n, seed: cfg.seed, off: float64(cfg.seed%1000) / 8}
}

func (p *point) db() *sciql.DB { return p.sdb }
func (p *point) cells() int    { return p.n * p.n }

// value is the formula the loader stores at (x, y).
func (p *point) value(x, y int) float64 { return float64(x*p.n+y) + p.off }

func (p *point) setup() error {
	p.eng = exec.New()
	p.sdb = sciql.Wrap(p.eng)
	p.sdb.Parallelism(runtime.GOMAXPROCS(0))
	if _, err := p.sdb.Exec(fmt.Sprintf(`CREATE ARRAY p (x INTEGER DIMENSION[%d], y INTEGER DIMENSION[%d], v FLOAT DEFAULT 0.0);
		UPDATE p SET v = x * %d + y + %v`, p.n, p.n, p.n, p.off)); err != nil {
		return err
	}
	p.srv = server.New(p.sdb, server.Config{PgAddr: "127.0.0.1:0"})
	if err := p.srv.Start(); err != nil {
		return err
	}
	const clients = 2
	p.rep = newRepeats(2*p.n*p.n + 1)
	p.texts = make([]textRing, clients)
	for i := range clients {
		c, err := pgwire.Dial(p.srv.PgAddr(), pgwire.ClientConfig{User: "bench", Database: "sciql"})
		if err != nil {
			return err
		}
		p.clients = append(p.clients, c)
		p.rngs = append(p.rngs, rand.New(rand.NewSource(p.seed*1000+int64(i))))
	}
	return nil
}

func (p *point) close() error {
	var errs []error
	for _, c := range p.clients {
		errs = append(errs, c.Close())
	}
	p.clients = nil
	if p.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, p.srv.Shutdown(ctx))
		cancel()
		p.srv = nil
	}
	if p.sdb != nil {
		errs = append(errs, p.sdb.Close())
	}
	return errors.Join(errs...)
}

func (p *point) run(deadline time.Time, tr *tracer) []*loop {
	if tr != nil {
		// The server runs statements on its connection goroutines; their
		// plan and close events become orphan spans, attached to the
		// client's round trip by query text once the loops end.
		p.sdb.SetTraceHook(func(ev sciql.TraceEvent) {
			switch ev.Phase {
			case sciql.TracePlan:
				tr.add(span{ID: tr.id(), Name: "plan.plan", Start: ev.When.Add(-ev.D), End: ev.When, text: ev.Query})
			case sciql.TraceClose:
				tr.add(span{ID: tr.id(), Name: "sciql.statement", Start: ev.When.Add(-ev.D), End: ev.When, text: ev.Query})
			}
		})
		defer func() {
			p.sdb.SetTraceHook(nil)
			tr.attachByText("pgwire.roundtrip")
		}()
	}
	loops := make([]*loop, len(p.clients))
	var wg sync.WaitGroup
	for i := range p.clients {
		loops[i] = &loop{}
		var buf *spanBuf
		if tr != nil {
			buf = tr.buf()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(loops[i], deadline, func(l *loop) time.Duration { return p.step(i, l, buf) })
			if tr != nil {
				tr.merge(buf)
			}
		}()
	}
	wg.Wait()
	return loops
}

// step sends client i's next request: 65% ad hoc point selects, 20%
// the parameterized text, 15% 8×8 slices. The slices are the slowest
// requests; at 15% the p90 falls inside their latencies rather than on
// the edge between them and the point reads.
func (p *point) step(i int, l *loop, b *spanBuf) time.Duration {
	c, rng := p.clients[i], p.rngs[i]
	var x, y int
	var text string
	var params [][]byte
	slice := false
	switch r := rng.Float64(); {
	case r < 0.65:
		x, y = rng.Intn(p.n), rng.Intn(p.n)
		text = fmt.Sprintf(`SELECT v FROM p WHERE x = %d AND y = %d`, x, y)
		p.rep.mark(x*p.n + y)
	case r < 0.85:
		x, y = rng.Intn(p.n), rng.Intn(p.n)
		text, params = pointExtText, [][]byte{strconv.AppendInt(nil, int64(x), 10), strconv.AppendInt(nil, int64(y), 10)}
		p.rep.mark(2 * p.n * p.n)
	default:
		slice = true
		x, y = rng.Intn(p.n-7), rng.Intn(p.n-7)
		text = fmt.Sprintf(`SELECT x, y, v FROM p WHERE x >= %d AND x <= %d AND y >= %d AND y <= %d`, x, x+7, y, y+7)
		p.rep.mark(p.n*p.n + x*p.n + y)
	}
	p.texts[i].add(text)

	req, rt := b.id(), b.id()
	t0 := time.Now()
	var res []pgwire.Result
	var err error
	if params != nil {
		res, err = c.ExtQuery(text, params...)
	} else {
		res, err = c.SimpleQuery(text)
	}
	t1 := time.Now()
	b.putText(rt, req, req, "pgwire.roundtrip", t0, t1, text)
	b.put(req, req, 0, "bench.request", t0, t1)

	c0 := time.Now()
	rows := 0
	if err == nil {
		if len(res) != 1 {
			err = fmt.Errorf("%d results for %q", len(res), text)
		} else if rows = len(res[0].Rows); slice {
			err = p.checkSlice(res[0].Rows, x, y)
		} else {
			err = p.checkPoint(res[0].Rows, x, y)
		}
	}
	l.read(t1.Sub(t0), rows, err)
	return time.Since(c0)
}

func (p *point) checkPoint(rows [][][]byte, x, y int) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("point (%d,%d): %d rows", x, y, len(rows))
	}
	v, err := strconv.ParseFloat(string(rows[0][0]), 64)
	if err != nil || v != p.value(x, y) {
		return fmt.Errorf("point (%d,%d): %q, want %v", x, y, rows[0][0], p.value(x, y))
	}
	return nil
}

// checkSlice requires the 64 cells of the 8×8 slice at (x0, y0), each
// once, each with its formula value.
func (p *point) checkSlice(rows [][][]byte, x0, y0 int) error {
	if len(rows) != 64 {
		return fmt.Errorf("slice (%d,%d): %d rows, want 64", x0, y0, len(rows))
	}
	var got uint64
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("slice (%d,%d): row of %d fields", x0, y0, len(r))
		}
		x, errX := strconv.Atoi(string(r[0]))
		y, errY := strconv.Atoi(string(r[1]))
		v, errV := strconv.ParseFloat(string(r[2]), 64)
		dx, dy := x-x0, y-y0
		if errors.Join(errX, errY, errV) != nil || dx < 0 || dx > 7 || dy < 0 || dy > 7 || v != p.value(x, y) {
			return fmt.Errorf("slice (%d,%d): wrong row %q", x0, y0, r)
		}
		got |= 1 << (dx*8 + dy)
	}
	if got != ^uint64(0) {
		return fmt.Errorf("slice (%d,%d): cells missing", x0, y0)
	}
	return nil
}

func (p *point) verify() int { return 0 }

func (p *point) details() map[string]any {
	return map[string]any{"repeat_text_frac": p.rep.frac()}
}

// layers: the round trip, the server's statement time and their
// difference from the spans; parse and plan times on the texts sent;
// the storage scan floor.
func (p *point) layers(tr *tracer) (map[string]float64, error) {
	rt, srv := tr.medianUS("pgwire.roundtrip"), tr.medianUS("sciql.statement")
	m := map[string]float64{"pgwire.roundtrip_us": rt, "pgwire.server_us": srv, "pgwire.wire_us": rt - srv}
	var texts []string
	for _, r := range p.texts {
		texts = append(texts, r.texts...)
	}
	var err error
	if m["parser.parse_us"], m["plan.plan_us"], err = parsePlanUS(p.eng, texts); err != nil {
		return nil, err
	}
	a, _ := p.sdb.LookupArray("p")
	m["storage.scan_ns_per_cell"], err = scanNSPerCell(a)
	return m, err
}
