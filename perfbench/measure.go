package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/sciql"
)

// slots is how many equal time slices a phase is cut into. Rates and
// latency percentiles are taken per slice and reported as the median
// over the slices, so a burst of outside load in one slice does not
// move them.
const slots = 10

// slot is what one client loop recorded in one time slice.
type slot struct {
	reads, writes []time.Duration
	busy          time.Duration // slice time less answer checks
}

// loop is what one client loop recorded in one phase.
type loop struct {
	slots             [slots]slot
	cur               int // the slice the running operation started in
	attempted, failed int
	rows              int64 // rows returned to this client
	err               error // the first failure
}

// read records one completed read; err is an engine error or a wrong
// answer, which counts as failed and leaves no latency sample.
func (l *loop) read(d time.Duration, rows int, err error) {
	l.rows += int64(rows)
	if l.fail(err) {
		s := &l.slots[l.cur]
		s.reads = append(s.reads, d)
	}
}

// write records one completed write.
func (l *loop) write(d time.Duration, err error) {
	if l.fail(err) {
		s := &l.slots[l.cur]
		s.writes = append(s.writes, d)
	}
}

// fail counts one attempt and reports whether it succeeded.
func (l *loop) fail(err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		if l.err == nil {
			l.err = err
		}
	}
	return err == nil
}

// drive runs step until the deadline. step performs one operation and
// returns how long it spent checking the answer; that time is left out
// of the loop's busy time, so checks never count as engine work. An
// operation belongs to the slice it started in.
func drive(l *loop, deadline time.Time, step func(l *loop) time.Duration) {
	start := time.Now()
	width := max(deadline.Sub(start)/slots, 1)
	for t0 := start; t0.Before(deadline); {
		l.cur = min(int(t0.Sub(start)/width), slots-1)
		check := step(l)
		t1 := time.Now()
		l.slots[l.cur].busy += t1.Sub(t0) - check
		t0 = t1
	}
}

// phase is one measured interval of a workload: its client loops plus
// the process and engine counters read at both ends.
type phase struct {
	loops          []*loop
	alloc0, alloc1 uint64
	rt0, rt1       []metrics.Sample
	db0, db1       map[string]int64
}

func (p *phase) sum(f func(l *loop) int) int {
	n := 0
	for _, l := range p.loops {
		n += f(l)
	}
	return n
}

// samples gathers one kind of latency sample (reads or writes) from
// every loop, from slice i or, for i < 0, from all slices.
func (p *phase) samples(kind func(s *slot) []time.Duration, i int) []time.Duration {
	var out []time.Duration
	for _, l := range p.loops {
		for j := range l.slots {
			if i < 0 || i == j {
				out = append(out, kind(&l.slots[j])...)
			}
		}
	}
	return out
}

func reads(s *slot) []time.Duration  { return s.reads }
func writes(s *slot) []time.Duration { return s.writes }

// count is the number of samples of one kind in the phase.
func (p *phase) count(kind func(s *slot) []time.Duration) int { return len(p.samples(kind, -1)) }

// bySlot applies f to each slice that holds samples of kind.
func (p *phase) bySlot(kind func(s *slot) []time.Duration, f func(i int) float64) []float64 {
	var xs []float64
	for i := range slots {
		if len(p.samples(kind, i)) > 0 {
			xs = append(xs, f(i))
		}
	}
	return xs
}

// quantileMS is the q-quantile of the samples of kind in each slice, in
// milliseconds.
func (p *phase) quantileMS(kind func(s *slot) []time.Duration, q float64) []float64 {
	return p.bySlot(kind, func(i int) float64 { return ms(quantile(p.samples(kind, i), q)) })
}

// qps is, for each slice, the sum over the loops of the operations of
// kind completed divided by the loop's busy time.
func (p *phase) qps(kind func(s *slot) []time.Duration) []float64 {
	return p.bySlot(kind, func(i int) float64 {
		q := 0.0
		for _, l := range p.loops {
			s := &l.slots[i]
			if n := len(kind(s)); n > 0 && s.busy > 0 {
				q += float64(n) / s.busy.Seconds()
			}
		}
		return q
	})
}

// delta is the change of an engine counter over the phase.
func (p *phase) delta(name string) float64 { return float64(p.db1[name] - p.db0[name]) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of ds by the nearest-rank rule; ds
// is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Runtime metrics read at both ends of a phase.
const (
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU = "/cpu/classes/total:cpu-seconds"
	rtGCPauses = "/sched/pauses/total/gc:seconds"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtGCPauses}}
	metrics.Read(s)
	return s
}

// gcCPUFrac is the share of the process's CPU time the GC took over
// the phase.
func (p *phase) gcCPUFrac() float64 {
	gc := p.rt1[0].Value.Float64() - p.rt0[0].Value.Float64()
	total := p.rt1[1].Value.Float64() - p.rt0[1].Value.Float64()
	return ratio(gc, total)
}

// gcPauseP99 is the p99 of the GC pauses that happened during the
// phase, read from the bucket upper bounds of the pause histogram.
func (p *phase) gcPauseP99() time.Duration {
	h0, h1 := p.rt0[2].Value.Float64Histogram(), p.rt1[2].Value.Float64Histogram()
	counts := make([]uint64, len(h1.Counts))
	var n uint64
	for i := range counts {
		counts[i] = h1.Counts[i] - h0.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(n)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := h1.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h1.Buckets[i]
			}
			return time.Duration(hi * 1e9)
		}
	}
	return 0
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// median of a few float samples (set-up times, per-shape ratios).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeMedian times fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.5), nil
}

// parsePlanUS times, on each text, parser.Parse and then PrimePlan on
// a fresh session: the plan cache is keyed by the parsed statement, so
// this is the cost of planning it anew. It returns both medians in
// microseconds.
func parsePlanUS(eng *exec.Engine, texts []string) (parse, plan float64, err error) {
	var pd, pl []time.Duration
	for _, text := range texts {
		t0 := time.Now()
		stmts, err := parser.Parse(text)
		t1 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("parse %q: %w", text, err)
		}
		sel, ok := stmts[0].(*ast.Select)
		if len(stmts) != 1 || !ok {
			return 0, 0, fmt.Errorf("%q is not one SELECT", text)
		}
		sess := eng.NewSession()
		t2 := time.Now()
		sess.PrimePlan(sel)
		pd, pl = append(pd, t1.Sub(t0)), append(pl, time.Since(t2))
	}
	return us(quantile(pd, 0.5)), us(quantile(pl, 0.5)), nil
}

// scanNSPerCell times sciql.Array.Scan over the arrays — the floor no
// query scan can beat — and returns nanoseconds per cell visited.
func scanNSPerCell(arrs ...*sciql.Array) (float64, error) {
	cells := 0
	d, err := timeMedian(3, func() error {
		cells = 0
		for _, a := range arrs {
			a.Scan(func([]int64, []sciql.Value) bool { cells++; return true })
		}
		return nil
	})
	return ratio(float64(d.Nanoseconds()), float64(cells)), err
}

// textRing keeps the most recent texts a client sent, for timing
// parse and plan on them after the run.
type textRing struct {
	texts []string
	next  int
}

const ringSize = 256

func (r *textRing) add(text string) {
	if len(r.texts) < ringSize {
		r.texts = append(r.texts, text)
		return
	}
	r.texts[r.next] = text
	r.next = (r.next + 1) % ringSize
}

// repeats counts the requests whose text was sent before. Each text is
// named by a small integer key (a cell, a slice origin), so a bit set
// remembers the texts sent at a fixed, small cost.
type repeats struct {
	mu             sync.Mutex
	seen           []uint64
	repeated, sent int
}

func newRepeats(keys int) *repeats {
	return &repeats{seen: make([]uint64, (keys+63)/64)}
}

// mark records one request for the text named k; safe for concurrent
// use.
func (r *repeats) mark(k int) {
	bit := uint64(1) << (k % 64)
	r.mu.Lock()
	r.sent++
	if r.seen[k/64]&bit != 0 {
		r.repeated++
	}
	r.seen[k/64] |= bit
	r.mu.Unlock()
}

func (r *repeats) frac() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ratio(float64(r.repeated), float64(r.sent))
}
