// Command sciqlbench is the SciQL benchmark: it generates one workload
// from a seed, loads it, runs it in closed loops for a fixed time,
// checks every answer against references it computes itself, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run). The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// metrics.json declares every metric it prints and the workloads.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/sciql"
)

// workload is one traffic mix over one database. Set-up, the client
// loops and the per-layer measurements are its own; the harness below
// times them and derives the shared metrics.
type workload interface {
	// setup generates the inputs from the seed and loads them; it is
	// what setup_s times.
	setup() error
	// run drives the client loops until the deadline and returns their
	// records; tr is nil for an untraced phase.
	run(deadline time.Time, tr *tracer) []*loop
	// verify makes the answer checks that need the whole run (values
	// read against every value written) and returns the failed ops.
	verify() int
	// layers measures the workload-specific per-layer metrics from the
	// traced run's spans and from calls made after the clients stop.
	layers(tr *tracer) (map[string]float64, error)
	// details returns figures that describe the run's inputs and
	// per-shape breakdowns; they are not metrics.
	details() map[string]any
	db() *sciql.DB
	cells() int
	// close stops the server and clients, if any, and releases the
	// database.
	close() error
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // the smoke test's sizes
	commit   string
	bench    string // path of BENCHMARK.json, to check the printed metrics against
	spans    string // directory the traced run writes its spans to
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "science":
		return newScience(cfg), nil
	case "point":
		return newPoint(cfg), nil
	case "mixed":
		return newMixed(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want science, point or mixed)", cfg.workload)
}

// setups is how many times one run sets its workload up; setup_s is
// their median.
const setups = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured, printed before the result.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"numcpu"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Reads      int                `json:"reads"`
	Writes     int                `json:"writes"`
	Metrics    map[string]metric  `json:"metrics"`
	Untraced   map[string]float64 `json:"untraced,omitempty"`
	Traced     map[string]float64 `json:"traced,omitempty"`
	Details    map[string]any     `json:"details"`
	SpansFile  string             `json:"spans_file,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
}

func main() {
	cfg := config{bench: "BENCHMARK.json", spans: ".bench_build/spans"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: science, point or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit (or source digest) recorded in the result")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	rec, res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s seed=%d trace=%v gomaxprocs=%d numcpu=%d %s commit=%s reads=%d writes=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.GOMAXPROCS, rec.NumCPU, rec.GoVersion, rec.Commit, rec.Reads, rec.Writes)
	for _, k := range slices.Sorted(maps.Keys(rec.Metrics)) {
		fmt.Printf("%-32s %14.6g %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	for _, p := range rec.Problems {
		fmt.Println("problem:", p)
	}
	out, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if out, err = json.Marshal(res); err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sciqlbench:", err)
	os.Exit(2)
}

// run executes one invocation: set-up (several times), warm-up, the
// measured phase (untraced, or untraced then traced), the checks and
// the leak check.
func run(cfg config) (*record, *result, error) {
	decl, err := loadDecl(cfg.bench)
	if err != nil {
		return nil, nil, err
	}
	goroutines := runtime.NumGoroutine()

	// Each set-up is timed, and the live heap is read before and after
	// it: what the loaded data, server and connections cost.
	var w workload
	defer func() {
		if w != nil {
			w.close() // after an error; closing twice is harmless
		}
	}()
	var setupS, heapMB, bytesPerCell []float64
	for range setups {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, nil, err
			}
		}
		if w, err = newWorkload(cfg); err != nil {
			return nil, nil, err
		}
		heap0 := liveHeap()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heap := liveHeap()
		heapMB = append(heapMB, float64(heap)/(1<<20))
		bytesPerCell = append(bytesPerCell, ratio(float64(heap)-float64(heap0), float64(w.cells())))
	}
	runStart := w.db().Metrics()

	// The first seconds after set-up run faster than the rest of the run
	// (about 15% on science, averaged over ten runs on a 2-vCPU VM), so
	// the warm-up outlasts them.
	warm := 3 * time.Second
	if cfg.tiny {
		warm = 100 * time.Millisecond
	}
	warmLoops := w.run(time.Now().Add(warm), nil)

	d := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, traced *phase
	var tr *tracer
	if cfg.trace {
		untraced = measure(w, d/2, nil)
		tr = &tracer{}
		traced = measure(w, d/2, tr)
	} else {
		untraced = measure(w, d, nil)
	}
	runEnd := w.db().Metrics()

	rec := &record{
		Details:  map[string]any{},
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: cfg.commit,
	}
	res := &result{Metrics: map[string]metric{}}
	for _, l := range warmLoops {
		if l.err != nil {
			rec.Problems = append(rec.Problems, fmt.Sprintf("warm-up: %d of %d ops failed, first: %v", l.failed, l.attempted, l.err))
		}
	}
	for _, p := range []*phase{untraced, traced} {
		if p != nil {
			for _, l := range p.loops {
				if l.err != nil {
					rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d ops failed, first: %v", l.failed, l.attempted, l.err))
				}
			}
			res.Attempted += p.sum(func(l *loop) int { return l.attempted })
			res.Failed += p.sum(func(l *loop) int { return l.failed })
			rec.Reads += p.count(reads)
			rec.Writes += p.count(writes)
		}
	}
	if pinned := runEnd["snapshots_pinned"]; pinned != 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("leak: %d catalog snapshots still pinned after the clients stopped", pinned))
	}

	var printed map[string]float64
	if cfg.trace {
		printed = sharedLayers(untraced, traced, tr, runStart, runEnd)
		printed["storage.bytes_per_cell"] = median(bytesPerCell)
		own, err := w.layers(tr)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range own {
			printed[k] = v
		}
		rec.Untraced = endToEnd(untraced, median(setupS), median(heapMB))
		rec.Traced = endToEnd(traced, median(setupS), median(heapMB))
		if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
			return nil, nil, err
		}
		rec.SpansFile = filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(rec.SpansFile); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		printed = endToEnd(untraced, median(setupS), median(heapMB))
		rec.Details["read_qps_by_slice"] = untraced.qps(reads)
		rec.Details["read_p50_ms_by_slice"] = untraced.quantileMS(reads, 0.5)
		all := untraced.samples(reads, -1)
		var deciles []float64
		for q := 0.1; q < 0.95; q += 0.1 {
			deciles = append(deciles, ms(quantile(all, q)))
		}
		rec.Details["read_ms_deciles"] = deciles
	}
	for k, v := range w.details() {
		rec.Details[k] = v
	}
	rec.Details["setup_s"] = setupS
	rec.Details["heap_mb_after_setup"] = heapMB

	if n := w.verify(); n > 0 {
		res.Failed += n
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d values read or stored that no writer wrote", n))
	}
	if !cfg.trace {
		printed["error_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	if err := w.close(); err != nil {
		return nil, nil, err
	}
	if n := settleGoroutines(goroutines); n > goroutines {
		rec.Problems = append(rec.Problems, fmt.Sprintf("leak: %d goroutines after close, %d before set-up", n, goroutines))
	}

	rec.Metrics = map[string]metric{}
	for k, v := range printed {
		rec.Metrics[k] = metric{v, decl.unit(k)}
	}
	if err := decl.check(cfg.workload, cfg.trace, printed, rec.Reads, rec.Writes); err != nil {
		return nil, nil, fmt.Errorf("self-check: %w", err)
	}
	for _, m := range decl.gated(cfg.trace) {
		res.Metrics[m.Name] = metric{printed[m.Name], m.Unit}
	}
	res.Correct = res.Failed == 0 && len(rec.Problems) == 0
	return rec, res, nil
}

// measure runs one phase of the workload for d.
func measure(w workload, d time.Duration, tr *tracer) *phase {
	runtime.GC()
	p := &phase{db0: w.db().Metrics(), rt0: readRuntime(), alloc0: totalAlloc()}
	p.loops = w.run(time.Now().Add(d), tr)
	p.alloc1, p.rt1, p.db1 = totalAlloc(), readRuntime(), w.db().Metrics()
	return p
}

// endToEnd derives the end-to-end metrics of one phase. Rates, medians
// and p90 are medians over the phase's time slices; p99 is taken over
// the whole phase, and only when at least ten samples lie beyond it.
func endToEnd(p *phase, setupS, heapMB float64) map[string]float64 {
	ops := p.sum(func(l *loop) int { return l.attempted })
	m := map[string]float64{
		"setup_s":         setupS,
		"heap_mb":         heapMB,
		"read_qps":        median(p.qps(reads)),
		"read_p50_ms":     median(p.quantileMS(reads, 0.5)),
		"read_p90_ms":     median(p.quantileMS(reads, 0.9)),
		"alloc_kb_per_op": ratio(float64(p.alloc1-p.alloc0), float64(ops)) / 1024,
	}
	if all := p.samples(reads, -1); len(all) >= 1000 {
		m["read_p99_ms"] = ms(quantile(all, 0.99))
	}
	if all := p.samples(writes, -1); len(all) > 0 {
		m["write_qps"] = median(p.qps(writes))
		m["write_p50_ms"] = median(p.quantileMS(writes, 0.5))
		if len(all) >= 1000 {
			m["write_p99_ms"] = ms(quantile(all, 0.99))
		}
	}
	return m
}

// sharedLayers derives the per-layer metrics every workload measures
// the same way: engine counter deltas over the untraced half (where
// the workload runs exactly as in the end-to-end runs), governor
// counters over the whole run, the span self times and the tracing
// overhead. A workload's own layers may replace some of them.
// scan_chunks_total counts the chunks scanned, so the skip ratio is
// skipped / (skipped + scanned).
func sharedLayers(u, t *phase, tr *tracer, runStart, runEnd map[string]int64) map[string]float64 {
	nreads, nwrites := float64(u.count(reads)), float64(u.count(writes))
	rows := float64(u.sum(func(l *loop) int { return int(l.rows) }))
	m := map[string]float64{
		"sciql.stmt_cache_hit_ratio":    ratio(u.delta("stmt_cache_hit_total"), u.delta("stmt_cache_hit_total")+u.delta("stmt_cache_miss_total")),
		"plan.cache_hit_ratio":          ratio(u.delta("plan_cache_hit_total"), u.delta("plan_cache_hit_total")+u.delta("plan_cache_miss_total")),
		"exec.vec_fallback_ratio":       ratio(u.delta("vec_fallback_total"), u.delta("vec_kernel_total")+u.delta("vec_fallback_total")),
		"exec.cells_per_row":            ratio(u.delta("scan_cells_total"), rows),
		"storage.chunk_skip_ratio":      ratio(u.delta("scan_chunks_skipped_total"), u.delta("scan_chunks_skipped_total")+u.delta("scan_chunks_total")),
		"parallel.morsels_per_query":    ratio(u.delta("pool_morsels_total"), nreads),
		"catalog.clone_bytes_per_write": ratio(u.delta("catalog_cow_clone_bytes_total"), nwrites),
		"catalog.snapshots_pinned_end":  float64(runEnd["snapshots_pinned"]),
		"governor.rejected":             float64(runEnd["queries_rejected_total"] - runStart["queries_rejected_total"]),
		"governor.timed_out":            float64(runEnd["queries_timed_out_total"] - runStart["queries_timed_out_total"]),
		"runtime.gc_cpu_frac":           u.gcCPUFrac(),
		"runtime.gc_pause_p99_ms":       ms(u.gcPauseP99()),
		"trace.overhead_p50_ratio":      ratio(median(t.quantileMS(reads, 0.5)), median(u.quantileMS(reads, 0.5))),
		"trace.overhead_qps_ratio":      ratio(median(u.qps(reads)), median(t.qps(reads))),
	}
	self, requests := tr.selfTimes()
	for _, layer := range []string{"sciql", "parser", "plan", "exec", "pgwire"} {
		m["trace.self_"+layer+"_us"] = ratio(us(self[layer]), float64(requests))
	}
	return m
}

// settleGoroutines waits up to five seconds for the goroutine count to
// fall back to want and returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

//go:embed metrics.json
var metricsJSON []byte

// declared is one metric of metrics.json.
type declared struct {
	Name       string   `json:"name"`
	Unit       string   `json:"unit"`
	Better     string   `json:"better"`
	Kind       string   `json:"kind"`
	Workloads  []string `json:"workloads"`
	MinSamples int      `json:"min_samples"`
}

// gate is one metric entry of BENCHMARK.json.
type gate struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// decl is the metric declarations: metrics.json, checked against the
// end_to_end and per_layer lists of BENCHMARK.json.
type decl struct {
	metrics []declared
	byName  map[string]declared
}

func loadDecl(benchPath string) (*decl, error) {
	var m struct {
		Metrics []declared `json:"metrics"`
	}
	if err := json.Unmarshal(metricsJSON, &m); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	d := &decl{metrics: m.Metrics, byName: map[string]declared{}}
	for _, x := range m.Metrics {
		if _, dup := d.byName[x.Name]; dup {
			return nil, fmt.Errorf("metrics.json declares %s twice", x.Name)
		}
		d.byName[x.Name] = x
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []gate `json:"end_to_end"`
		PerLayer []gate `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchPath, err)
	}
	for _, list := range []struct {
		kind  string
		gates []gate
	}{{"end_to_end", b.EndToEnd}, {"per_layer", b.PerLayer}} {
		var names []string
		for _, g := range list.gates {
			x, ok := d.byName[g.Name]
			if !ok || x.Kind != list.kind || x.Unit != g.Unit || x.Better != g.Better {
				return nil, fmt.Errorf("%s: %s %s does not match metrics.json", benchPath, list.kind, g.Name)
			}
			names = append(names, g.Name)
		}
		for _, x := range d.metrics {
			if x.Kind == list.kind && !slices.Contains(names, x.Name) {
				return nil, fmt.Errorf("%s: %s metric %s of metrics.json is missing", benchPath, list.kind, x.Name)
			}
		}
	}
	return d, nil
}

func (d *decl) unit(name string) string { return d.byName[name].Unit }

// gated lists the metrics the last output line carries.
func (d *decl) gated(trace bool) []declared {
	kind := "end_to_end"
	if trace {
		kind = "per_layer"
	}
	var out []declared
	for _, x := range d.metrics {
		if x.Kind == kind {
			out = append(out, x)
		}
	}
	return out
}

// check verifies that every printed metric is declared for this mode,
// and that every metric declared for this workload and mode is printed
// (a metric with min_samples only once the run has that many samples).
// Metrics in BENCHMARK.json but not measured by this workload are then
// printed as 0 in the last line.
func (d *decl) check(workload string, trace bool, printed map[string]float64, reads, writes int) error {
	kinds := []string{"end_to_end", "reported"}
	if trace {
		kinds = []string{"per_layer"}
	}
	var errs []error
	for name, v := range printed {
		x, ok := d.byName[name]
		if !ok || !slices.Contains(kinds, x.Kind) {
			errs = append(errs, fmt.Errorf("%s is printed but not declared for this mode", name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("%s is %v", name, v))
		}
	}
	for _, x := range d.metrics {
		if !slices.Contains(kinds, x.Kind) || !slices.Contains(x.Workloads, workload) {
			continue
		}
		samples := reads
		if strings.HasPrefix(x.Name, "write_") {
			samples = writes
		}
		if _, ok := printed[x.Name]; !ok && samples >= x.MinSamples {
			errs = append(errs, fmt.Errorf("%s is declared for %s but not printed", x.Name, workload))
		}
	}
	return errors.Join(errs...)
}
