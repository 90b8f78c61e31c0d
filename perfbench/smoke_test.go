package main

import (
	"testing"
	"time"
)

// smoke runs one workload at the tiny sizes for a short time.
func smoke(t *testing.T, name string, trace bool) (*record, *result) {
	t.Helper()
	rec, res, err := run(config{
		workload: name, seed: 7, seconds: 0.4, trace: trace, tiny: true,
		commit: "test", bench: "../BENCHMARK.json", spans: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return rec, res
}

// TestSmoke runs every workload, untraced and traced, at the tiny
// sizes: set-up, the answer checks, the leak checks, the traced run's
// spans and per-layer metrics, and the self-check of the printed
// metrics against BENCHMARK.json and metrics.json.
func TestSmoke(t *testing.T) {
	decl, err := loadDecl("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"science", "point", "mixed"} {
		for _, trace := range []bool{false, true} {
			rec, res := smoke(t, name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, rec.Problems)
			}
			if got, want := len(res.Metrics), len(decl.gated(trace)); got != want {
				t.Errorf("%s trace=%v: last line carries %d metrics, want %d", name, trace, got, want)
			}
			if trace && rec.SpansFile == "" {
				t.Errorf("%s: traced run wrote no spans", name)
			}
		}
	}
}

// TestChecksCatchWrongAnswers makes each workload's references disagree
// with what was loaded and requires the checks to count failures.
func TestChecksCatchWrongAnswers(t *testing.T) {
	cfg := config{seed: 3, tiny: true}
	deadline := func() time.Time { return time.Now().Add(200 * time.Millisecond) }
	failed := func(loops []*loop) int {
		n := 0
		for _, l := range loops {
			n += l.failed
		}
		return n
	}

	s := newScience(cfg)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	for i := range s.b3 {
		s.b3[i]++
	}
	if n := failed(s.run(deadline(), nil)); n == 0 {
		t.Error("science: shifted band references went unnoticed")
	}
	s.close()

	p := newPoint(cfg)
	if err := p.setup(); err != nil {
		t.Fatal(err)
	}
	p.off++
	if n := failed(p.run(deadline(), nil)); n == 0 {
		t.Error("point: a wrong formula went unnoticed")
	}
	p.close()

	m := newMixed(cfg)
	if err := m.setup(); err != nil {
		t.Fatal(err)
	}
	m.run(deadline(), nil)
	m.odd = append(m.odd, cellValue{cell: 0, v: -1e9})
	if n := m.verify(); n == 0 {
		t.Error("mixed: a value no writer stored went unnoticed")
	}
	m.close()
}
