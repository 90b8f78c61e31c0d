package expr

import (
	"math"
	"testing"

	"repro/internal/sql/parser"
	"repro/internal/value"
)

func eval(t *testing.T, src string, env Env) value.Value {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if env == nil {
		env = &MapEnv{}
	}
	v, err := New().Eval(e, env)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2},     // integer division
		{"10.0 / 4", 2.5}, // float division
		{"10 % 3", 1},
		{"-5 + 2", -3},
		{"2 * 3.5", 7},
	}
	for _, c := range cases {
		if got := eval(t, c.src, nil).AsFloat(); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	if !eval(t, "1 / 0", nil).Null {
		t.Error("1/0 should be NULL")
	}
	if !eval(t, "1.5 / 0", nil).Null {
		t.Error("1.5/0 should be NULL")
	}
	if !eval(t, "MOD(3, 0)", nil).Null {
		t.Error("MOD(3,0) should be NULL")
	}
}

func TestNullPropagation(t *testing.T) {
	if !eval(t, "NULL + 1", nil).Null {
		t.Error("NULL + 1 should be NULL")
	}
	if !eval(t, "NULL = NULL", nil).Null {
		t.Error("NULL = NULL should be NULL (three-valued)")
	}
	if v := eval(t, "NULL IS NULL", nil); !v.AsBool() {
		t.Error("NULL IS NULL should be true")
	}
	if v := eval(t, "1 IS NOT NULL", nil); !v.AsBool() {
		t.Error("1 IS NOT NULL should be true")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	// FALSE AND NULL = FALSE; TRUE OR NULL = TRUE.
	if v := eval(t, "FALSE AND NULL", nil); v.Null || v.AsBool() {
		t.Error("FALSE AND NULL should be FALSE")
	}
	if v := eval(t, "TRUE OR NULL", nil); v.Null || !v.AsBool() {
		t.Error("TRUE OR NULL should be TRUE")
	}
	if v := eval(t, "TRUE AND NULL", nil); !v.Null {
		t.Error("TRUE AND NULL should be NULL")
	}
	if v := eval(t, "NOT NULL", nil); !v.Null {
		t.Error("NOT NULL should be NULL")
	}
}

func TestComparisons(t *testing.T) {
	truths := []string{
		"1 < 2", "2 <= 2", "3 > 2", "3 >= 3", "1 = 1", "1 <> 2",
		"2 BETWEEN 1 AND 3", "4 NOT BETWEEN 1 AND 3",
		"2 IN (1, 2, 3)", "5 NOT IN (1, 2, 3)",
		"'abc' < 'abd'",
	}
	for _, src := range truths {
		if v := eval(t, src, nil); !v.AsBool() {
			t.Errorf("%s should be true, got %v", src, v)
		}
	}
}

func TestCaseForms(t *testing.T) {
	env := &MapEnv{Vars: map[string]value.Value{"x": value.NewInt(3)}}
	if got := eval(t, "CASE WHEN x > 2 THEN 'big' ELSE 'small' END", env); got.S != "big" {
		t.Errorf("searched CASE = %v", got)
	}
	if got := eval(t, "CASE x WHEN 3 THEN 'three' WHEN 4 THEN 'four' END", env); got.S != "three" {
		t.Errorf("simple CASE = %v", got)
	}
	if got := eval(t, "CASE x WHEN 9 THEN 'nine' END", env); !got.Null {
		t.Errorf("no-match CASE should be NULL, got %v", got)
	}
}

func TestBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"ABS(-3)", 3},
		{"MOD(7, 3)", 1},
		{"POWER(2, 10)", 1024},
		{"SQRT(9)", 3},
		{"FLOOR(2.7)", 2},
		{"CEIL(2.1)", 3},
		{"GREATEST(1, 5, 3)", 5},
		{"LEAST(4, 2, 9)", 2},
		{"COALESCE(NULL, NULL, 7)", 7},
		{"LENGTH('abcd')", 4},
	}
	for _, c := range cases {
		if got := eval(t, c.src, nil).AsFloat(); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
	if got := eval(t, "PI()", nil).AsFloat(); math.Abs(got-math.Pi) > 1e-12 {
		t.Errorf("PI() = %v", got)
	}
	if got := eval(t, "ARCSIN(1.0)", nil).AsFloat(); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("ARCSIN(1) = %v", got)
	}
	if got := eval(t, "UPPER('ab')", nil).S; got != "AB" {
		t.Errorf("UPPER = %q", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := New()
	b := New()
	e, _ := parser.ParseExpr("RAND()")
	env := &MapEnv{}
	v1, _ := a.Eval(e, env)
	v2, _ := b.Eval(e, env)
	if v1.I != v2.I {
		t.Error("RAND() should be deterministic across fresh evaluators (fixed seed)")
	}
	v3, _ := a.Eval(e, env)
	if v1.I == v3.I {
		t.Error("RAND() should advance within one evaluator")
	}
	if v1.I < 0 {
		t.Error("RAND() should be non-negative (paper uses MOD(RAND(),16))")
	}
}

// TestRandFreshSessionStream pins the first RAND() values of a fresh
// evaluator, so seeding lazily keeps the stream every session saw when
// the seed was drawn eagerly.
func TestRandFreshSessionStream(t *testing.T) {
	ev := New()
	e, _ := parser.ParseExpr("RAND()")
	for i, want := range []int64{1602144611, 283469975, 2594563336} {
		v, err := ev.Eval(e, &MapEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if v.I != want {
			t.Errorf("RAND() #%d = %d, want %d", i+1, v.I, want)
		}
	}
}

func TestCast(t *testing.T) {
	if got := eval(t, "CAST(3.7 AS INTEGER)", nil); got.Typ != value.Int || got.I != 3 {
		t.Errorf("CAST float->int = %v", got)
	}
	if got := eval(t, "CAST(3 AS FLOAT)", nil); got.Typ != value.Float || got.F != 3 {
		t.Errorf("CAST int->float = %v", got)
	}
}

func TestTimestampArithmetic(t *testing.T) {
	env := &MapEnv{Vars: map[string]value.Value{
		"t1": value.NewTimestamp(1000),
		"t2": value.NewTimestamp(4000),
	}}
	if got := eval(t, "t2 - t1", env); got.Typ != value.Int || got.I != 3000 {
		t.Errorf("ts - ts = %v, want 3000 micros", got)
	}
	if got := eval(t, "t1 + 500", env); got.Typ != value.Timestamp || got.I != 1500 {
		t.Errorf("ts + int = %v", got)
	}
}

func TestParamsAndUnbound(t *testing.T) {
	env := &MapEnv{Params: map[string]value.Value{"lo": value.NewInt(5)}}
	if got := eval(t, "?lo * 2", env); got.AsInt() != 10 {
		t.Errorf("param eval = %v", got)
	}
	e, _ := parser.ParseExpr("nosuchvar + 1")
	if _, err := New().Eval(e, &MapEnv{}); err == nil {
		t.Error("unbound name should error")
	}
	e, _ = parser.ParseExpr("?missing")
	if _, err := New().Eval(e, &MapEnv{}); err == nil {
		t.Error("unbound parameter should error")
	}
}

func TestEnvChaining(t *testing.T) {
	outer := &MapEnv{Vars: map[string]value.Value{"a": value.NewInt(1), "b": value.NewInt(2)}}
	inner := &MapEnv{Vars: map[string]value.Value{"a": value.NewInt(10)}, Parent: outer}
	if got := eval(t, "a + b", inner); got.AsInt() != 12 {
		t.Errorf("shadowing: got %v, want 12", got)
	}
}

func TestEvalBoolNullIsFalse(t *testing.T) {
	e, _ := parser.ParseExpr("NULL")
	ok, err := New().EvalBool(e, &MapEnv{})
	if err != nil || ok {
		t.Error("NULL predicate should be false")
	}
}

func TestStringConcat(t *testing.T) {
	if got := eval(t, "'a' || 'b'", nil).S; got != "ab" {
		t.Errorf("concat = %q", got)
	}
	if !eval(t, "'a' || NULL", nil).Null {
		t.Error("concat with NULL should be NULL")
	}
}
