// Package expr evaluates SciQL scalar expressions: arithmetic with
// SQL NULL propagation, three-valued logic, CASE guards, casts, and
// the scalar builtin library (MOD, POWER, ABS, SQRT, RAND, trig, ...).
// Array references, subqueries and user-defined functions are resolved
// through hooks supplied by the executor so this package stays free of
// engine dependencies.
package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/sql/ast"
	"repro/internal/value"
)

// Env supplies name bindings during evaluation: column values of the
// current row, dimension variables of the current anchor, PSM locals,
// and host parameters.
type Env interface {
	// Lookup resolves a (possibly qualified) name; ok=false if unbound.
	Lookup(qualifier, name string) (value.Value, bool)
	// Param resolves a ?name host parameter.
	Param(name string) (value.Value, bool)
}

// MapEnv is a simple Env over maps, used for dimension-variable
// bindings and tests.
type MapEnv struct {
	Vars   map[string]value.Value
	Params map[string]value.Value
	// Parent chains environments (inner shadows outer).
	Parent Env
}

// Lookup implements Env.
func (m *MapEnv) Lookup(qualifier, name string) (value.Value, bool) {
	k := strings.ToLower(name)
	if qualifier == "" {
		if v, ok := m.Vars[k]; ok {
			return v, true
		}
	}
	if m.Parent != nil {
		return m.Parent.Lookup(qualifier, name)
	}
	return value.Value{}, false
}

// Param implements Env.
func (m *MapEnv) Param(name string) (value.Value, bool) {
	if v, ok := m.Params[strings.ToLower(name)]; ok {
		return v, true
	}
	if m.Parent != nil {
		return m.Parent.Param(name)
	}
	return value.Value{}, false
}

// Hooks lets the executor resolve constructs that need engine state.
type Hooks struct {
	// Subquery evaluates a scalar subquery under env.
	Subquery func(sel *ast.Select, env Env) (value.Value, error)
	// ArrayRef resolves an array reference (point access or slice).
	ArrayRef func(ref *ast.ArrayRef, env Env) (value.Value, error)
	// Call resolves non-builtin functions (white-box and black-box
	// UDFs); it is consulted after the builtin table misses.
	Call func(name string, args []value.Value, env Env) (value.Value, error)
}

// Evaluator evaluates expressions. The zero value works for pure
// scalar expressions; attach Hooks for engine-backed constructs.
type Evaluator struct {
	Hooks Hooks
	// Rand is the generator behind RAND(); a fixed seed keeps runs
	// reproducible. Nil lazily initializes a default.
	Rand *rand.Rand
}

// New returns an evaluator with a deterministic RAND() stream. The
// generator is seeded on the first RAND() call, not here: seeding
// costs more than the rest of session setup, and most sessions never
// call RAND().
func New() *Evaluator {
	return &Evaluator{}
}

// Eval computes e under env.
func (ev *Evaluator) Eval(e ast.Expr, env Env) (value.Value, error) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Val, nil
	case *ast.Ident:
		if v, ok := env.Lookup(x.Table, x.Name); ok {
			return v, nil
		}
		return value.Value{}, fmt.Errorf("unbound name %s", x.String())
	case *ast.Param:
		if v, ok := env.Param(x.Name); ok {
			return v, nil
		}
		return value.Value{}, fmt.Errorf("unbound parameter ?%s", x.Name)
	case *ast.Unary:
		return ev.evalUnary(x, env)
	case *ast.Binary:
		return ev.evalBinary(x, env)
	case *ast.FuncCall:
		return ev.evalCall(x, env)
	case *ast.Case:
		return ev.evalCase(x, env)
	case *ast.Cast:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.Coerce(v, x.To)
	case *ast.IsNull:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewBool(v.Null != x.Neg), nil
	case *ast.Between:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		lo, err := ev.Eval(x.Lo, env)
		if err != nil {
			return value.Value{}, err
		}
		hi, err := ev.Eval(x.Hi, env)
		if err != nil {
			return value.Value{}, err
		}
		if v.Null || lo.Null || hi.Null {
			return value.NewNull(value.Bool), nil
		}
		in := value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
		return value.NewBool(in != x.Neg), nil
	case *ast.InList:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return value.Value{}, err
		}
		if v.Null {
			return value.NewNull(value.Bool), nil
		}
		found := false
		for _, el := range x.Elems {
			ev2, err := ev.Eval(el, env)
			if err != nil {
				return value.Value{}, err
			}
			if value.Equal(v, ev2) {
				found = true
				break
			}
		}
		return value.NewBool(found != x.Neg), nil
	case *ast.Subquery:
		if ev.Hooks.Subquery == nil {
			return value.Value{}, fmt.Errorf("subquery not supported in this context")
		}
		return ev.Hooks.Subquery(x.Select, env)
	case *ast.ArrayRef:
		if ev.Hooks.ArrayRef == nil {
			return value.Value{}, fmt.Errorf("array reference not supported in this context")
		}
		return ev.Hooks.ArrayRef(x, env)
	case *ast.ExprList:
		// Scalar contexts take the first element; array SET statements
		// intercept the list before evaluation.
		if len(x.Elems) == 0 {
			return value.NewNull(value.Unknown), nil
		}
		return ev.Eval(x.Elems[0], env)
	case *ast.Star:
		return value.Value{}, fmt.Errorf("'*' is only valid in a target list")
	default:
		return value.Value{}, fmt.Errorf("cannot evaluate %T", e)
	}
}

// EvalBool computes a predicate; NULL counts as false (SQL WHERE).
func (ev *Evaluator) EvalBool(e ast.Expr, env Env) (bool, error) {
	v, err := ev.Eval(e, env)
	if err != nil {
		return false, err
	}
	return !v.Null && v.AsBool(), nil
}

func (ev *Evaluator) evalUnary(x *ast.Unary, env Env) (value.Value, error) {
	v, err := ev.Eval(x.X, env)
	if err != nil {
		return value.Value{}, err
	}
	switch x.Op {
	case "-":
		if v.Null {
			return v, nil
		}
		switch v.Typ {
		case value.Int:
			return value.NewInt(-v.I), nil
		case value.Float:
			return value.NewFloat(-v.F), nil
		}
		return value.Value{}, fmt.Errorf("cannot negate %s", v.Typ)
	case "NOT":
		if v.Null {
			return value.NewNull(value.Bool), nil
		}
		return value.NewBool(!v.AsBool()), nil
	}
	return value.Value{}, fmt.Errorf("unknown unary operator %s", x.Op)
}

func (ev *Evaluator) evalBinary(x *ast.Binary, env Env) (value.Value, error) {
	// AND/OR shortcut with three-valued logic.
	switch x.Op {
	case "AND":
		l, err := ev.Eval(x.L, env)
		if err != nil {
			return value.Value{}, err
		}
		if !l.Null && !l.AsBool() {
			return value.NewBool(false), nil
		}
		r, err := ev.Eval(x.R, env)
		if err != nil {
			return value.Value{}, err
		}
		if !r.Null && !r.AsBool() {
			return value.NewBool(false), nil
		}
		if l.Null || r.Null {
			return value.NewNull(value.Bool), nil
		}
		return value.NewBool(true), nil
	case "OR":
		l, err := ev.Eval(x.L, env)
		if err != nil {
			return value.Value{}, err
		}
		if !l.Null && l.AsBool() {
			return value.NewBool(true), nil
		}
		r, err := ev.Eval(x.R, env)
		if err != nil {
			return value.Value{}, err
		}
		if !r.Null && r.AsBool() {
			return value.NewBool(true), nil
		}
		if l.Null || r.Null {
			return value.NewNull(value.Bool), nil
		}
		return value.NewBool(false), nil
	}
	l, err := ev.Eval(x.L, env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ev.Eval(x.R, env)
	if err != nil {
		return value.Value{}, err
	}
	return Apply(x.Op, l, r)
}

// Apply computes l op r with SQL NULL propagation.
func Apply(op string, l, r value.Value) (value.Value, error) {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.Null || r.Null {
			return value.NewNull(value.Bool), nil
		}
		c := value.Compare(l, r)
		var b bool
		switch op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return value.NewBool(b), nil
	case "||":
		if l.Null || r.Null {
			return value.NewNull(value.String), nil
		}
		return value.NewString(l.String() + r.String()), nil
	}
	if l.Null || r.Null {
		t := value.Float
		if l.Typ == value.Int && r.Typ == value.Int {
			t = value.Int
		}
		return value.NewNull(t), nil
	}
	// Timestamp arithmetic: ts - ts = int (micros); ts ± int = ts.
	if l.Typ == value.Timestamp || r.Typ == value.Timestamp {
		switch op {
		case "-":
			if l.Typ == value.Timestamp && r.Typ == value.Timestamp {
				return value.NewInt(l.I - r.I), nil
			}
			if l.Typ == value.Timestamp {
				return value.NewTimestamp(l.I - r.AsInt()), nil
			}
		case "+":
			if l.Typ == value.Timestamp && r.Typ != value.Timestamp {
				return value.NewTimestamp(l.I + r.AsInt()), nil
			}
			if r.Typ == value.Timestamp && l.Typ != value.Timestamp {
				return value.NewTimestamp(r.I + l.AsInt()), nil
			}
		}
		return value.Value{}, fmt.Errorf("invalid timestamp arithmetic %s", op)
	}
	if l.Typ == value.Int && r.Typ == value.Int {
		a, b := l.I, r.I
		switch op {
		case "+":
			return value.NewInt(a + b), nil
		case "-":
			return value.NewInt(a - b), nil
		case "*":
			return value.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return value.NewNull(value.Int), nil
			}
			return value.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return value.NewNull(value.Int), nil
			}
			return value.NewInt(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return value.NewFloat(a + b), nil
	case "-":
		return value.NewFloat(a - b), nil
	case "*":
		return value.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return value.NewNull(value.Float), nil
		}
		return value.NewFloat(a / b), nil
	case "%":
		if b == 0 {
			return value.NewNull(value.Float), nil
		}
		return value.NewFloat(math.Mod(a, b)), nil
	}
	return value.Value{}, fmt.Errorf("unknown operator %s", op)
}

func (ev *Evaluator) evalCase(x *ast.Case, env Env) (value.Value, error) {
	var operand value.Value
	if x.Operand != nil {
		v, err := ev.Eval(x.Operand, env)
		if err != nil {
			return value.Value{}, err
		}
		operand = v
	}
	for _, w := range x.Whens {
		if x.Operand != nil {
			v, err := ev.Eval(w.Cond, env)
			if err != nil {
				return value.Value{}, err
			}
			if value.Equal(operand, v) {
				return ev.Eval(w.Result, env)
			}
		} else {
			ok, err := ev.EvalBool(w.Cond, env)
			if err != nil {
				return value.Value{}, err
			}
			if ok {
				return ev.Eval(w.Result, env)
			}
		}
	}
	if x.Else != nil {
		return ev.Eval(x.Else, env)
	}
	return value.NewNull(value.Unknown), nil
}

func (ev *Evaluator) evalCall(x *ast.FuncCall, env Env) (value.Value, error) {
	name := strings.ToUpper(x.Name)
	if fn, ok := builtins[name]; ok {
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := ev.Eval(a, env)
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return fn(ev, args)
	}
	if ev.Hooks.Call != nil {
		args := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := ev.Eval(a, env)
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return ev.Hooks.Call(x.Name, args, env)
	}
	return value.Value{}, fmt.Errorf("unknown function %s", x.Name)
}

// builtinFn is a scalar builtin implementation.
type builtinFn func(ev *Evaluator, args []value.Value) (value.Value, error)

func need(args []value.Value, n int, name string) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func anyNull(args []value.Value) bool {
	for _, a := range args {
		if a.Null {
			return true
		}
	}
	return false
}

func float1(name string, f func(float64) float64) builtinFn {
	return func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 1, name); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.Float), nil
		}
		return value.NewFloat(f(args[0].AsFloat())), nil
	}
}

// builtins is the scalar function library. The set covers everything
// the paper's examples call plus the usual SQL scalars.
var builtins = map[string]builtinFn{
	"ABS": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 1, "ABS"); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.Float), nil
		}
		if args[0].Typ == value.Int {
			i := args[0].I
			if i < 0 {
				i = -i
			}
			return value.NewInt(i), nil
		}
		return value.NewFloat(math.Abs(args[0].AsFloat())), nil
	},
	"MOD": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 2, "MOD"); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.Int), nil
		}
		if args[0].Typ == value.Int && args[1].Typ == value.Int {
			if args[1].I == 0 {
				return value.NewNull(value.Int), nil
			}
			return value.NewInt(args[0].I % args[1].I), nil
		}
		b := args[1].AsFloat()
		if b == 0 {
			return value.NewNull(value.Float), nil
		}
		return value.NewFloat(math.Mod(args[0].AsFloat(), b)), nil
	},
	"POWER": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 2, "POWER"); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.Float), nil
		}
		return value.NewFloat(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	},
	"SQRT":    float1("SQRT", math.Sqrt),
	"EXP":     float1("EXP", math.Exp),
	"LN":      float1("LN", math.Log),
	"LOG":     float1("LOG", math.Log10),
	"SIN":     float1("SIN", math.Sin),
	"COS":     float1("COS", math.Cos),
	"TAN":     float1("TAN", math.Tan),
	"ARCSIN":  float1("ARCSIN", math.Asin),
	"ASIN":    float1("ASIN", math.Asin),
	"ARCCOS":  float1("ARCCOS", math.Acos),
	"ACOS":    float1("ACOS", math.Acos),
	"ATAN":    float1("ATAN", math.Atan),
	"FLOOR":   float1("FLOOR", math.Floor),
	"CEIL":    float1("CEIL", math.Ceil),
	"CEILING": float1("CEILING", math.Ceil),
	"ROUND":   float1("ROUND", math.Round),
	"PI": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 0, "PI"); err != nil {
			return value.Value{}, err
		}
		return value.NewFloat(math.Pi), nil
	},
	"RAND": func(ev *Evaluator, args []value.Value) (value.Value, error) {
		if len(args) != 0 {
			return value.Value{}, fmt.Errorf("RAND expects no arguments")
		}
		if ev.Rand == nil {
			ev.Rand = rand.New(rand.NewSource(42))
		}
		// SQL RAND() convention from the paper's usage MOD(RAND(),16):
		// a non-negative integer.
		return value.NewInt(int64(ev.Rand.Uint32())), nil
	},
	"GREATEST": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return value.NewNull(value.Unknown), nil
		}
		out := args[0]
		for _, a := range args[1:] {
			if a.Null {
				return value.NewNull(out.Typ), nil
			}
			if value.Compare(a, out) > 0 {
				out = a
			}
		}
		return out, nil
	},
	"LEAST": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return value.NewNull(value.Unknown), nil
		}
		out := args[0]
		for _, a := range args[1:] {
			if a.Null {
				return value.NewNull(out.Typ), nil
			}
			if value.Compare(a, out) < 0 {
				out = a
			}
		}
		return out, nil
	},
	"COALESCE": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !a.Null {
				return a, nil
			}
		}
		return value.NewNull(value.Unknown), nil
	},
	"UPPER": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 1, "UPPER"); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.String), nil
		}
		return value.NewString(strings.ToUpper(args[0].S)), nil
	},
	"LOWER": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 1, "LOWER"); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.String), nil
		}
		return value.NewString(strings.ToLower(args[0].S)), nil
	},
	"LENGTH": func(_ *Evaluator, args []value.Value) (value.Value, error) {
		if err := need(args, 1, "LENGTH"); err != nil {
			return value.Value{}, err
		}
		if anyNull(args) {
			return value.NewNull(value.Int), nil
		}
		return value.NewInt(int64(len(args[0].S))), nil
	},
}

// IsBuiltin reports whether name is a scalar builtin.
func IsBuiltin(name string) bool {
	_, ok := builtins[strings.ToUpper(name)]
	return ok
}
