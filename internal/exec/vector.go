package exec

// Vectorized expression execution: a compiler that turns a supported
// scalar AST expression into a tree of typed bulk kernels over
// bat.Vector columns (internal/bat/kernels.go), evaluated one batch
// (scan chunk / morsel) at a time instead of one cell at a time —
// the column-at-a-time execution model of the paper's §2.2.
//
// The compiled program is statically typed from the source column
// types; the supported surface is arithmetic (+ - * / %), comparisons,
// AND/OR/NOT three-valued logic, IS [NOT] NULL, BETWEEN and IN over
// constant bounds, and the pure numeric builtins (MOD, ABS, POWER and
// the SQRT/EXP/LN/trig family), over column references, dimension
// references and constants. Results are byte-identical to the
// tree-walking interpreter: SQL NULL propagation, division (and
// modulo) by zero yielding NULL, and int→float promotion follow
// expr.Apply exactly. Anything outside the surface — subqueries, CASE,
// casts, string operators, UDFs, host parameters, outer-bound names —
// makes compilation fail and the caller falls back to the row-at-a-
// time interpreter, transparently.

import (
	"math"
	"strings"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/sql/ast"
	"repro/internal/value"
)

// vecBatchRows is the batch granularity of vectorized loops: large
// enough to amortize kernel dispatch, small enough that a batch's
// working set stays cache-resident.
const vecBatchRows = 4096

// vres is one kernel operand/result: a vector, or a broadcast scalar
// (vec == nil).
type vres struct {
	vec bat.Vector
	cv  value.Value
}

// vexpr is one node of a compiled kernel tree. eval computes rows
// [lo, hi) of the batch columns. Nodes are immutable after compile and
// allocate fresh outputs, so concurrent workers share one program.
type vexpr interface {
	eval(batch []bat.Vector, lo, hi int) vres
}

// vecProg is a compiled expression: the kernel tree plus the column
// binding signature it was compiled against.
type vecProg struct {
	root vexpr
	typ  value.Type
	cols []Col // binding signature for cache validation
	used []int // referenced batch column positions
	// strict marks rowEnv-style binding (ambiguous names rejected);
	// false is valuesEnv-style first-match binding.
	strict bool
}

// eval computes the expression over rows [lo, hi) of batch, returning
// a vector of hi-lo elements. Callers must have checked validFor.
func (p *vecProg) eval(batch []bat.Vector, lo, hi int) bat.Vector {
	r := p.root.eval(batch, lo, hi)
	if r.vec != nil {
		return r.vec
	}
	t := p.typ
	if t == value.Unknown {
		t = r.cv.Typ
	}
	return bat.Broadcast(r.cv, t, hi-lo)
}

// filterSel evaluates the program as a predicate over rows [lo, hi)
// and returns the passing positions relative to lo (SQL WHERE truth:
// non-NULL and true).
func (p *vecProg) filterSel(batch []bat.Vector, lo, hi int) []int {
	r := p.root.eval(batch, lo, hi)
	if r.vec == nil {
		if r.cv.Null || !r.cv.AsBool() {
			return nil
		}
		sel := make([]int, hi-lo)
		for i := range sel {
			sel[i] = i
		}
		return sel
	}
	return bat.TruthSel(r.vec)
}

// validFor verifies the batch's referenced columns are backed by the
// representations the program was compiled for; a mismatch (boxed
// vector under a typed column) makes the caller fall back.
func (p *vecProg) validFor(batch []bat.Vector) bool {
	if len(batch) != len(p.cols) {
		return false
	}
	for _, ci := range p.used {
		if !vecBacked(batch[ci], p.cols[ci].Typ) {
			return false
		}
	}
	return true
}

func vecBacked(v bat.Vector, t value.Type) bool {
	switch t {
	case value.Int, value.Timestamp:
		iv, ok := v.(*bat.IntVector)
		return ok && iv.Type() == t
	case value.Float:
		_, ok := v.(*bat.FloatVector)
		return ok
	case value.Bool:
		_, ok := v.(*bat.BoolVector)
		return ok
	case value.String:
		_, ok := v.(*bat.StringVector)
		return ok
	default:
		return v.Type() == t
	}
}

// sigMatches reports whether the program's compile-time column layout
// matches cols (the cache validity check).
func (p *vecProg) sigMatches(cols []Col, strict bool) bool {
	if p.strict != strict || len(p.cols) != len(cols) {
		return false
	}
	for i := range cols {
		if p.cols[i].Name != cols[i].Name || p.cols[i].Qual != cols[i].Qual ||
			p.cols[i].Typ != cols[i].Typ || p.cols[i].IsDim != cols[i].IsDim {
			return false
		}
	}
	return true
}

// --- compiler ---------------------------------------------------------------

type vecCompiler struct {
	cols   []Col
	strict bool
	used   map[int]bool
}

// compileVec compiles x against the column layout; nil when any
// construct falls outside the vectorizable surface.
func compileVec(x ast.Expr, cols []Col, strict bool) *vecProg {
	c := &vecCompiler{cols: cols, strict: strict, used: map[int]bool{}}
	node, typ, ok := c.compile(x)
	if !ok || typ == value.Unknown {
		return nil
	}
	p := &vecProg{root: node, typ: typ, cols: append([]Col(nil), cols...), strict: strict}
	for ci := range c.used {
		p.used = append(p.used, ci)
	}
	return p
}

func numericType(t value.Type) bool { return t == value.Int || t == value.Float }

// bind resolves an identifier to a column position, mirroring the
// lookup semantics of the execution environment the program will run
// under: strict is Dataset.ColIndex (ambiguous names rejected), loose
// is valuesEnv's first match.
func (c *vecCompiler) bind(qual, name string) int {
	found := -1
	for i, col := range c.cols {
		if !strings.EqualFold(col.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(col.Qual, qual) {
			continue
		}
		if !c.strict {
			return i
		}
		if found >= 0 {
			return -1 // ambiguous: the interpreter would error; fall back
		}
		found = i
	}
	return found
}

// float1Builtins maps the pure float builtin family onto Go functions,
// matching the interpreter's builtin table.
var float1Builtins = map[string]func(float64) float64{
	"SQRT": math.Sqrt, "EXP": math.Exp, "LN": math.Log, "LOG": math.Log10,
	"SIN": math.Sin, "COS": math.Cos, "TAN": math.Tan,
	"ARCSIN": math.Asin, "ASIN": math.Asin, "ARCCOS": math.Acos, "ACOS": math.Acos,
	"ATAN": math.Atan, "FLOOR": math.Floor, "CEIL": math.Ceil, "CEILING": math.Ceil,
	"ROUND": math.Round,
}

func (c *vecCompiler) compile(x ast.Expr) (vexpr, value.Type, bool) {
	switch t := x.(type) {
	case *ast.Literal:
		v := t.Val
		if v.Null || (v.Typ != value.Int && v.Typ != value.Float && v.Typ != value.Bool) {
			return nil, 0, false
		}
		return &vconst{v: v}, v.Typ, true
	case *ast.Ident:
		ci := c.bind(t.Table, t.Name)
		if ci < 0 {
			return nil, 0, false
		}
		typ := c.cols[ci].Typ
		if typ == value.Unknown {
			return nil, 0, false
		}
		c.used[ci] = true
		return &vcol{idx: ci}, typ, true
	case *ast.Unary:
		switch t.Op {
		case "-":
			xn, xt, ok := c.compile(t.X)
			if !ok || !numericType(xt) {
				return nil, 0, false
			}
			return foldNeg(xn, xt)
		case "NOT":
			xn, xt, ok := c.compile(t.X)
			if !ok || xt != value.Bool {
				return nil, 0, false
			}
			return foldNot(xn)
		}
		return nil, 0, false
	case *ast.Binary:
		return c.compileBinary(t.Op, t.L, t.R)
	case *ast.IsNull:
		xn, _, ok := c.compile(t.X)
		if !ok {
			return nil, 0, false
		}
		if cn, isC := xn.(*vconst); isC {
			return &vconst{v: value.NewBool(cn.v.Null != t.Neg)}, value.Bool, true
		}
		return &visnull{x: xn, neg: t.Neg}, value.Bool, true
	case *ast.Between:
		// Lowered to (NOT)(x >= lo AND x <= hi). With constant non-NULL
		// bounds this is exactly the interpreter's semantics: the result
		// is NULL iff x is NULL (both comparisons turn NULL together, so
		// three-valued AND agrees with the any-NULL rule).
		lo, lok := constNumeric(t.Lo)
		hi, hok := constNumeric(t.Hi)
		if !lok || !hok {
			return nil, 0, false
		}
		xn, xt, ok := c.compile(t.X)
		if !ok || !numericType(xt) {
			return nil, 0, false
		}
		ln, _, ok1 := foldCmp(">=", xn, xt, &vconst{v: lo}, lo.Typ)
		hn, _, ok2 := foldCmp("<=", xn, xt, &vconst{v: hi}, hi.Typ)
		if !ok1 || !ok2 {
			return nil, 0, false
		}
		out, _, ok3 := foldLogic(true, ln, hn)
		if !ok3 {
			return nil, 0, false
		}
		if t.Neg {
			return foldNot(out)
		}
		return out, value.Bool, true
	case *ast.InList:
		// x IN (c1, c2, ...) with constant non-NULL elements lowers to
		// an OR chain of equalities, which matches the interpreter for
		// both the found and the NULL-operand case.
		xn, xt, ok := c.compile(t.X)
		if !ok || !numericType(xt) || len(t.Elems) == 0 {
			return nil, 0, false
		}
		var out vexpr
		for _, el := range t.Elems {
			cv, cok := constNumeric(el)
			if !cok {
				return nil, 0, false
			}
			cmp, _, cmpOK := foldCmp("=", xn, xt, &vconst{v: cv}, cv.Typ)
			if !cmpOK {
				return nil, 0, false
			}
			if out == nil {
				out = cmp
				continue
			}
			combined, _, lok := foldLogic(false, out, cmp)
			if !lok {
				return nil, 0, false
			}
			out = combined
		}
		if t.Neg {
			return foldNot(out)
		}
		return out, value.Bool, true
	case *ast.FuncCall:
		return c.compileCall(t)
	}
	return nil, 0, false
}

// constNumeric accepts a literal (possibly negated) of Int or Float
// type; BETWEEN/IN bounds must be constants for the lowering to stay
// exact.
func constNumeric(x ast.Expr) (value.Value, bool) {
	if u, ok := x.(*ast.Unary); ok && u.Op == "-" {
		v, vok := constNumeric(u.X)
		if !vok {
			return value.Value{}, false
		}
		if v.Typ == value.Int {
			return value.NewInt(-v.I), true
		}
		return value.NewFloat(-v.F), true
	}
	lit, ok := x.(*ast.Literal)
	if !ok || lit.Val.Null || !numericType(lit.Val.Typ) {
		return value.Value{}, false
	}
	return lit.Val, true
}

func (c *vecCompiler) compileBinary(op string, l, r ast.Expr) (vexpr, value.Type, bool) {
	switch op {
	case "AND", "OR":
		ln, lt, lok := c.compile(l)
		rn, rt, rok := c.compile(r)
		if !lok || !rok || lt != value.Bool || rt != value.Bool {
			return nil, 0, false
		}
		return foldLogic(op == "AND", ln, rn)
	case "=", "<>", "<", "<=", ">", ">=":
		ln, lt, lok := c.compile(l)
		rn, rt, rok := c.compile(r)
		if !lok || !rok || !numericType(lt) || !numericType(rt) {
			return nil, 0, false
		}
		return foldCmp(op, ln, lt, rn, rt)
	case "+", "-", "*", "/", "%":
		ln, lt, lok := c.compile(l)
		rn, rt, rok := c.compile(r)
		if !lok || !rok || !numericType(lt) || !numericType(rt) {
			return nil, 0, false
		}
		return foldArith(op, ln, lt, rn, rt)
	}
	return nil, 0, false
}

func (c *vecCompiler) compileCall(f *ast.FuncCall) (vexpr, value.Type, bool) {
	if f.IsAggregate() || f.Star || f.Distinct {
		return nil, 0, false
	}
	name := strings.ToUpper(f.Name)
	switch {
	case name == "MOD" && len(f.Args) == 2:
		// MOD(a, b) computes exactly like the % operator (the NULL
		// result's type tag differs, which no output path can observe).
		ln, lt, lok := c.compile(f.Args[0])
		rn, rt, rok := c.compile(f.Args[1])
		if !lok || !rok || !numericType(lt) || !numericType(rt) {
			return nil, 0, false
		}
		return foldArith("%", ln, lt, rn, rt)
	case name == "ABS" && len(f.Args) == 1:
		xn, xt, ok := c.compile(f.Args[0])
		if !ok || !numericType(xt) {
			return nil, 0, false
		}
		if cn, isC := xn.(*vconst); isC {
			return &vconst{v: absConst(cn.v)}, xt, true
		}
		return &vabs{x: xn, flt: xt == value.Float}, xt, true
	case name == "POWER" && len(f.Args) == 2:
		ln, lt, lok := c.compile(f.Args[0])
		rn, rt, rok := c.compile(f.Args[1])
		if !lok || !rok || !numericType(lt) || !numericType(rt) {
			return nil, 0, false
		}
		ln = promoteFloat(ln, lt)
		rn = promoteFloat(rn, rt)
		lc, lIsC := ln.(*vconst)
		rc, rIsC := rn.(*vconst)
		if lIsC && rIsC {
			if lc.v.Null || rc.v.Null {
				return &vconst{v: value.NewNull(value.Float)}, value.Float, true
			}
			return &vconst{v: value.NewFloat(math.Pow(lc.v.F, rc.v.F))}, value.Float, true
		}
		if (lIsC && lc.v.Null) || (rIsC && rc.v.Null) {
			return &vconst{v: value.NewNull(value.Float)}, value.Float, true
		}
		return &vpow{l: ln, r: rn}, value.Float, true
	default:
		fn, ok := float1Builtins[name]
		if !ok || len(f.Args) != 1 {
			return nil, 0, false
		}
		xn, xt, cok := c.compile(f.Args[0])
		if !cok || !numericType(xt) {
			return nil, 0, false
		}
		xn = promoteFloat(xn, xt)
		if cn, isC := xn.(*vconst); isC {
			if cn.v.Null {
				return &vconst{v: value.NewNull(value.Float)}, value.Float, true
			}
			return &vconst{v: value.NewFloat(fn(cn.v.F))}, value.Float, true
		}
		return &vmap1{f: fn, x: xn}, value.Float, true
	}
}

func absConst(v value.Value) value.Value {
	if v.Null {
		return value.NewNull(v.Typ)
	}
	if v.Typ == value.Int {
		i := v.I
		if i < 0 {
			i = -i
		}
		return value.NewInt(i)
	}
	return value.NewFloat(math.Abs(v.F))
}

// promoteFloat wraps an Int-typed node with the int→float conversion
// kernel (constants convert at compile time).
func promoteFloat(n vexpr, t value.Type) vexpr {
	if t != value.Int {
		return n
	}
	if cn, ok := n.(*vconst); ok {
		if cn.v.Null {
			return &vconst{v: value.NewNull(value.Float)}
		}
		return &vconst{v: value.NewFloat(cn.v.AsFloat())}
	}
	return &vtofloat{x: n}
}

// foldArith builds an arithmetic node with int/float promotion,
// folding constant operands (a NULL constant makes the whole result a
// typed NULL constant, matching unconditional NULL propagation).
func foldArith(op string, ln vexpr, lt value.Type, rn vexpr, rt value.Type) (vexpr, value.Type, bool) {
	typ := value.Float
	if lt == value.Int && rt == value.Int {
		typ = value.Int
	}
	lc, lIsC := ln.(*vconst)
	rc, rIsC := rn.(*vconst)
	if lIsC && rIsC {
		v, err := expr.Apply(op, lc.v, rc.v)
		if err != nil {
			return nil, 0, false
		}
		return &vconst{v: v}, typ, true
	}
	if (lIsC && lc.v.Null) || (rIsC && rc.v.Null) {
		return &vconst{v: value.NewNull(typ)}, typ, true
	}
	if typ == value.Float {
		ln = promoteFloat(ln, lt)
		rn = promoteFloat(rn, rt)
	}
	return &varith{op: op, l: ln, r: rn, flt: typ == value.Float}, typ, true
}

// foldCmp builds a comparison node; mixed int/float operands compare
// as floats, exactly like value.Compare.
func foldCmp(op string, ln vexpr, lt value.Type, rn vexpr, rt value.Type) (vexpr, value.Type, bool) {
	flt := !(lt == value.Int && rt == value.Int)
	lc, lIsC := ln.(*vconst)
	rc, rIsC := rn.(*vconst)
	if lIsC && rIsC {
		v, err := expr.Apply(op, lc.v, rc.v)
		if err != nil {
			return nil, 0, false
		}
		return &vconst{v: v}, value.Bool, true
	}
	if (lIsC && lc.v.Null) || (rIsC && rc.v.Null) {
		return &vconst{v: value.NewNull(value.Bool)}, value.Bool, true
	}
	if flt {
		ln = promoteFloat(ln, lt)
		rn = promoteFloat(rn, rt)
	}
	return &vcmp{op: op, l: ln, r: rn, flt: flt}, value.Bool, true
}

// foldLogic builds AND/OR with three-valued constant folding.
func foldLogic(and bool, ln, rn vexpr) (vexpr, value.Type, bool) {
	lc, lIsC := ln.(*vconst)
	rc, rIsC := rn.(*vconst)
	if lIsC && rIsC {
		return &vconst{v: logic3(and, lc.v, rc.v)}, value.Bool, true
	}
	// A dominant constant (false for AND, true for OR) decides the
	// whole expression; the vector side is pure, so skipping it is
	// unobservable.
	if lIsC && !lc.v.Null && lc.v.AsBool() != and {
		return lc, value.Bool, true
	}
	if rIsC && !rc.v.Null && rc.v.AsBool() != and {
		return rc, value.Bool, true
	}
	// A neutral constant (true for AND, false for OR) is the identity.
	if lIsC && !lc.v.Null {
		return rn, value.Bool, true
	}
	if rIsC && !rc.v.Null {
		return ln, value.Bool, true
	}
	return &vlogic{and: and, l: ln, r: rn}, value.Bool, true
}

// logic3 is scalar three-valued AND/OR.
func logic3(and bool, l, r value.Value) value.Value {
	lt, lf := !l.Null && l.AsBool(), !l.Null && !l.AsBool()
	rt, rf := !r.Null && r.AsBool(), !r.Null && !r.AsBool()
	if and {
		switch {
		case lf || rf:
			return value.NewBool(false)
		case l.Null || r.Null:
			return value.NewNull(value.Bool)
		default:
			return value.NewBool(true)
		}
	}
	switch {
	case lt || rt:
		return value.NewBool(true)
	case l.Null || r.Null:
		return value.NewNull(value.Bool)
	default:
		return value.NewBool(false)
	}
}

func foldNot(x vexpr) (vexpr, value.Type, bool) {
	if cn, ok := x.(*vconst); ok {
		if cn.v.Null {
			return &vconst{v: value.NewNull(value.Bool)}, value.Bool, true
		}
		return &vconst{v: value.NewBool(!cn.v.AsBool())}, value.Bool, true
	}
	return &vnot{x: x}, value.Bool, true
}

func foldNeg(x vexpr, t value.Type) (vexpr, value.Type, bool) {
	if cn, ok := x.(*vconst); ok {
		if cn.v.Null {
			return cn, t, true
		}
		if t == value.Int {
			return &vconst{v: value.NewInt(-cn.v.I)}, t, true
		}
		return &vconst{v: value.NewFloat(-cn.v.F)}, t, true
	}
	return &vneg{x: x, flt: t == value.Float}, t, true
}

// --- node evaluation ---------------------------------------------------------

type vconst struct{ v value.Value }

func (n *vconst) eval([]bat.Vector, int, int) vres { return vres{cv: n.v} }

type vcol struct{ idx int }

func (n *vcol) eval(batch []bat.Vector, lo, hi int) vres {
	return vres{vec: bat.ViewRange(batch[n.idx], lo, hi)}
}

type vtofloat struct{ x vexpr }

func (n *vtofloat) eval(batch []bat.Vector, lo, hi int) vres {
	r := n.x.eval(batch, lo, hi)
	return vres{vec: bat.ToFloat64(r.vec.(*bat.IntVector))}
}

type vneg struct {
	x   vexpr
	flt bool
}

func (n *vneg) eval(batch []bat.Vector, lo, hi int) vres {
	r := n.x.eval(batch, lo, hi)
	if n.flt {
		return vres{vec: bat.NegFloat64(r.vec.(*bat.FloatVector))}
	}
	return vres{vec: bat.NegInt64(r.vec.(*bat.IntVector))}
}

type vabs struct {
	x   vexpr
	flt bool
}

func (n *vabs) eval(batch []bat.Vector, lo, hi int) vres {
	r := n.x.eval(batch, lo, hi)
	if n.flt {
		return vres{vec: bat.AbsFloat64(r.vec.(*bat.FloatVector))}
	}
	return vres{vec: bat.AbsInt64(r.vec.(*bat.IntVector))}
}

type vmap1 struct {
	f func(float64) float64
	x vexpr
}

func (n *vmap1) eval(batch []bat.Vector, lo, hi int) vres {
	r := n.x.eval(batch, lo, hi)
	return vres{vec: bat.MapFloat64(n.f, r.vec.(*bat.FloatVector))}
}

type vpow struct{ l, r vexpr }

func (n *vpow) eval(batch []bat.Vector, lo, hi int) vres {
	l := n.l.eval(batch, lo, hi)
	r := n.r.eval(batch, lo, hi)
	switch {
	case l.vec == nil:
		return vres{vec: bat.PowCFloat64(l.cv.F, r.vec.(*bat.FloatVector))}
	case r.vec == nil:
		return vres{vec: bat.PowFloat64C(l.vec.(*bat.FloatVector), r.cv.F)}
	default:
		return vres{vec: bat.PowFloat64(l.vec.(*bat.FloatVector), r.vec.(*bat.FloatVector))}
	}
}

type varith struct {
	op   string
	l, r vexpr
	flt  bool
}

func (n *varith) eval(batch []bat.Vector, lo, hi int) vres {
	l := n.l.eval(batch, lo, hi)
	r := n.r.eval(batch, lo, hi)
	if n.flt {
		switch {
		case l.vec == nil:
			c, b := l.cv.F, r.vec.(*bat.FloatVector)
			switch n.op {
			case "+":
				return vres{vec: bat.AddFloat64C(b, c)}
			case "-":
				return vres{vec: bat.SubCFloat64(c, b)}
			case "*":
				return vres{vec: bat.MulFloat64C(b, c)}
			case "/":
				return vres{vec: bat.DivCFloat64(c, b)}
			default:
				return vres{vec: bat.ModCFloat64(c, b)}
			}
		case r.vec == nil:
			a, c := l.vec.(*bat.FloatVector), r.cv.F
			switch n.op {
			case "+":
				return vres{vec: bat.AddFloat64C(a, c)}
			case "-":
				return vres{vec: bat.SubFloat64C(a, c)}
			case "*":
				return vres{vec: bat.MulFloat64C(a, c)}
			case "/":
				return vres{vec: bat.DivFloat64C(a, c)}
			default:
				return vres{vec: bat.ModFloat64C(a, c)}
			}
		default:
			a, b := l.vec.(*bat.FloatVector), r.vec.(*bat.FloatVector)
			switch n.op {
			case "+":
				return vres{vec: bat.AddFloat64(a, b)}
			case "-":
				return vres{vec: bat.SubFloat64(a, b)}
			case "*":
				return vres{vec: bat.MulFloat64(a, b)}
			case "/":
				return vres{vec: bat.DivFloat64(a, b)}
			default:
				return vres{vec: bat.ModFloat64(a, b)}
			}
		}
	}
	switch {
	case l.vec == nil:
		c, b := l.cv.I, r.vec.(*bat.IntVector)
		switch n.op {
		case "+":
			return vres{vec: bat.AddInt64C(b, c)}
		case "-":
			return vres{vec: bat.SubCInt64(c, b)}
		case "*":
			return vres{vec: bat.MulInt64C(b, c)}
		case "/":
			return vres{vec: bat.DivCInt64(c, b)}
		default:
			return vres{vec: bat.ModCInt64(c, b)}
		}
	case r.vec == nil:
		a, c := l.vec.(*bat.IntVector), r.cv.I
		switch n.op {
		case "+":
			return vres{vec: bat.AddInt64C(a, c)}
		case "-":
			return vres{vec: bat.SubInt64C(a, c)}
		case "*":
			return vres{vec: bat.MulInt64C(a, c)}
		case "/":
			return vres{vec: bat.DivInt64C(a, c)}
		default:
			return vres{vec: bat.ModInt64C(a, c)}
		}
	default:
		a, b := l.vec.(*bat.IntVector), r.vec.(*bat.IntVector)
		switch n.op {
		case "+":
			return vres{vec: bat.AddInt64(a, b)}
		case "-":
			return vres{vec: bat.SubInt64(a, b)}
		case "*":
			return vres{vec: bat.MulInt64(a, b)}
		case "/":
			return vres{vec: bat.DivInt64(a, b)}
		default:
			return vres{vec: bat.ModInt64(a, b)}
		}
	}
}

// flipCmp mirrors an operator across its operands (c < x ≡ x > c).
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // = and <> are symmetric
}

type vcmp struct {
	op   string
	l, r vexpr
	flt  bool
}

func (n *vcmp) eval(batch []bat.Vector, lo, hi int) vres {
	l := n.l.eval(batch, lo, hi)
	r := n.r.eval(batch, lo, hi)
	if n.flt {
		switch {
		case l.vec == nil:
			return vres{vec: bat.CmpFloat64C(flipCmp(n.op), r.vec.(*bat.FloatVector), l.cv.F)}
		case r.vec == nil:
			return vres{vec: bat.CmpFloat64C(n.op, l.vec.(*bat.FloatVector), r.cv.F)}
		default:
			return vres{vec: bat.CmpFloat64(n.op, l.vec.(*bat.FloatVector), r.vec.(*bat.FloatVector))}
		}
	}
	switch {
	case l.vec == nil:
		return vres{vec: bat.CmpInt64C(flipCmp(n.op), r.vec.(*bat.IntVector), l.cv.I)}
	case r.vec == nil:
		return vres{vec: bat.CmpInt64C(n.op, l.vec.(*bat.IntVector), r.cv.I)}
	default:
		return vres{vec: bat.CmpInt64(n.op, l.vec.(*bat.IntVector), r.vec.(*bat.IntVector))}
	}
}

type vlogic struct {
	and  bool
	l, r vexpr
}

func (n *vlogic) eval(batch []bat.Vector, lo, hi int) vres {
	l := n.l.eval(batch, lo, hi)
	r := n.r.eval(batch, lo, hi)
	lb := boolOperand(l, hi-lo)
	rb := boolOperand(r, hi-lo)
	if n.and {
		return vres{vec: bat.AndBool(lb, rb)}
	}
	return vres{vec: bat.OrBool(lb, rb)}
}

// boolOperand materializes a boolean operand (constants here are
// always NULL — non-NULL ones folded at compile time).
func boolOperand(r vres, n int) *bat.BoolVector {
	if r.vec != nil {
		return r.vec.(*bat.BoolVector)
	}
	return bat.Broadcast(r.cv, value.Bool, n).(*bat.BoolVector)
}

type vnot struct{ x vexpr }

func (n *vnot) eval(batch []bat.Vector, lo, hi int) vres {
	r := n.x.eval(batch, lo, hi)
	return vres{vec: bat.NotBool(r.vec.(*bat.BoolVector))}
}

type visnull struct {
	x   vexpr
	neg bool
}

func (n *visnull) eval(batch []bat.Vector, lo, hi int) vres {
	r := n.x.eval(batch, lo, hi)
	return vres{vec: bat.IsNullVec(r.vec, n.neg)}
}

// --- engine-level program cache ---------------------------------------------

// vecCompile returns the memoized compiled program for x against the
// given column layout, or nil when x is unsupported or vectorization
// is disabled. Programs live alongside the plan cache: prepared
// statements and cached statements compile kernels once, and DDL
// invalidates both together.
func (e *Engine) vecCompile(x ast.Expr, cols []Col, strict bool) *vecProg {
	if !e.vectorized || x == nil {
		return nil
	}
	// Strict and loose bindings cache under distinct keys: one
	// expression may run through both the morsel path (rowEnv binding)
	// and the stream path (valuesEnv binding) and must not evict the
	// other variant on every execution.
	key := vecCacheKey{x: x, strict: strict}
	e.vecMu.Lock()
	ent, hit := e.vecCache[key]
	e.vecMu.Unlock()
	if hit && ent.sigMatchesEntry(cols, strict) {
		e.metrics().vecHit.Inc()
		return ent.prog
	}
	e.metrics().vecMiss.Inc()
	prog := compileVec(x, cols, strict)
	if prog != nil {
		e.metrics().vecKernel.Inc()
	} else {
		e.metrics().vecFallback.Inc()
	}
	ent = &vecCacheEntry{prog: prog, cols: append([]Col(nil), cols...), strict: strict}
	e.vecMu.Lock()
	if e.vecCache == nil || len(e.vecCache) >= planCacheMax {
		e.vecCache = make(map[vecCacheKey]*vecCacheEntry)
	}
	e.vecCache[key] = ent
	e.vecMu.Unlock()
	return prog
}

// vecCacheKey identifies one compilation: the expression node plus the
// binding mode it was compiled under.
type vecCacheKey struct {
	x      ast.Expr
	strict bool
}

// vecCacheEntry caches one compilation result; prog == nil records
// "unsupported" so repeated executions skip re-analysis.
type vecCacheEntry struct {
	prog   *vecProg
	cols   []Col
	strict bool
}

func (ent *vecCacheEntry) sigMatchesEntry(cols []Col, strict bool) bool {
	if ent.prog != nil {
		return ent.prog.sigMatches(cols, strict)
	}
	if ent.strict != strict || len(ent.cols) != len(cols) {
		return false
	}
	for i := range cols {
		if ent.cols[i] != cols[i] {
			return false
		}
	}
	return true
}

// --- output finalization -----------------------------------------------------

// finalizeVecOutput applies buildProjected's type-promotion rule to a
// whole output column of the scan pipeline. An interpreted column
// (boxed, type Unknown) promotes over all its values; a kernel column
// with no non-NULL values becomes a Float column of NULLs (promoteType's
// fallback), anything else keeps its static kernel type.
func finalizeVecOutput(vec bat.Vector) (bat.Vector, value.Type) {
	if vec.Type() == value.Unknown {
		vals := make([]value.Value, vec.Len())
		for i := range vals {
			vals[i] = vec.Get(i)
		}
		t := promoteType(vals)
		return bat.FromValues(t, vals), t
	}
	if bat.HasNonNull(vec) {
		return vec, vec.Type()
	}
	out := bat.New(value.Float, vec.Len())
	nv := value.NewNull(value.Float)
	for i := vec.Len(); i > 0; i-- {
		out.Append(nv)
	}
	return out, value.Float
}
