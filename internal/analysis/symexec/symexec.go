package symexec

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Env is one rank's evaluation environment: the concrete (rank, size)
// specialization, variable bindings, and request-kind bindings for
// *Comm request handles (so a later Wait can be attributed to the
// Isend/Irecv that produced the handle).
type Env struct {
	Rank int64
	Size int64
	Info *types.Info

	vars  map[types.Object]Value
	fvars map[types.Object]float64
	reqs  map[types.Object]int64
}

// NewEnv returns an environment specialized to one rank of a size-P run.
func NewEnv(info *types.Info, rank, size int64) *Env {
	return &Env{
		Rank:  rank,
		Size:  size,
		Info:  info,
		vars:  make(map[types.Object]Value),
		fvars: make(map[types.Object]float64),
		reqs:  make(map[types.Object]int64),
	}
}

// Bind records a variable binding.
func (e *Env) Bind(obj types.Object, v Value) {
	if obj != nil {
		e.vars[obj] = v
	}
}

// Lookup returns the binding for obj.
func (e *Env) Lookup(obj types.Object) (Value, bool) {
	v, ok := e.vars[obj]
	return v, ok
}

// BindFloat records a float binding (compute-work parameters). Float
// bindings are a separate namespace from integer bindings: there is no
// "known unknown" float state, a float variable is either bound to a
// concrete value or absent.
func (e *Env) BindFloat(obj types.Object, f float64) {
	if obj != nil {
		e.fvars[obj] = f
	}
}

// UnbindFloat removes a float binding (the variable became unknown).
func (e *Env) UnbindFloat(obj types.Object) {
	if obj != nil {
		delete(e.fvars, obj)
	}
}

// LookupFloat returns the float binding for obj.
func (e *Env) LookupFloat(obj types.Object) (float64, bool) {
	f, ok := e.fvars[obj]
	return f, ok
}

// selectedObj resolves a selector expression to the object it selects: a
// struct field for field accesses, the package-level object for
// qualified identifiers. Field bindings are keyed by the field object,
// which is shared across all values of the struct type, so callers bind
// at most one instance of a given struct type at a time.
func (e *Env) selectedObj(s *ast.SelectorExpr) types.Object {
	if sel, ok := e.Info.Selections[s]; ok {
		return sel.Obj()
	}
	return e.Info.Uses[s.Sel]
}

// BindReq records that obj holds a request produced by an operation of
// the given kind (an mpi.Op value, passed as int64 to keep this package
// independent of internal/mpi).
func (e *Env) BindReq(obj types.Object, kind int64) {
	if obj != nil {
		e.reqs[obj] = kind
	}
}

// ReqKind resolves a request-handle expression to the op kind that
// produced it.
func (e *Env) ReqKind(x ast.Expr) (int64, bool) {
	id, ok := unparen(x).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := e.Info.Uses[id]
	if obj == nil {
		return 0, false
	}
	k, ok := e.reqs[obj]
	return k, ok
}

// Snap is a copy of an environment's mutable state: integer bindings,
// float bindings, and request kinds.
type Snap struct {
	vars  map[types.Object]Value
	fvars map[types.Object]float64
	reqs  map[types.Object]int64
}

// Snapshot copies the current bindings.
func (e *Env) Snapshot() *Snap {
	s := &Snap{
		vars:  make(map[types.Object]Value, len(e.vars)),
		fvars: make(map[types.Object]float64, len(e.fvars)),
		reqs:  make(map[types.Object]int64, len(e.reqs)),
	}
	for k, v := range e.vars {
		s.vars[k] = v
	}
	for k, v := range e.fvars {
		s.fvars[k] = v
	}
	for k, v := range e.reqs {
		s.reqs[k] = v
	}
	return s
}

// Restore replaces the bindings with a snapshot's.
func (e *Env) Restore(snap *Snap) {
	e.vars = make(map[types.Object]Value, len(snap.vars))
	for k, v := range snap.vars {
		e.vars[k] = v
	}
	e.fvars = make(map[types.Object]float64, len(snap.fvars))
	for k, v := range snap.fvars {
		e.fvars[k] = v
	}
	e.reqs = make(map[types.Object]int64, len(snap.reqs))
	for k, v := range snap.reqs {
		e.reqs[k] = v
	}
}

// ForgetScoped rolls back the bindings of every object declared within
// [lo, hi) to their snapshot state, leaving other bindings untouched.
// Used after inlining a callee: its parameters and locals must not leak
// into the caller's environment (a leaked binding defeats the
// loop-fold invariance check), while writes to captured variables
// declared outside the callee are real effects and persist.
func (e *Env) ForgetScoped(snap *Snap, lo, hi token.Pos) {
	scoped := func(obj types.Object) bool {
		p := obj.Pos()
		return p >= lo && p < hi
	}
	for k := range e.vars {
		if scoped(k) {
			if v, ok := snap.vars[k]; ok {
				e.vars[k] = v
			} else {
				delete(e.vars, k)
			}
		}
	}
	for k := range e.fvars {
		if scoped(k) {
			if v, ok := snap.fvars[k]; ok {
				e.fvars[k] = v
			} else {
				delete(e.fvars, k)
			}
		}
	}
	for k := range e.reqs {
		if scoped(k) {
			if v, ok := snap.reqs[k]; ok {
				e.reqs[k] = v
			} else {
				delete(e.reqs, k)
			}
		}
	}
}

// SameExcept reports whether the current bindings are observably equal
// to the snapshot for every object the ignore predicate rejects. Used
// to detect environment-invariant loop bodies: the caller ignores the
// loop variable and any object scoped inside the loop, since Go
// scoping makes those invisible to later iterations' surroundings. A
// binding absent from one side is equal to an unknown value on the
// other — an unbound variable already evaluates to Unknown, so binding
// it to an unknown value changes nothing observable. Float bindings
// have no unknown state, so for those absence must match absence.
func (e *Env) SameExcept(snap *Snap, ignore func(types.Object) bool) bool {
	for k, v := range e.vars {
		if ignore(k) {
			continue
		}
		w, ok := snap.vars[k]
		if !ok {
			if v.Known {
				return false
			}
			continue
		}
		if w != v && (w.Known || v.Known) {
			return false
		}
	}
	for k, w := range snap.vars {
		if ignore(k) {
			continue
		}
		if _, ok := e.vars[k]; !ok && w.Known {
			return false
		}
	}
	for k, f := range e.fvars {
		if ignore(k) {
			continue
		}
		if w, ok := snap.fvars[k]; !ok || w != f {
			return false
		}
	}
	for k := range snap.fvars {
		if ignore(k) {
			continue
		}
		if _, ok := e.fvars[k]; !ok {
			return false
		}
	}
	return true
}

// Eval evaluates an integer expression under this environment.
func (e *Env) Eval(x ast.Expr) Value {
	// Compile-time constants (including named consts and untyped
	// literals) fold through the type checker first.
	if tv, ok := e.Info.Types[x]; ok && tv.Value != nil {
		if v := constant.ToInt(tv.Value); v.Kind() == constant.Int {
			if n, exact := constant.Int64Val(v); exact {
				return Const(n)
			}
		}
		return Unknown()
	}
	switch s := x.(type) {
	case *ast.ParenExpr:
		return e.Eval(s.X)
	case *ast.Ident:
		if obj := e.Info.Uses[s]; obj != nil {
			if v, ok := e.vars[obj]; ok {
				return v
			}
		}
		return Unknown()
	case *ast.SelectorExpr:
		// Struct-field reads (p.outer) resolve through a field binding;
		// qualified package identifiers resolve like plain identifiers.
		if obj := e.selectedObj(s); obj != nil {
			if v, ok := e.vars[obj]; ok {
				return v
			}
		}
		return Unknown()
	case *ast.CallExpr:
		switch name, _ := CommMethod(e.Info, s); name {
		case "Rank":
			return Value{Known: true, N: e.Rank, Sym: "rank"}
		case "Size":
			return Value{Known: true, N: e.Size, Sym: "size"}
		}
		// Integer conversions like int64(x) are transparent.
		if len(s.Args) == 1 {
			if tv, ok := e.Info.Types[s.Fun]; ok && tv.IsType() {
				return e.Eval(s.Args[0])
			}
		}
		return Unknown()
	case *ast.BinaryExpr:
		return e.evalBinary(s)
	case *ast.UnaryExpr:
		v := e.Eval(s.X)
		if !v.Known {
			return Unknown()
		}
		switch s.Op {
		case token.SUB:
			return Value{Known: true, N: -v.N, Sym: binSym("-", Const(0), v)}
		case token.ADD:
			return v
		case token.XOR:
			return Value{Known: true, N: ^v.N, Sym: binSym("^", Const(-1), v)}
		}
		return Unknown()
	}
	return Unknown()
}

func (e *Env) evalBinary(s *ast.BinaryExpr) Value {
	x, y := e.Eval(s.X), e.Eval(s.Y)
	if !x.Known || !y.Known {
		return Unknown()
	}
	n, ok := Arith(s.Op, x.N, y.N)
	if !ok {
		return Unknown()
	}
	return Value{Known: true, N: n, Sym: binSym(s.Op.String(), x, y)}
}

// binaryOp maps a compound-assignment token (token.ADD_ASSIGN through
// token.AND_NOT_ASSIGN) to its binary operator; go/token declares the
// two runs in the same order. Other tokens are returned unchanged.
func binaryOp(op token.Token) token.Token {
	if op >= token.ADD_ASSIGN && op <= token.AND_NOT_ASSIGN {
		return op - token.ADD_ASSIGN + token.ADD
	}
	return op
}

// Arith is the single definition of the analysis stack's integer
// operators: it applies op to x and y with Go's int64 semantics. op is
// a binary operator token (token.ADD through token.AND_NOT) or its
// compound-assignment form (token.ADD_ASSIGN through
// token.AND_NOT_ASSIGN). It declines (ok == false) on division or
// remainder by zero, on shift counts outside [0, 62], and on any other
// token.
func Arith(op token.Token, x, y int64) (int64, bool) {
	switch binaryOp(op) {
	case token.ADD:
		return x + y, true
	case token.SUB:
		return x - y, true
	case token.MUL:
		return x * y, true
	case token.QUO:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case token.REM:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case token.AND:
		return x & y, true
	case token.OR:
		return x | y, true
	case token.XOR:
		return x ^ y, true
	case token.AND_NOT:
		return x &^ y, true
	case token.SHL:
		if y < 0 || y > 62 {
			return 0, false
		}
		return x << uint(y), true
	case token.SHR:
		if y < 0 || y > 62 {
			return 0, false
		}
		return x >> uint(y), true
	}
	return 0, false
}

// FloatArith is Arith for float64 compute-work values: +, -, * and /
// (or their compound forms), declining on division by zero and on any
// other token.
func FloatArith(op token.Token, x, y float64) (float64, bool) {
	switch binaryOp(op) {
	case token.ADD:
		return x + y, true
	case token.SUB:
		return x - y, true
	case token.MUL:
		return x * y, true
	case token.QUO:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	}
	return 0, false
}

// EvalInt evaluates x and returns its concrete value when known.
func (e *Env) EvalInt(x ast.Expr) (int64, bool) {
	v := e.Eval(x)
	return v.N, v.Known
}

// EvalFloat evaluates x as a float64 (compute-work arguments):
// compile-time constants, bound float variables and struct fields,
// float arithmetic over those, conversions, and finally any expression
// that evaluates as a known integer.
func (e *Env) EvalFloat(x ast.Expr) (float64, bool) {
	if tv, ok := e.Info.Types[x]; ok && tv.Value != nil {
		if v := constant.ToFloat(tv.Value); v.Kind() == constant.Float || v.Kind() == constant.Int {
			f, _ := constant.Float64Val(v)
			return f, true
		}
		return 0, false
	}
	switch s := unparen(x).(type) {
	case *ast.Ident:
		if obj := e.Info.Uses[s]; obj != nil {
			if f, ok := e.fvars[obj]; ok {
				return f, true
			}
		}
	case *ast.SelectorExpr:
		if obj := e.selectedObj(s); obj != nil {
			if f, ok := e.fvars[obj]; ok {
				return f, true
			}
		}
	case *ast.CallExpr:
		// Conversions like float64(n) are transparent.
		if len(s.Args) == 1 {
			if tv, ok := e.Info.Types[s.Fun]; ok && tv.IsType() {
				return e.EvalFloat(s.Args[0])
			}
		}
	case *ast.UnaryExpr:
		switch s.Op {
		case token.SUB:
			if f, ok := e.EvalFloat(s.X); ok {
				return -f, true
			}
		case token.ADD:
			return e.EvalFloat(s.X)
		}
	case *ast.BinaryExpr:
		xf, xok := e.EvalFloat(s.X)
		yf, yok := e.EvalFloat(s.Y)
		// Division is float division even when both operands came
		// from integers, so it applies only to float-typed expressions
		// (compute-work arguments).
		if xok && yok && (s.Op != token.QUO || isFloat(e.Info.TypeOf(x))) {
			if f, ok := FloatArith(s.Op, xf, yf); ok {
				return f, true
			}
		}
	}
	if n, ok := e.EvalInt(x); ok {
		return float64(n), true
	}
	return 0, false
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// EvalWork evaluates a compute-work expression as a sum of factor
// products, treating multiplicative factors it cannot resolve — calls
// to jitter-style perturbation helpers whose mean is ~1 — as 1.0. It
// returns the dominant-factor estimate, whether the evaluation was
// exact (no factor was approximated away), and whether a usable
// estimate exists at all. An unresolvable divisor or additive term
// defeats the estimate: replacing those by a neutral element is not
// mean-preserving.
func (e *Env) EvalWork(x ast.Expr) (w float64, exact, ok bool) {
	if f, ok := e.EvalFloat(x); ok {
		return f, true, true
	}
	switch s := unparen(x).(type) {
	case *ast.BinaryExpr:
		switch s.Op {
		case token.MUL:
			xw, xe, xok := e.EvalWork(s.X)
			yw, ye, yok := e.EvalWork(s.Y)
			if xok && yok {
				return xw * yw, xe && ye, true
			}
		case token.QUO:
			yf, yok := e.EvalFloat(s.Y)
			if yok && yf != 0 && isFloat(e.Info.TypeOf(x)) {
				if xw, xe, xok := e.EvalWork(s.X); xok {
					return xw / yf, xe, true
				}
			}
		case token.ADD, token.SUB:
			xw, xe, xok := e.EvalWork(s.X)
			yw, ye, yok := e.EvalWork(s.Y)
			if xok && yok {
				if s.Op == token.SUB {
					yw = -yw
				}
				return xw + yw, xe && ye, true
			}
		}
	case *ast.CallExpr:
		// An unresolvable call in factor position is treated as a
		// mean-one perturbation factor.
		if isFloat(e.Info.TypeOf(x)) {
			return 1, false, true
		}
	}
	return 0, false, false
}

// EvalBool evaluates a boolean condition under this environment.
func (e *Env) EvalBool(x ast.Expr) (val, ok bool) {
	if tv, found := e.Info.Types[x]; found && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return constant.BoolVal(tv.Value), true
	}
	switch s := x.(type) {
	case *ast.ParenExpr:
		return e.EvalBool(s.X)
	case *ast.UnaryExpr:
		if s.Op == token.NOT {
			v, ok := e.EvalBool(s.X)
			return !v, ok
		}
	case *ast.Ident:
		// Booleans are not tracked as variables; only constants fold.
		return false, false
	case *ast.BinaryExpr:
		switch s.Op {
		case token.LAND:
			l, ok := e.EvalBool(s.X)
			if !ok {
				return false, false
			}
			if !l {
				return false, true
			}
			return e.EvalBool(s.Y)
		case token.LOR:
			l, ok := e.EvalBool(s.X)
			if !ok {
				return false, false
			}
			if l {
				return true, true
			}
			return e.EvalBool(s.Y)
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			xv, xok := e.EvalInt(s.X)
			yv, yok := e.EvalInt(s.Y)
			if !xok || !yok {
				return false, false
			}
			switch s.Op {
			case token.EQL:
				return xv == yv, true
			case token.NEQ:
				return xv != yv, true
			case token.LSS:
				return xv < yv, true
			case token.LEQ:
				return xv <= yv, true
			case token.GTR:
				return xv > yv, true
			default:
				return xv >= yv, true
			}
		}
	}
	return false, false
}

// Trip describes a canonical counting loop: the induction variable,
// its start value, stride, and trip count under this environment.
type Trip struct {
	Obj   types.Object
	Start int64
	Step  int64 // additive stride; 0 for geometric loops
	Mul   int64 // multiplicative stride for geometric loops, else 0
	Count int64
}

// TripLoop recognizes `for i := a; i <op> b; i += s` counting loops
// (including i++/i--) whose bounds evaluate under the environment.
func (e *Env) TripLoop(s *ast.ForStmt) (Trip, bool) {
	var t Trip

	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return t, false
	}
	if init.Tok != token.DEFINE && init.Tok != token.ASSIGN {
		return t, false
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return t, false
	}
	t.Obj = e.Info.Defs[id]
	if t.Obj == nil {
		t.Obj = e.Info.Uses[id]
	}
	if t.Obj == nil {
		return t, false
	}
	start, ok := e.EvalInt(init.Rhs[0])
	if !ok {
		return t, false
	}
	t.Start = start

	switch post := s.Post.(type) {
	case *ast.IncDecStmt:
		pid, ok := post.X.(*ast.Ident)
		if !ok || e.Info.Uses[pid] != t.Obj {
			return t, false
		}
		if post.Tok == token.INC {
			t.Step = 1
		} else {
			t.Step = -1
		}
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 || len(post.Rhs) != 1 {
			return t, false
		}
		pid, ok := post.Lhs[0].(*ast.Ident)
		if !ok || e.Info.Uses[pid] != t.Obj {
			return t, false
		}
		step, ok := e.EvalInt(post.Rhs[0])
		if !ok || step == 0 {
			return t, false
		}
		switch post.Tok {
		case token.ADD_ASSIGN:
			t.Step = step
		case token.SUB_ASSIGN:
			t.Step = -step
		case token.MUL_ASSIGN, token.SHL_ASSIGN:
			// Geometric loops (i *= 2, i <<= 1) count by simulation.
			return e.geometricTrip(t, s, post, step)
		default:
			return t, false
		}
	default:
		return t, false
	}

	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return t, false
	}
	cid, ok := unparen(cond.X).(*ast.Ident)
	if !ok || e.Info.Uses[cid] != t.Obj {
		return t, false
	}
	bound, ok := e.EvalInt(cond.Y)
	if !ok {
		return t, false
	}

	switch cond.Op {
	case token.LSS:
		if t.Step <= 0 {
			return t, false
		}
		t.Count = ceilDiv(bound-t.Start, t.Step)
	case token.LEQ:
		if t.Step <= 0 {
			return t, false
		}
		t.Count = ceilDiv(bound-t.Start+1, t.Step)
	case token.GTR:
		if t.Step >= 0 {
			return t, false
		}
		t.Count = ceilDiv(t.Start-bound, -t.Step)
	case token.GEQ:
		if t.Step >= 0 {
			return t, false
		}
		t.Count = ceilDiv(t.Start-bound+1, -t.Step)
	default:
		return t, false
	}
	if t.Count < 0 {
		t.Count = 0
	}
	return t, true
}

// geometricTrip simulates `for i := a; i <op> b; i *= s` loops to a
// bounded trip count.
func (e *Env) geometricTrip(t Trip, s *ast.ForStmt, post *ast.AssignStmt, step int64) (Trip, bool) {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return t, false
	}
	cid, ok := unparen(cond.X).(*ast.Ident)
	if !ok || e.Info.Uses[cid] != t.Obj {
		return t, false
	}
	bound, ok := e.EvalInt(cond.Y)
	if !ok {
		return t, false
	}
	mul := step
	if post.Tok == token.SHL_ASSIGN {
		if step < 0 || step > 62 {
			return t, false
		}
		mul = 1 << uint(step)
	}
	if mul <= 1 || t.Start <= 0 {
		return t, false
	}
	holds := func(v int64) bool {
		switch cond.Op {
		case token.LSS:
			return v < bound
		case token.LEQ:
			return v <= bound
		default:
			return false
		}
	}
	v := t.Start
	for t.Count = 0; holds(v) && t.Count < 64; t.Count++ {
		v *= mul
	}
	if holds(v) {
		return t, false // did not terminate within 64 iterations
	}
	// Geometric loops are reported with Step encoding the multiplier;
	// callers that need per-iteration values must re-simulate, so mark
	// the stride as non-affine with Step 0.
	t.Step = 0
	t.Mul = mul
	return t, true
}

// IterValue returns the induction-variable value at iteration i
// (0-based) of a recognized loop.
func (t Trip) IterValue(i int64) int64 {
	if t.Mul > 1 {
		v := t.Start
		for ; i > 0; i-- {
			v *= t.Mul
		}
		return v
	}
	return t.Start + t.Step*i
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// CommMethod reports whether call is a method call on the runtime's
// Comm type (or the perfskel.Comm alias) and returns the method name
// and receiver expression.
func CommMethod(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	t := info.TypeOf(sel.X)
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Comm" {
		return "", nil
	}
	return sel.Sel.Name, sel.X
}

func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}
