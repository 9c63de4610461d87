package commgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"perfskel/internal/analysis/symexec"
	"perfskel/internal/mpi"
)

// Extraction bounds. maxRanks caps the machines we are willing to
// specialize; maxRankOps bounds the per-rank op count (loop unrolling
// included) so pathological inputs cannot blow up extraction; maxDepth
// bounds same-package call inlining.
const (
	maxRanks   = 32
	maxRankOps = 1 << 14
	maxUnroll  = 1 << 10
	maxDepth   = 8
)

// Extract discovers every entry point in the package and extracts one
// Machine per entry. Machines are returned in source order.
func Extract(src Source) []Machine {
	ex := newDiscovery(src)
	var machines []Machine
	// Pass 1: Run/Trace launch sites with a constant rank count.
	for _, f := range src.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if m, ok := ex.launchSite(call); ok {
				machines = append(machines, m)
			}
			return true
		})
	}
	// Pass 2: standalone rank programs — functions taking a *Comm whose
	// body switches exhaustively over constant ranks.
	for _, f := range src.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || ex.used[fd] {
				continue
			}
			if n := standaloneRanks(src.Info, fd); n >= 2 {
				machines = append(machines, ex.machine(fd.Name.Name, fd.Pos(), n, fd.Body.List))
			}
		}
	}
	sort.SliceStable(machines, func(i, j int) bool { return machines[i].Pos < machines[j].Pos })
	return machines
}

// ExtractFunc extracts a single machine from an explicit rank-program
// body — the static-signature front-end's entry point. body is the
// statement list of a func(c *Comm) program, nranks the specialization,
// and prebind, when non-nil, seeds each rank's environment (class-table
// struct-field bindings, problem-size parameters) before execution.
func ExtractFunc(src Source, name string, pos token.Pos, body []ast.Stmt, nranks int, prebind func(*symexec.Env)) Machine {
	if nranks > maxRanks {
		return Machine{
			Name: name, Pos: pos, NRanks: nranks,
			Approx: []string{fmt.Sprintf("rank count %d exceeds extraction cap %d", nranks, maxRanks)},
		}
	}
	return newDiscovery(src).machineWith(name, pos, nranks, body, prebind)
}

// newDiscovery indexes the package's resolvable callees: function
// declarations and function literals bound to local variables.
func newDiscovery(src Source) *discovery {
	ex := &discovery{
		src:   src,
		funcs: make(map[types.Object]*ast.FuncDecl),
		lits:  make(map[types.Object]*ast.FuncLit),
		used:  make(map[ast.Node]bool),
	}
	for _, f := range src.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name != nil {
				if obj := src.Info.Defs[fd.Name]; obj != nil {
					ex.funcs[obj] = fd
				}
			}
		}
	}
	// Function literals bound to local variables (wait-helper style
	// closures) are resolvable callees too.
	for _, f := range src.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				lit, ok := as.Rhs[i].(*ast.FuncLit)
				if !ok {
					continue
				}
				if obj := src.Info.Defs[id]; obj != nil {
					ex.lits[obj] = lit
				} else if obj := src.Info.Uses[id]; obj != nil {
					ex.lits[obj] = lit
				}
			}
			return true
		})
	}
	return ex
}

// discovery holds the package-wide context shared by all machines.
type discovery struct {
	src   Source
	funcs map[types.Object]*ast.FuncDecl
	lits  map[types.Object]*ast.FuncLit
	used  map[ast.Node]bool // FuncDecls consumed as launch apps
}

// launchSite recognizes env.Run(P, app) / env.Trace(P, app) and
// mpi.Run(cl, P, cfg, mon, app) calls with a constant rank count.
func (ex *discovery) launchSite(call *ast.CallExpr) (Machine, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Machine{}, false
	}
	var nExpr, appExpr ast.Expr
	name := sel.Sel.Name
	switch {
	case (name == "Run" || name == "Trace") && len(call.Args) >= 2 && isEnvRecv(ex.src.Info, sel.X):
		nExpr, appExpr = call.Args[0], call.Args[1]
	case name == "Run" && len(call.Args) == 5 && isMPIPkg(ex.src.Info, sel.X):
		nExpr, appExpr = call.Args[1], call.Args[4]
	default:
		return Machine{}, false
	}
	env := symexec.NewEnv(ex.src.Info, 0, 1)
	n, ok := env.EvalInt(nExpr)
	if !ok || n < 1 {
		return Machine{}, false
	}
	var body []ast.Stmt
	mname := "app"
	switch app := ast.Unparen(appExpr).(type) {
	case *ast.FuncLit:
		body = app.Body.List
	case *ast.Ident:
		obj := ex.src.Info.Uses[app]
		fd := ex.funcs[obj]
		if fd == nil || fd.Body == nil {
			return Machine{}, false
		}
		ex.used[fd] = true
		body = fd.Body.List
		mname = fd.Name.Name
	default:
		return Machine{}, false
	}
	if n > maxRanks {
		return Machine{
			Name: mname, Pos: call.Pos(), NRanks: int(n),
			Approx: []string{fmt.Sprintf("rank count %d exceeds extraction cap %d", n, maxRanks)},
		}, true
	}
	return ex.machine(mname, call.Pos(), int(n), body), true
}

// machine extracts one rank program per rank. The evaluator resolves
// the communicator receiver by type, so no comm binding is needed.
func (ex *discovery) machine(name string, pos token.Pos, nranks int, body []ast.Stmt) Machine {
	return ex.machineWith(name, pos, nranks, body, nil)
}

func (ex *discovery) machineWith(name string, pos token.Pos, nranks int, body []ast.Stmt, prebind func(*symexec.Env)) Machine {
	m := Machine{Name: name, Pos: pos, NRanks: nranks, Ranks: make([][]Node, nranks)}
	notes := map[string]bool{}
	for r := 0; r < nranks; r++ {
		env := symexec.NewEnv(ex.src.Info, int64(r), int64(nranks))
		if prebind != nil {
			prebind(env)
		}
		x := &extractor{
			d:       ex,
			env:     env,
			approx:  notes,
			inStack: make(map[ast.Node]bool),
		}
		seq, _ := x.block(body)
		m.Ranks[r] = seq
	}
	for note := range notes {
		m.Approx = append(m.Approx, note)
	}
	sort.Strings(m.Approx)
	return m
}

// extractor symbolically executes one rank's program.
type extractor struct {
	d       *discovery
	env     *symexec.Env
	approx  map[string]bool
	ops     int
	depth   int
	inStack map[ast.Node]bool
}

func (x *extractor) note(format string, args ...any) {
	x.approx[fmt.Sprintf(format, args...)] = true
}

func (x *extractor) pos(p token.Pos) token.Position {
	return x.d.src.Fset.Position(p)
}

// block executes a statement list; the bool result reports whether a
// return statement terminated it.
func (x *extractor) block(list []ast.Stmt) ([]Node, bool) {
	var out []Node
	for _, st := range list {
		nodes, returned := x.stmt(st)
		out = append(out, nodes...)
		if returned || x.ops > maxRankOps {
			if x.ops > maxRankOps {
				x.note("per-rank op budget (%d) exceeded; extraction truncated", maxRankOps)
			}
			return out, returned
		}
	}
	return out, false
}

func (x *extractor) stmt(st ast.Stmt) ([]Node, bool) {
	switch s := st.(type) {
	case nil, *ast.EmptyStmt:
		return nil, false
	case *ast.ExprStmt:
		return x.exprOps(s.X), false
	case *ast.AssignStmt:
		return x.assign(s), false
	case *ast.DeclStmt:
		return x.decl(s), false
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			if obj := x.d.src.Info.Uses[id]; obj != nil {
				x.env.UnbindFloat(obj)
				if v, ok := x.env.Lookup(obj); ok && v.Known {
					d := int64(1)
					if s.Tok == token.DEC {
						d = -1
					}
					x.env.Bind(obj, symexec.Const(v.N+d))
					return nil, false
				}
				x.env.Bind(obj, symexec.Unknown())
			}
		}
		return nil, false
	case *ast.ReturnStmt:
		var out []Node
		for _, r := range s.Results {
			out = append(out, x.exprOps(r)...)
		}
		return out, true
	case *ast.BlockStmt:
		return x.block(s.List)
	case *ast.LabeledStmt:
		return x.stmt(s.Stmt)
	case *ast.IfStmt:
		return x.ifStmt(s)
	case *ast.SwitchStmt:
		return x.switchStmt(s)
	case *ast.ForStmt:
		return x.forStmt(s)
	case *ast.RangeStmt:
		if hasComm(x.d.src.Info, s.Body) {
			x.note("range loop over non-constant collection at %s guards communication", x.pos(s.Pos()))
		}
		x.invalidate(s.Body)
		return nil, false
	case *ast.BranchStmt:
		if s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO {
			x.note("loop control flow (%s) at %s is not modeled", s.Tok, x.pos(s.Pos()))
		}
		return nil, false
	case *ast.GoStmt:
		if hasComm(x.d.src.Info, s.Call) {
			x.note("goroutine at %s communicates; concurrency is not modeled", x.pos(s.Pos()))
		}
		return nil, false
	case *ast.DeferStmt:
		if hasComm(x.d.src.Info, s.Call) {
			x.note("deferred communication at %s is not modeled", x.pos(s.Pos()))
		}
		return nil, false
	default:
		if hasComm(x.d.src.Info, st) {
			x.note("unsupported statement at %s contains communication", x.pos(st.Pos()))
		}
		x.invalidate(st)
		return nil, false
	}
}

func (x *extractor) ifStmt(s *ast.IfStmt) ([]Node, bool) {
	var out []Node
	if s.Init != nil {
		nodes, ret := x.stmt(s.Init)
		out = append(out, nodes...)
		if ret {
			return out, true
		}
	}
	cond, ok := x.env.EvalBool(s.Cond)
	if !ok {
		if hasComm(x.d.src.Info, s.Body) || (s.Else != nil && hasComm(x.d.src.Info, s.Else)) {
			x.note("unresolved conditional at %s guards communication", x.pos(s.If))
		}
		x.invalidate(s.Body)
		if s.Else != nil {
			x.invalidate(s.Else)
		}
		return out, false
	}
	if cond {
		nodes, ret := x.block(s.Body.List)
		return append(out, nodes...), ret
	}
	if s.Else != nil {
		nodes, ret := x.stmt(s.Else)
		return append(out, nodes...), ret
	}
	return out, false
}

func (x *extractor) switchStmt(s *ast.SwitchStmt) ([]Node, bool) {
	var out []Node
	if s.Init != nil {
		nodes, ret := x.stmt(s.Init)
		out = append(out, nodes...)
		if ret {
			return out, true
		}
	}
	unresolved := func() ([]Node, bool) {
		if hasComm(x.d.src.Info, s.Body) {
			x.note("unresolved switch at %s guards communication", x.pos(s.Switch))
		}
		x.invalidate(s.Body)
		return out, false
	}
	var chosen *ast.CaseClause
	var deflt *ast.CaseClause
	if s.Tag != nil {
		tag, ok := x.env.EvalInt(s.Tag)
		if !ok {
			return unresolved()
		}
	caseLoop:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				deflt = clause
				continue
			}
			for _, v := range clause.List {
				cv, ok := x.env.EvalInt(v)
				if !ok {
					return unresolved()
				}
				if cv == tag {
					chosen = clause
					break caseLoop
				}
			}
		}
	} else {
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				deflt = clause
				continue
			}
			matched := false
			for _, v := range clause.List {
				cv, ok := x.env.EvalBool(v)
				if !ok {
					return unresolved()
				}
				if cv {
					matched = true
					break
				}
			}
			if matched {
				chosen = clause
				break
			}
		}
	}
	if chosen == nil {
		chosen = deflt
	}
	if chosen == nil {
		return out, false
	}
	if hasFallthrough(chosen) {
		x.note("fallthrough at %s is not modeled", x.pos(chosen.Pos()))
		return out, false
	}
	nodes, ret := x.block(chosen.Body)
	return append(out, nodes...), ret
}

func (x *extractor) forStmt(s *ast.ForStmt) ([]Node, bool) {
	trip, ok := x.env.TripLoop(s)
	if !ok {
		if hasComm(x.d.src.Info, s.Body) {
			x.note("loop at %s with unresolved bounds guards communication", x.pos(s.For))
		}
		x.invalidate(s)
		return nil, false
	}
	if trip.Count <= 0 {
		return nil, false
	}
	runIter := func(i int64) ([]Node, bool) {
		x.env.Bind(trip.Obj, symexec.Const(trip.IterValue(i)))
		return x.block(s.Body.List)
	}
	// Objects declared inside the loop (including nested loop variables)
	// are out of scope after it; their leftover bindings cannot make the
	// body environment-variant.
	loopScoped := func(obj types.Object) bool {
		return obj == trip.Obj || (obj.Pos() >= s.Pos() && obj.Pos() < s.End())
	}
	var out []Node
	snap := x.env.Snapshot()
	body0, ret := runIter(0)
	if ret {
		return body0, true
	}
	if trip.Count >= 2 && x.env.SameExcept(snap, loopScoped) {
		body1, ret := runIter(1)
		if !ret && x.env.SameExcept(snap, loopScoped) && equalSeq(body0, body1) {
			return []Node{{Count: trip.Count, Body: body0, Pos: s.For}}, false
		}
		out = append(out, body0...)
		out = append(out, body1...)
		if ret {
			return out, true
		}
		return x.unroll(out, 2, trip, runIter)
	}
	out = append(out, body0...)
	return x.unroll(out, 1, trip, runIter)
}

// unroll executes the remaining iterations of a non-invariant loop.
func (x *extractor) unroll(out []Node, from int64, trip symexec.Trip, runIter func(int64) ([]Node, bool)) ([]Node, bool) {
	if trip.Count > maxUnroll {
		x.note("loop with %d iterations exceeds unroll cap %d", trip.Count, maxUnroll)
		return out, false
	}
	for i := from; i < trip.Count; i++ {
		nodes, ret := runIter(i)
		out = append(out, nodes...)
		if ret {
			return out, true
		}
		if x.ops > maxRankOps {
			return out, false
		}
	}
	return out, false
}

func (x *extractor) decl(s *ast.DeclStmt) []Node {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return nil
	}
	var out []Node
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			out = append(out, x.exprOps(v)...)
		}
		for i, name := range vs.Names {
			obj := x.d.src.Info.Defs[name]
			if obj == nil {
				continue
			}
			if i < len(vs.Values) && len(vs.Values) == len(vs.Names) {
				x.env.Bind(obj, x.env.Eval(vs.Values[i]))
				x.bindFloat(obj, vs.Values[i])
			} else if len(vs.Values) == 0 {
				x.env.Bind(obj, symexec.Const(0)) // zero value
				if isFloatObj(obj) {
					x.env.BindFloat(obj, 0)
				}
			} else {
				x.env.Bind(obj, symexec.Unknown())
				x.env.UnbindFloat(obj)
			}
		}
	}
	return out
}

func (x *extractor) assign(s *ast.AssignStmt) []Node {
	var out []Node
	// A pure integer helper call (grid2d-style factorizations) runs
	// concretely instead of being inlined: it cannot communicate, so
	// inlining would only re-walk control flow the runner models.
	var pure [][]int64 // by rhs index; nil when no helper ran
	for i, r := range s.Rhs {
		if vals, ok := x.pureCall(s.Tok, r); ok {
			if pure == nil {
				pure = make([][]int64, len(s.Rhs))
			}
			pure[i] = vals
			continue
		}
		out = append(out, x.exprOps(r)...)
	}
	if len(s.Lhs) != len(s.Rhs) {
		// Tuple assignment from a single call.
		for i, l := range s.Lhs {
			v := symexec.Unknown()
			if pure != nil && len(pure[0]) == len(s.Lhs) {
				v = symexec.Const(pure[0][i])
			}
			x.bindLhs(l, v)
		}
		return out
	}
	for i := range s.Lhs {
		id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident)
		if !ok {
			continue // index/field stores don't affect tracked scalars
		}
		if id.Name == "_" {
			continue
		}
		obj := x.d.src.Info.Defs[id]
		if obj == nil {
			obj = x.d.src.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		rhs := ast.Unparen(s.Rhs[i])
		if call, ok := rhs.(*ast.CallExpr); ok {
			switch name, _ := symexec.CommMethod(x.d.src.Info, call); name {
			case "Isend":
				x.env.BindReq(obj, int64(mpi.OpIsend))
				continue
			case "Irecv":
				x.env.BindReq(obj, int64(mpi.OpIrecv))
				continue
			}
		}
		switch s.Tok {
		case token.DEFINE, token.ASSIGN:
			v := x.env.Eval(s.Rhs[i])
			if pure != nil && len(pure[i]) == 1 {
				v = symexec.Const(pure[i][0])
			}
			x.env.Bind(obj, v)
			x.bindFloat(obj, s.Rhs[i])
		default:
			x.env.Bind(obj, x.opAssign(obj, s.Tok, s.Rhs[i]))
			x.opAssignFloat(obj, s.Tok, s.Rhs[i])
		}
	}
	return out
}

// bindFloat tracks plain assignments to float variables: bound when the
// value evaluates, unbound otherwise.
func (x *extractor) bindFloat(obj types.Object, rhs ast.Expr) {
	if !isFloatObj(obj) {
		return
	}
	if f, ok := x.env.EvalFloat(rhs); ok {
		x.env.BindFloat(obj, f)
	} else {
		x.env.UnbindFloat(obj)
	}
}

// opAssignFloat tracks compound assignments to float variables
// (work /= 4, face *= 2).
func (x *extractor) opAssignFloat(obj types.Object, tok token.Token, rhs ast.Expr) {
	if !isFloatObj(obj) {
		return
	}
	cur, ok := x.env.LookupFloat(obj)
	v, vok := x.env.EvalFloat(rhs)
	if f, fok := symexec.FloatArith(tok, cur, v); ok && vok && fok {
		x.env.BindFloat(obj, f)
	} else {
		x.env.UnbindFloat(obj)
	}
}

func isFloatObj(obj types.Object) bool {
	if obj == nil {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// opAssign evaluates compound assignments like x += e.
func (x *extractor) opAssign(obj types.Object, tok token.Token, rhs ast.Expr) symexec.Value {
	cur, _ := x.env.Lookup(obj)
	v := x.env.Eval(rhs)
	if n, ok := symexec.Arith(tok, cur.N, v.N); ok && cur.Known && v.Known {
		return symexec.Const(n)
	}
	return symexec.Unknown()
}

func (x *extractor) bindLhs(l ast.Expr, v symexec.Value) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
		obj := x.d.src.Info.Defs[id]
		if obj == nil {
			obj = x.d.src.Info.Uses[id]
		}
		x.env.Bind(obj, v)
		if !v.Known {
			x.env.UnbindFloat(obj)
		}
	}
}

// exprOps walks an expression in evaluation order and extracts the
// communication ops it performs.
func (x *extractor) exprOps(e ast.Expr) []Node {
	var out []Node
	var walk func(n ast.Expr)
	walk = func(n ast.Expr) {
		switch v := n.(type) {
		case nil:
		case *ast.ParenExpr:
			walk(v.X)
		case *ast.CallExpr:
			walk(v.Fun)
			for _, a := range v.Args {
				walk(a)
			}
			out = append(out, x.call(v)...)
		case *ast.BinaryExpr:
			walk(v.X)
			walk(v.Y)
		case *ast.UnaryExpr:
			walk(v.X)
		case *ast.StarExpr:
			walk(v.X)
		case *ast.SelectorExpr:
			walk(v.X)
		case *ast.IndexExpr:
			walk(v.X)
			walk(v.Index)
		case *ast.SliceExpr:
			walk(v.X)
		case *ast.TypeAssertExpr:
			walk(v.X)
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				walk(el)
			}
		}
	}
	walk(e)
	return out
}

// call dispatches one call expression: a Comm method, a wait-helper, an
// inlinable same-package function, or something opaque.
func (x *extractor) call(call *ast.CallExpr) []Node {
	if name, _ := symexec.CommMethod(x.d.src.Info, call); name != "" {
		return x.commCall(name, call)
	}
	body, params, fn, ok := x.callee(call)
	if ok {
		// Generated-code wait helpers have data-dependent bodies the
		// interpreter cannot resolve; their effect is a single op.
		if op := x.waitHelper(call, params); op != nil {
			x.ops++
			return []Node{{Op: op}}
		}
		return x.inline(call, body, params, fn)
	}
	// Builtin append and friends: arguments already walked.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := x.d.src.Info.Uses[id].(*types.Builtin); isBuiltin {
			return nil
		}
	}
	for _, a := range call.Args {
		if isCommType(x.d.src.Info.TypeOf(a)) {
			x.note("call at %s passes the communicator to an unresolvable function", x.pos(call.Pos()))
			break
		}
	}
	return nil
}

// callee resolves a call to a same-package function declaration or a
// locally bound function literal, returning its body, parameter
// identifiers, and the callee node (its source range scopes the
// bindings inlining may leave behind).
func (x *extractor) callee(call *ast.CallExpr) ([]ast.Stmt, []*ast.Ident, ast.Node, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, nil, nil, false
	}
	obj := x.d.src.Info.Uses[id]
	if obj == nil {
		return nil, nil, nil, false
	}
	if fd := x.d.funcs[obj]; fd != nil && fd.Body != nil {
		return fd.Body.List, paramIdents(fd.Type), fd, true
	}
	if lit := x.d.lits[obj]; lit != nil {
		return lit.Body.List, paramIdents(lit.Type), lit, true
	}
	return nil, nil, nil, false
}

// waitHelper recognizes the codegen request-FIFO helpers:
// wait(c, kind) drains the oldest outstanding request of the given
// kind, waitall(c) drains everything.
func (x *extractor) waitHelper(call *ast.CallExpr, params []*ast.Ident) *Op {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	switch id.Name {
	case "wait":
		if len(params) != 2 || len(call.Args) != 2 || !isCommType(x.d.src.Info.TypeOf(call.Args[0])) {
			return nil
		}
		sub, ok := x.env.EvalInt(call.Args[1])
		if !ok {
			x.note("wait helper at %s with unresolved request kind", x.pos(call.Pos()))
			sub = 0
		}
		return &Op{Kind: mpi.OpWait, Sub: mpi.Op(sub), Pos: call.Pos(), Sym: fmt.Sprintf("kind=%s", mpi.Op(sub))}
	case "waitall":
		if len(params) != 1 || len(call.Args) != 1 || !isCommType(x.d.src.Info.TypeOf(call.Args[0])) {
			return nil
		}
		return &Op{Kind: mpi.OpWaitall, Pos: call.Pos()}
	}
	return nil
}

// inline executes a resolvable same-package callee under the current
// environment, binding parameter objects to evaluated arguments. The
// callee's parameters and locals are rolled back afterwards — leaked
// callee bindings would make every enclosing loop body look
// environment-variant and defeat loop folding — while writes to
// captured variables declared outside the callee persist.
func (x *extractor) inline(call *ast.CallExpr, body []ast.Stmt, params []*ast.Ident, fn ast.Node) []Node {
	key := ast.Node(call.Fun)
	if fd, _, _ := x.calleeDecl(call); fd != nil {
		key = fd
	}
	if x.depth >= maxDepth || x.inStack[key] {
		if hasCommStmts(x.d.src.Info, body) {
			x.note("call at %s exceeds inlining depth or recurses", x.pos(call.Pos()))
		}
		return nil
	}
	snap := x.env.Snapshot()
	for i, p := range params {
		obj := x.d.src.Info.Defs[p]
		if obj == nil || i >= len(call.Args) {
			continue
		}
		x.env.Bind(obj, x.env.Eval(call.Args[i]))
		if f, ok := x.env.EvalFloat(call.Args[i]); ok && isFloatObj(obj) {
			x.env.BindFloat(obj, f)
		}
		if kind, ok := x.env.ReqKind(call.Args[i]); ok {
			x.env.BindReq(obj, kind)
		}
	}
	x.depth++
	x.inStack[key] = true
	nodes, _ := x.block(body)
	delete(x.inStack, key)
	x.depth--
	x.env.ForgetScoped(snap, fn.Pos(), fn.End())
	return nodes
}

func (x *extractor) calleeDecl(call *ast.CallExpr) (*ast.FuncDecl, []ast.Stmt, []*ast.Ident) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, nil, nil
	}
	obj := x.d.src.Info.Uses[id]
	if obj == nil {
		return nil, nil, nil
	}
	fd := x.d.funcs[obj]
	if fd == nil || fd.Body == nil {
		return nil, nil, nil
	}
	return fd, fd.Body.List, paramIdents(fd.Type)
}

// commCall builds the op for one Comm method call.
func (x *extractor) commCall(name string, call *ast.CallExpr) []Node {
	arg := func(i int) (int, bool, string) {
		if i >= len(call.Args) {
			return 0, false, ""
		}
		v := x.env.Eval(call.Args[i])
		return int(v.N), v.Known, v.Sym
	}
	arg64 := func(i int) (int64, bool) {
		if i >= len(call.Args) {
			return 0, false
		}
		v := x.env.Eval(call.Args[i])
		return v.N, v.Known
	}
	op := Op{Pos: call.Pos()}
	var sym []string
	setPeer := func(label string, i int) {
		var s string
		op.Peer, op.HasPeer, s = arg(i)
		if s != "" {
			sym = append(sym, label+"="+s)
		} else if op.HasPeer {
			sym = append(sym, fmt.Sprintf("%s=%d", label, op.Peer))
		} else {
			sym = append(sym, label+"=?")
		}
	}
	setPeer2 := func(label string, i int) {
		var s string
		op.Peer2, op.HasPeer2, s = arg(i)
		if s != "" {
			sym = append(sym, label+"="+s)
		} else if op.HasPeer2 {
			sym = append(sym, fmt.Sprintf("%s=%d", label, op.Peer2))
		} else {
			sym = append(sym, label+"=?")
		}
	}
	setTag := func(i int) {
		var s string
		op.Tag, op.HasTag, s = arg(i)
		if s != "" {
			sym = append(sym, "tag="+s)
		} else if op.HasTag {
			sym = append(sym, fmt.Sprintf("tag=%d", op.Tag))
		} else {
			sym = append(sym, "tag=?")
		}
	}
	setBytes := func(i int) {
		op.Bytes, op.HasBytes = arg64(i)
		if op.HasBytes {
			sym = append(sym, fmt.Sprintf("%dB", op.Bytes))
		} else {
			sym = append(sym, "?B")
		}
	}
	switch name {
	case "Compute":
		op.Kind = mpi.OpCompute
		if len(call.Args) == 1 {
			var exact bool
			op.Work, exact, op.HasWork = x.env.EvalWork(call.Args[0])
			op.WorkApprox = op.HasWork && !exact
		}
	case "Send":
		op.Kind = mpi.OpSend
		setPeer("dst", 0)
		setTag(1)
		setBytes(2)
	case "Isend":
		op.Kind = mpi.OpIsend
		setPeer("dst", 0)
		setTag(1)
		setBytes(2)
	case "Recv":
		op.Kind = mpi.OpRecv
		setPeer("src", 0)
		setTag(1)
	case "Irecv":
		op.Kind = mpi.OpIrecv
		setPeer("src", 0)
		setTag(1)
	case "Wait":
		op.Kind = mpi.OpWait
		if len(call.Args) == 1 {
			if kind, ok := x.env.ReqKind(call.Args[0]); ok {
				op.Sub = mpi.Op(kind)
			}
		}
	case "Waitall":
		op.Kind = mpi.OpWaitall
	case "Sendrecv":
		op.Kind = mpi.OpSendrecv
		setPeer("dst", 0)
		setBytes(1)
		setPeer2("src", 2)
		setTag(3)
	case "Barrier":
		op.Kind = mpi.OpBarrier
	case "Bcast":
		op.Kind = mpi.OpBcast
		setPeer("root", 0)
		setBytes(1)
	case "Reduce":
		op.Kind = mpi.OpReduce
		setPeer("root", 0)
		setBytes(1)
	case "Allreduce":
		op.Kind = mpi.OpAllreduce
		setBytes(0)
	case "Alltoall":
		op.Kind = mpi.OpAlltoall
		setBytes(0)
	case "Alltoallv":
		op.Kind = mpi.OpAlltoallv // per-pair sizes are a slice; bytes stay unknown
	case "Allgather":
		op.Kind = mpi.OpAllgather
		setBytes(0)
	case "Gather":
		op.Kind = mpi.OpGather
		setPeer("root", 0)
		setBytes(1)
	case "Scatter":
		op.Kind = mpi.OpScatter
		setPeer("root", 0)
		setBytes(1)
	default:
		// Rank/Size/Now/Node and friends are not communication ops.
		return nil
	}
	op.Sym = joinSym(sym)
	if !op.MatchReady() {
		x.note("%s at %s has non-constant arguments the interpreter cannot resolve", op.Kind, x.pos(call.Pos()))
	}
	x.ops++
	return []Node{{Op: &op}}
}

// invalidate forgets bindings for every variable assigned inside n,
// after a region whose execution could not be followed.
func (x *extractor) invalidate(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch s := c.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				x.bindLhs(l, symexec.Unknown())
			}
		case *ast.IncDecStmt:
			x.bindLhs(s.X, symexec.Unknown())
		}
		return true
	})
}

// ---- small helpers ----

func joinSym(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

func equalSeq(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalNode(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalNode(a, b Node) bool {
	if (a.Op == nil) != (b.Op == nil) {
		return false
	}
	if a.Op != nil {
		return *a.Op == *b.Op
	}
	return a.Count == b.Count && equalSeq(a.Body, b.Body)
}

// hasComm reports whether the subtree performs (or may perform, via a
// call receiving the communicator) communication.
func hasComm(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if name, _ := symexec.CommMethod(info, call); name != "" && name != "Rank" && name != "Size" && name != "Now" && name != "Node" {
			found = true
			return false
		}
		for _, a := range call.Args {
			if isCommType(info.TypeOf(a)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func hasCommStmts(info *types.Info, list []ast.Stmt) bool {
	for _, st := range list {
		if hasComm(info, st) {
			return true
		}
	}
	return false
}

func hasFallthrough(cc *ast.CaseClause) bool {
	for _, st := range cc.Body {
		if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			return true
		}
	}
	return false
}

func isCommType(t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Comm"
}

// isEnvRecv reports whether x is a perfskel Env value (the testbed
// launcher receiver).
func isEnvRecv(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Env"
}

// isMPIPkg reports whether x names the internal/mpi package.
func isMPIPkg(info *types.Info, x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	path := pn.Imported().Path()
	return path == "perfskel/internal/mpi"
}

// commParam returns the *Comm parameter object of a declared function.
func commParam(info *types.Info, fd *ast.FuncDecl) types.Object {
	for _, p := range paramIdents(fd.Type) {
		if obj := info.Defs[p]; obj != nil && isCommType(obj.Type()) {
			return obj
		}
	}
	return nil
}

func paramIdents(ft *ast.FuncType) []*ast.Ident {
	var out []*ast.Ident
	if ft.Params == nil {
		return out
	}
	for _, f := range ft.Params.List {
		out = append(out, f.Names...)
	}
	return out
}

// standaloneRanks recognizes a function body that switches exhaustively
// on a constant rank: a SwitchStmt whose tag is c.Rank() with
// all-constant, non-negative cases. It returns max(case)+1, or 0.
func standaloneRanks(info *types.Info, fd *ast.FuncDecl) int {
	if commParam(info, fd) == nil {
		return 0
	}
	best := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		call, ok := ast.Unparen(sw.Tag).(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, _ := symexec.CommMethod(info, call); name != "Rank" {
			return true
		}
		maxCase := -1
		env := symexec.NewEnv(info, 0, 1)
		for _, cc := range sw.Body.List {
			clause := cc.(*ast.CaseClause)
			if clause.List == nil {
				return true // a default clause means the switch is not the whole program shape
			}
			for _, v := range clause.List {
				cv, ok := env.EvalInt(v)
				if !ok || cv < 0 || cv >= maxRanks {
					return true
				}
				if int(cv) > maxCase {
					maxCase = int(cv)
				}
			}
		}
		if maxCase+1 > best {
			best = maxCase + 1
		}
		return true
	})
	return best
}
