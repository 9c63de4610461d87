package commgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"perfskel/internal/analysis/symexec"
)

// pureBudget bounds the statement steps a concrete interpretation may
// take.
const pureBudget = 1 << 16

// pureCall concretely interprets rhs, the right-hand side of a plain
// assignment (:= or =), when it calls a pure same-package integer
// function whose arguments are all known under the current environment.
// This covers helper computations symexec's affine-loop recognition
// cannot fold — the grid2d-style factorization loop
// `for f := 1; f*f <= size; f++` — by running them to completion under
// a bounded step budget. Anything the runner does not model
// (communication, non-integer state, writes outside the helper, range
// loops, nested calls) makes it decline rather than approximate;
// exhausting the budget also leaves an Approx note.
func (x *extractor) pureCall(tok token.Token, rhs ast.Expr) ([]int64, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || (tok != token.DEFINE && tok != token.ASSIGN) {
		return nil, false
	}
	fd, _, params := x.calleeDecl(call)
	if fd == nil || fd.Type.Results == nil || len(params) != len(call.Args) {
		return nil, false
	}
	info := x.d.src.Info
	if hasComm(info, fd.Body) {
		return nil, false
	}
	pr := &pureRun{env: symexec.NewEnv(info, x.env.Rank, x.env.Size), fn: fd, budget: pureBudget}
	for i, p := range params {
		v, ok := x.env.EvalInt(call.Args[i])
		obj := info.Defs[p]
		if !ok || obj == nil {
			return nil, false
		}
		pr.env.Bind(obj, symexec.Const(v))
	}
	res, ok := pr.invoke()
	if pr.budget < 0 {
		x.note("call at %s exceeds the pure-helper step budget (%d); its results are unknown", x.pos(call.Pos()), pureBudget)
	}
	return res, ok
}

// pureRun executes one pure helper's statements over a symexec
// environment in which every variable is bound to a known constant, so
// expressions and conditions evaluate through the environment. Only the
// control flow lives here.
type pureRun struct {
	env    *symexec.Env
	fn     *ast.FuncDecl
	budget int
	named  []types.Object // named result objects, for bare returns
	ret    []int64
}

// ctrl is the non-local control outcome of a statement.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// invoke runs the helper's body and returns its integer results. All results
// must be plain integers; named results start at their zero value.
func (pr *pureRun) invoke() ([]int64, bool) {
	fd, info := pr.fn, pr.env.Info
	for _, f := range fd.Type.Results.List {
		if !isIntType(info.TypeOf(f.Type)) {
			return nil, false
		}
		if len(f.Names) == 0 {
			pr.named = append(pr.named, nil)
			continue
		}
		for _, name := range f.Names {
			obj := info.Defs[name]
			if obj == nil {
				return nil, false
			}
			pr.env.Bind(obj, symexec.Const(0))
			pr.named = append(pr.named, obj)
		}
	}
	c, ok := pr.stmts(fd.Body.List)
	if !ok || c != ctrlReturn || len(pr.ret) != len(pr.named) {
		return nil, false
	}
	return pr.ret, true
}

func (pr *pureRun) stmts(list []ast.Stmt) (ctrl, bool) {
	for _, st := range list {
		c, ok := pr.stmt(st)
		if !ok || c != ctrlNone {
			return c, ok
		}
	}
	return ctrlNone, true
}

// step charges one unit of the budget and reports whether any is left.
func (pr *pureRun) step() bool {
	pr.budget--
	return pr.budget >= 0
}

func (pr *pureRun) stmt(st ast.Stmt) (ctrl, bool) {
	if !pr.step() {
		return ctrlNone, false
	}
	switch s := st.(type) {
	case nil, *ast.EmptyStmt:
		return ctrlNone, true
	case *ast.BlockStmt:
		return pr.stmts(s.List)
	case *ast.AssignStmt:
		return ctrlNone, pr.assign(s)
	case *ast.IncDecStmt:
		tok := token.ADD_ASSIGN
		if s.Tok == token.DEC {
			tok = token.SUB_ASSIGN
		}
		return ctrlNone, pr.store(s.X, tok, 1)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return ctrlNone, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || (len(vs.Values) != 0 && len(vs.Values) != len(vs.Names)) {
				return ctrlNone, false
			}
			for i, name := range vs.Names {
				v := int64(0)
				if len(vs.Values) != 0 {
					if v, ok = pr.env.EvalInt(vs.Values[i]); !ok {
						return ctrlNone, false
					}
				}
				if !pr.store(name, token.DEFINE, v) {
					return ctrlNone, false
				}
			}
		}
		return ctrlNone, true
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			for _, obj := range pr.named {
				v, ok := pr.env.Lookup(obj)
				if obj == nil || !ok {
					return ctrlNone, false
				}
				pr.ret = append(pr.ret, v.N)
			}
			return ctrlReturn, true
		}
		for _, r := range s.Results {
			v, ok := pr.env.EvalInt(r)
			if !ok {
				return ctrlNone, false
			}
			pr.ret = append(pr.ret, v)
		}
		return ctrlReturn, true
	case *ast.IfStmt:
		if s.Init != nil {
			if c, ok := pr.stmt(s.Init); !ok || c != ctrlNone {
				return c, ok
			}
		}
		cond, ok := pr.env.EvalBool(s.Cond)
		if !ok {
			return ctrlNone, false
		}
		if cond {
			return pr.stmts(s.Body.List)
		}
		if s.Else != nil {
			return pr.stmt(s.Else)
		}
		return ctrlNone, true
	case *ast.ForStmt:
		if s.Init != nil {
			if c, ok := pr.stmt(s.Init); !ok || c != ctrlNone {
				return c, ok
			}
		}
		for pr.step() {
			if s.Cond != nil {
				cond, ok := pr.env.EvalBool(s.Cond)
				if !ok {
					return ctrlNone, false
				}
				if !cond {
					return ctrlNone, true
				}
			}
			c, ok := pr.stmts(s.Body.List)
			if !ok {
				return ctrlNone, false
			}
			switch c {
			case ctrlReturn:
				return ctrlReturn, true
			case ctrlBreak:
				return ctrlNone, true
			}
			if s.Post != nil {
				if c, ok := pr.stmt(s.Post); !ok || c != ctrlNone {
					return c, ok
				}
			}
		}
		return ctrlNone, false
	case *ast.BranchStmt:
		if s.Label != nil {
			return ctrlNone, false
		}
		switch s.Tok {
		case token.BREAK:
			return ctrlBreak, true
		case token.CONTINUE:
			return ctrlContinue, true
		}
	}
	return ctrlNone, false
}

// assign evaluates every right-hand side before storing any (tuple
// semantics).
func (pr *pureRun) assign(s *ast.AssignStmt) bool {
	if len(s.Lhs) != len(s.Rhs) {
		return false
	}
	vals := make([]int64, len(s.Rhs))
	for i, r := range s.Rhs {
		v, ok := pr.env.EvalInt(r)
		if !ok {
			return false
		}
		vals[i] = v
	}
	for i, l := range s.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if !pr.store(l, s.Tok, vals[i]) {
			return false
		}
	}
	return true
}

// store applies an assignment of v to the integer variable l, which
// must be declared inside the helper: a plain binding for := and =,
// symexec.Arith for compound tokens.
func (pr *pureRun) store(l ast.Expr, tok token.Token, v int64) bool {
	id, ok := ast.Unparen(l).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pr.env.Info.Defs[id]
	if obj == nil {
		obj = pr.env.Info.Uses[id]
	}
	if obj == nil || !isIntType(obj.Type()) || obj.Pos() < pr.fn.Pos() || obj.Pos() >= pr.fn.End() {
		return false
	}
	if tok != token.DEFINE && tok != token.ASSIGN {
		cur, ok := pr.env.Lookup(obj)
		if !ok {
			return false
		}
		if v, ok = symexec.Arith(tok, cur.N, v); !ok {
			return false
		}
	}
	pr.env.Bind(obj, symexec.Const(v))
	return true
}

func isIntType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
