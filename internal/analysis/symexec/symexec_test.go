package symexec_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"perfskel/internal/analysis/symexec"
)

func newVar(name string, pos token.Pos) *types.Var {
	return types.NewVar(pos, nil, name, types.Typ[types.Int])
}

func TestSameExcept(t *testing.T) {
	env := symexec.NewEnv(&types.Info{}, 0, 4)
	x, y, i := newVar("x", 1), newVar("y", 2), newVar("i", 3)
	none := func(types.Object) bool { return false }
	onlyI := func(o types.Object) bool { return o == i }

	env.Bind(x, symexec.Const(7))
	snap := env.Snapshot()

	if !env.SameExcept(snap, none) {
		t.Error("unchanged environment reported as changed")
	}
	env.Bind(i, symexec.Const(1))
	if env.SameExcept(snap, none) {
		t.Error("new known binding not detected")
	}
	if !env.SameExcept(snap, onlyI) {
		t.Error("ignored binding still reported as a change")
	}
	// A variable absent from the snapshot evaluates to Unknown there;
	// binding it to an unknown value is not an observable change. This
	// is what lets an outer loop stay invariant after an inner loop
	// leaves its scoped variables bound.
	env.Restore(snap)
	env.Bind(y, symexec.Unknown())
	if !env.SameExcept(snap, none) {
		t.Error("binding an unknown value to a fresh variable reported as a change")
	}
	env.Bind(y, symexec.Const(9))
	if env.SameExcept(snap, none) {
		t.Error("binding a known value to a fresh variable not detected")
	}
	env.Restore(snap)
	env.Bind(x, symexec.Const(8))
	if env.SameExcept(snap, none) {
		t.Error("changed binding not detected")
	}
}

// loopEnv typechecks a function body full of loops and returns the
// environment plus the ForStmts in source order.
func loopEnv(t *testing.T, src string) (*symexec.Env, []*ast.ForStmt) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "loops.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	var loops []*ast.ForStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.ForStmt); ok {
			loops = append(loops, s)
		}
		return true
	})
	return symexec.NewEnv(info, 2, 4), loops
}

func TestTripLoop(t *testing.T) {
	env, loops := loopEnv(t, `package p

func f() {
	for i := 0; i < 10; i++ {
		_ = i
	}
	for j := 10; j > 0; j-- {
		_ = j
	}
	for m := 1; m < 16; m *= 2 {
		_ = m
	}
	for k := 0; k < 7; k += 3 {
		_ = k
	}
}
`)
	if len(loops) != 4 {
		t.Fatalf("found %d loops, want 4", len(loops))
	}
	want := []struct {
		count int64
		iters []int64
	}{
		{10, []int64{0, 1}},
		{10, []int64{10, 9}},
		{4, []int64{1, 2, 4, 8}},
		{3, []int64{0, 3, 6}},
	}
	for n, w := range want {
		trip, ok := env.TripLoop(loops[n])
		if !ok {
			t.Errorf("loop %d not recognized", n)
			continue
		}
		if trip.Count != w.count {
			t.Errorf("loop %d: count %d, want %d", n, trip.Count, w.count)
		}
		for i, wv := range w.iters {
			if got := trip.IterValue(int64(i)); got != wv {
				t.Errorf("loop %d iter %d: value %d, want %d", n, i, got, wv)
			}
		}
	}
}

func TestTripLoopUnresolvedBound(t *testing.T) {
	env, loops := loopEnv(t, `package p

func f(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}
`)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	if _, ok := env.TripLoop(loops[0]); ok {
		t.Error("loop with an unbound limit reported as resolvable")
	}
}

// TestArith pins the single definition of integer operators: every
// binary token and its compound-assignment form agree, and division or
// remainder by zero and out-of-range shift counts decline.
func TestArith(t *testing.T) {
	cases := []struct {
		op, compound token.Token
		x, y         int64
		want         int64
		ok           bool
	}{
		{token.ADD, token.ADD_ASSIGN, 7, 3, 10, true},
		{token.SUB, token.SUB_ASSIGN, 7, 3, 4, true},
		{token.MUL, token.MUL_ASSIGN, 7, -3, -21, true},
		{token.QUO, token.QUO_ASSIGN, -7, 2, -3, true},
		{token.QUO, token.QUO_ASSIGN, 7, 0, 0, false},
		{token.REM, token.REM_ASSIGN, -7, 3, -1, true},
		{token.REM, token.REM_ASSIGN, 7, 0, 0, false},
		{token.AND, token.AND_ASSIGN, 12, 10, 8, true},
		{token.OR, token.OR_ASSIGN, 12, 10, 14, true},
		{token.XOR, token.XOR_ASSIGN, 12, 10, 6, true},
		{token.AND_NOT, token.AND_NOT_ASSIGN, 15, 3, 12, true},
		{token.SHL, token.SHL_ASSIGN, 3, 4, 48, true},
		{token.SHL, token.SHL_ASSIGN, 1, 62, 1 << 62, true},
		{token.SHL, token.SHL_ASSIGN, 1, 63, 0, false},
		{token.SHL, token.SHL_ASSIGN, 1, -1, 0, false},
		{token.SHR, token.SHR_ASSIGN, -48, 4, -3, true},
		{token.SHR, token.SHR_ASSIGN, 8, 63, 0, false},
		{token.SHR, token.SHR_ASSIGN, 8, -1, 0, false},
	}
	for _, tc := range cases {
		for _, op := range []token.Token{tc.op, tc.compound} {
			got, ok := symexec.Arith(op, tc.x, tc.y)
			if ok != tc.ok || (ok && got != tc.want) {
				t.Errorf("Arith(%s, %d, %d) = %d, %v; want %d, %v", op, tc.x, tc.y, got, ok, tc.want, tc.ok)
			}
		}
	}
	for _, op := range []token.Token{token.LSS, token.EQL, token.LAND, token.ASSIGN, token.DEFINE, token.INC, token.ILLEGAL} {
		if _, ok := symexec.Arith(op, 1, 1); ok {
			t.Errorf("Arith accepted non-arithmetic token %s", op)
		}
	}
}

// TestFloatArith covers the float compute-work operators and their
// compound forms; float division by zero declines, bit operators are
// not float operators.
func TestFloatArith(t *testing.T) {
	cases := []struct {
		op, compound token.Token
		x, y, want   float64
		ok           bool
	}{
		{token.ADD, token.ADD_ASSIGN, 1.5, 2, 3.5, true},
		{token.SUB, token.SUB_ASSIGN, 1.5, 2, -0.5, true},
		{token.MUL, token.MUL_ASSIGN, 1.5, 2, 3, true},
		{token.QUO, token.QUO_ASSIGN, 3, 4, 0.75, true},
		{token.QUO, token.QUO_ASSIGN, 3, 0, 0, false},
		{token.REM, token.REM_ASSIGN, 3, 2, 0, false},
		{token.SHL, token.SHL_ASSIGN, 3, 2, 0, false},
	}
	for _, tc := range cases {
		for _, op := range []token.Token{tc.op, tc.compound} {
			got, ok := symexec.FloatArith(op, tc.x, tc.y)
			if ok != tc.ok || (ok && got != tc.want) {
				t.Errorf("FloatArith(%s, %g, %g) = %g, %v; want %g, %v", op, tc.x, tc.y, got, ok, tc.want, tc.ok)
			}
		}
	}
}
