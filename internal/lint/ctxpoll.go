package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"wcoj/internal/lint/analysis"
)

// CtxPoll enforces prompt cancellation: in the engine's execution
// packages, any loop whose body can recurse into trie iteration —
// conservatively, any loop that (transitively, through statically
// resolvable same-package calls) reaches a recursion cycle or invokes
// a function-typed value such as an emit callback — must poll a stop
// flag or context in that same body, directly or via a callee that
// polls.
//
// Recognized polls: <atomic.Bool>.Load(), ctx.Err(), <-ctx.Done()
// (including inside select), and core.CtxErr. A loop proved bounded by
// hand can be exempted with `//wcojlint:nopoll <reason>`; the reason
// is mandatory.
var CtxPoll = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "potentially unbounded execution loops must poll the stop flag or ctx",
	Run:  runCtxPoll,
}

// ctxPollPackages limits the analyzer to the hot execution packages;
// fixture packages match their own name.
var ctxPollPackages = []string{
	"internal/core",
	"internal/agg",
	"ctxpoll",
}

func runCtxPoll(pass *analysis.Pass) error {
	inScope := false
	for _, suffix := range ctxPollPackages {
		if strings.HasSuffix(pass.Pkg.Path(), suffix) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	dirs := parseDirectives(pass)
	g := buildCallGraph(pass)
	g.computePolls()
	g.computeDanger()

	for _, fn := range g.funcs {
		checkLoops(pass, dirs, g, fn)
	}
	return nil
}

// fnode is one analyzable function body: a declared function/method or
// a function literal.
type fnode struct {
	name string
	body *ast.BlockStmt

	directPoll   bool     // body polls stop/ctx outside nested literals
	callsUnknown bool     // calls a function-typed value (callback)
	callees      []*fnode // statically resolved same-package callees

	pollReach bool // this function polls, itself or via a callee
	dangerous bool // reaches a recursion cycle or an unknown call
	onStack   bool // DFS bookkeeping for cycle detection
	visited   bool
}

type callGraph struct {
	pass    *analysis.Pass
	funcs   []*fnode
	byObj   map[types.Object]*fnode // top-level funcs and methods
	byLit   map[*ast.FuncLit]*fnode
	funcVar map[types.Object]*fnode // local var assigned exactly one literal
}

// buildCallGraph indexes every function body in the package and
// resolves direct calls: top-level functions, same-package methods,
// and local variables bound to exactly one function literal (the
// `rec := func(...)` recursion idiom).
func buildCallGraph(pass *analysis.Pass) *callGraph {
	g := &callGraph{
		pass:    pass,
		byObj:   make(map[types.Object]*fnode),
		byLit:   make(map[*ast.FuncLit]*fnode),
		funcVar: make(map[types.Object]*fnode),
	}
	varAssigns := make(map[types.Object]int)

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				fn := &fnode{name: n.Name.Name, body: n.Body}
				g.funcs = append(g.funcs, fn)
				if obj := pass.TypesInfo.Defs[n.Name]; obj != nil {
					g.byObj[obj] = fn
				}
			case *ast.FuncLit:
				if _, ok := g.byLit[n]; !ok { // may be pre-registered by recordFuncVar
					fn := &fnode{name: "func literal", body: n.Body}
					g.funcs = append(g.funcs, fn)
					g.byLit[n] = fn
				}
			case *ast.AssignStmt:
				countFuncVarAssign(pass, g, n, varAssigns)
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if lit, ok := n.Values[i].(*ast.FuncLit); ok {
							recordFuncVar(pass, g, pass.TypesInfo.Defs[name], lit, varAssigns)
						} else {
							varAssigns[pass.TypesInfo.Defs[name]] += 2 // opaque binding
						}
					}
				}
			}
			return true
		})
	}
	// Discard ambiguous bindings: a var assigned more than once (or
	// from a non-literal) cannot be resolved statically.
	for obj, count := range varAssigns {
		if count > 1 {
			delete(g.funcVar, obj)
		}
	}
	for _, fn := range g.funcs {
		scanBody(pass, g, fn)
	}
	return g
}

func countFuncVarAssign(pass *analysis.Pass, g *callGraph, as *ast.AssignStmt, varAssigns map[types.Object]int) {
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
			continue
		}
		if i < len(as.Rhs) {
			if lit, ok := as.Rhs[i].(*ast.FuncLit); ok {
				recordFuncVar(pass, g, obj, lit, varAssigns)
				continue
			}
		}
		varAssigns[obj] += 2 // assigned something other than one literal
	}
}

func recordFuncVar(pass *analysis.Pass, g *callGraph, obj types.Object, lit *ast.FuncLit, varAssigns map[types.Object]int) {
	if obj == nil {
		return
	}
	varAssigns[obj]++
	if fn, ok := g.byLit[lit]; ok {
		g.funcVar[obj] = fn
	} else {
		// Literal not yet indexed (assignment encountered first in
		// the walk); index it now, Inspect will find it again as a
		// child and reuse this node.
		fn := &fnode{name: obj.Name(), body: lit.Body}
		g.funcs = append(g.funcs, fn)
		g.byLit[lit] = fn
		g.funcVar[obj] = fn
	}
	if fn := g.funcVar[obj]; fn != nil && fn.name == "func literal" {
		fn.name = obj.Name()
	}
}

// scanBody records direct polls and classifies every call in fn's own
// body (not nested literals).
func scanBody(pass *analysis.Pass, g *callGraph, fn *fnode) {
	walkSameFunc(fn.body, func(n ast.Node) bool {
		if n == fn.body {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPollCall(pass, n) {
				fn.directPoll = true
				return true
			}
			callee, unknown := g.resolveCall(n)
			if callee != nil {
				fn.callees = append(fn.callees, callee)
			} else if unknown {
				fn.callsUnknown = true
			}
		case *ast.UnaryExpr:
			if isDonePoll(pass, n) {
				fn.directPoll = true
			}
		}
		return true
	})
}

// isPollCall reports whether call is a recognized cancellation poll.
func isPollCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		recv := exprType(pass, fun.X)
		if recv == nil {
			return false
		}
		if fun.Sel.Name == "Load" && namedIn(recv, "sync/atomic", "Bool") {
			return true
		}
		if fun.Sel.Name == "Err" && isContext(recv) {
			return true
		}
		// Qualified helpers: core.CtxErr(ctx) wraps ctx.Err.
		if fun.Sel.Name == "CtxErr" || fun.Sel.Name == "CtxAbortErr" {
			return true
		}
	case *ast.Ident:
		if fun.Name == "CtxErr" || fun.Name == "CtxAbortErr" {
			return true
		}
	}
	return false
}

// isDonePoll matches `<-ctx.Done()` receives.
func isDonePoll(pass *analysis.Pass, u *ast.UnaryExpr) bool {
	if u.Op.String() != "<-" {
		return false
	}
	call, ok := u.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := exprType(pass, sel.X)
	return t != nil && isContext(t)
}

// resolveCall maps a call expression to its callee node when it can be
// resolved statically within the package. unknown reports a call
// through a function-typed value (parameter, struct field, map entry),
// whose behavior — and termination — the analyzer cannot see.
func (g *callGraph) resolveCall(call *ast.CallExpr) (callee *fnode, unknown bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := g.pass.TypesInfo.Uses[fun]
		if obj == nil {
			return nil, false
		}
		switch obj := obj.(type) {
		case *types.Func:
			if fn, ok := g.byObj[obj]; ok {
				return fn, false
			}
			return nil, false // other-package function: bounded from our side
		case *types.Var:
			if fn, ok := g.funcVar[obj]; ok {
				return fn, false
			}
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				return nil, true // unresolvable function value
			}
		}
		return nil, false
	case *ast.SelectorExpr:
		if sel, ok := g.pass.TypesInfo.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				if m, ok := sel.Obj().(*types.Func); ok {
					if fn, ok := g.byObj[m]; ok {
						return fn, false
					}
				}
				return nil, false // interface or external method
			case types.FieldVal:
				if _, isSig := sel.Obj().Type().Underlying().(*types.Signature); isSig {
					return nil, true // emit-style callback field
				}
			}
			return nil, false
		}
		// Qualified identifier pkg.F.
		if obj, ok := g.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if fn, ok := g.byObj[obj]; ok {
				return fn, false
			}
		}
		return nil, false
	case *ast.FuncLit:
		if fn, ok := g.byLit[fun]; ok {
			return fn, false // immediately-invoked literal
		}
		return nil, false
	default:
		// Call of a call result, index expression, etc.
		if t := exprType(g.pass, call.Fun); t != nil {
			if _, isSig := t.Underlying().(*types.Signature); isSig {
				return nil, true
			}
		}
		return nil, false
	}
}

// computePolls propagates pollReach: a function polls if its own body
// polls or any resolved callee polls.
func (g *callGraph) computePolls() {
	for _, fn := range g.funcs {
		fn.pollReach = fn.directPoll
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.funcs {
			if fn.pollReach {
				continue
			}
			for _, c := range fn.callees {
				if c.pollReach {
					fn.pollReach = true
					changed = true
					break
				}
			}
		}
	}
}

// computeDanger marks functions that participate in or reach a
// recursion cycle, or that call an unresolvable function value: from a
// loop's point of view, calling such a function may run for an
// unbounded number of steps.
func (g *callGraph) computeDanger() {
	// Cycle detection: DFS; a back edge to a node on the stack marks
	// every node currently on the stack from that point as cyclic.
	var stack []*fnode
	onIndex := make(map[*fnode]int)
	var dfs func(fn *fnode)
	dfs = func(fn *fnode) {
		if fn.visited {
			return
		}
		if fn.onStack {
			return
		}
		fn.onStack = true
		onIndex[fn] = len(stack)
		stack = append(stack, fn)
		for _, c := range fn.callees {
			if c.onStack {
				for _, s := range stack[onIndex[c]:] {
					s.dangerous = true // member of a recursion cycle
				}
				continue
			}
			dfs(c)
		}
		stack = stack[:len(stack)-1]
		delete(onIndex, fn)
		fn.onStack = false
		fn.visited = true
	}
	for _, fn := range g.funcs {
		dfs(fn)
	}
	// Propagate: dangerous if own body calls an unknown value, or any
	// resolved callee is dangerous.
	for _, fn := range g.funcs {
		if fn.callsUnknown {
			fn.dangerous = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.funcs {
			if fn.dangerous {
				continue
			}
			for _, c := range fn.callees {
				if c.dangerous {
					fn.dangerous = true
					changed = true
					break
				}
			}
		}
	}
}

// checkLoops inspects every for/range loop in fn's own body.
func checkLoops(pass *analysis.Pass, dirs directiveIndex, g *callGraph, fn *fnode) {
	walkSameFunc(fn.body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		if d, exempt := dirs.at(pass.Fset, n.Pos(), "nopoll"); exempt {
			if d.arg == "" {
				pass.Reportf(n.Pos(), "nopoll directive requires a reason")
			}
			return true
		}
		dangerous, satisfied := classifyLoopBody(pass, g, body)
		if dangerous && !satisfied {
			pass.Reportf(n.Pos(), "loop in %s can run unbounded work (recursion or callback in body) but never polls a stop flag or ctx; add a poll or annotate //wcojlint:nopoll <reason>", fn.name)
		}
		return true
	})
}

// classifyLoopBody scans one loop body (including nested loops, not
// nested literals): dangerous if it calls an unknown function value or
// a callee that is dangerous; satisfied if it polls directly or calls
// a callee that polls.
func classifyLoopBody(pass *analysis.Pass, g *callGraph, body *ast.BlockStmt) (dangerous, satisfied bool) {
	walkSameFunc(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPollCall(pass, n) {
				satisfied = true
				return true
			}
			callee, unknown := g.resolveCall(n)
			if unknown {
				dangerous = true
			}
			if callee != nil {
				if callee.dangerous {
					dangerous = true
				}
				if callee.pollReach {
					satisfied = true
				}
			}
		case *ast.UnaryExpr:
			if isDonePoll(pass, n) {
				satisfied = true
			}
		}
		return true
	})
	return dangerous, satisfied
}
