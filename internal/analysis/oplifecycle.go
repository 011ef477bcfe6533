package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// OpLifecycle enforces the ctl op protocol from PR 3: every op created
// via (Table).Begin must be driven to completion — Fail or Finish on
// every path, or an armed timeout/retry policy that guarantees eventual
// termination — and every Expect wait-set must have an Arrive handler
// somewhere in the program, or the op stalls forever on a set that can
// never clear.
//
// Three checks:
//
//  1. Begin's error result must not be discarded: ErrOpExists is how
//     duplicate coordination rounds are detected, and dropping it
//     double-drives the op. Discarding the op itself is also reported —
//     an op nobody holds can only be completed by key lookup, which no
//     caller does.
//
//  2. A non-escaping op must reach a terminator on every path from
//     Begin to return: op.Fail, op.Finish, op.ArmTimeout, op.ArmRetries,
//     or — via the interprocedural summaries — a helper that terminates
//     it. Ops that escape (stored in a wrapper struct, captured by a
//     handler closure, returned) are event-driven and exempt; that is
//     the dominant pattern in core (the coordinator's rootOp; the
//     agents' agentOp, replOp, fetchOp, migrateInOp, relayOp).
//
//  3. Wait-set names passed to op.Expect must have a matching op.Arrive
//     somewhere in the analyzed tree (whole-program, via package facts
//     merged in Finish — same shape as lockorder). Only string-literal
//     set names are matched; a dynamic Arrive name is treated as a
//     wildcard that may clear anything.
var OpLifecycle = &Analyzer{
	Name:   "oplifecycle",
	Doc:    "flag ctl ops that can miss Fail/Finish and Expect sets with no Arrive",
	Run:    runOpLifecycle,
	Finish: finishOpLifecycle,
}

const (
	opBeginKey  = "cruz/internal/ctl.(Table).Begin"
	opExpectKey = "cruz/internal/ctl.(Op).Expect"
	opArriveKey = "cruz/internal/ctl.(Op).Arrive"
)

// opWaitSite is one Expect or Arrive call site.
type opWaitSite struct {
	set string // literal set name; "" if dynamic
	pos token.Position
}

// opLifecycleFacts is the per-package fact: wait-set call sites.
type opLifecycleFacts struct {
	expects []opWaitSite
	arrives []opWaitSite
}

func runOpLifecycle(pass *Pass) {
	effects := effectsFor(pass)
	facts := &opLifecycleFacts{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkOpLifecycleFunc(pass, effects, n.Body)
				}
			case *ast.FuncLit:
				checkOpLifecycleFunc(pass, effects, n.Body)
			case *ast.CallExpr:
				collectWaitSite(pass, facts, n)
			}
			return true
		})
	}
	pass.ExportFact(facts)
}

// collectWaitSite records Expect/Arrive call sites for the
// whole-program wait-set check.
func collectWaitSite(pass *Pass, facts *opLifecycleFacts, call *ast.CallExpr) {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil || len(call.Args) == 0 {
		return
	}
	key := funcKey(fn)
	if key != opExpectKey && key != opArriveKey {
		return
	}
	site := opWaitSite{pos: pass.Fset.Position(call.Pos())}
	if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			site.set = s
		}
	}
	if key == opExpectKey {
		facts.expects = append(facts.expects, site)
	} else {
		facts.arrives = append(facts.arrives, site)
	}
}

// finishOpLifecycle merges every package's wait-set sites and reports
// Expect sets that no Arrive anywhere can clear. Iteration is over
// sorted package paths so output is deterministic.
func finishOpLifecycle(s *Suite) {
	all := s.Facts("oplifecycle")
	paths := make([]string, 0, len(all))
	for p := range all {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	arrived := make(map[string]bool)
	wildcardArrive := false
	for _, p := range paths {
		f := all[p].(*opLifecycleFacts)
		for _, a := range f.arrives {
			if a.set == "" {
				wildcardArrive = true
			} else {
				arrived[a.set] = true
			}
		}
	}
	if wildcardArrive {
		return // a dynamic Arrive may clear any set: nothing provable
	}
	for _, p := range paths {
		f := all[p].(*opLifecycleFacts)
		for _, e := range f.expects {
			if e.set == "" || arrived[e.set] {
				continue
			}
			s.ReportFinish("oplifecycle", e.pos,
				"wait-set %q is expected but no Arrive for it exists anywhere: the op can never clear", e.set)
		}
	}
}

// checkOpLifecycleFunc applies checks 1 and 2 to one function body.
func checkOpLifecycleFunc(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt) {
	type beginSite struct {
		stmt   ast.Stmt
		call   *ast.CallExpr
		obj    *types.Var // the op variable; nil if discarded
		errObj *types.Var // the error variable; nil if blanked
	}
	var sites []beginSite
	walkShallow(body, func(s ast.Stmt) {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeOf(pass.TypesInfo, call)
		if fn == nil || funcKey(fn) != opBeginKey {
			return
		}
		if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(), "Begin error discarded: ErrOpExists must be handled or the op is double-driven")
		}
		opID, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return // op stored straight into a field: escapes, event-driven
		}
		if opID.Name == "_" {
			pass.Reportf(call.Pos(), "op from Begin discarded: it stays in the table but nothing can ever complete it")
			return
		}
		obj, _ := pass.TypesInfo.Defs[opID].(*types.Var)
		if obj == nil {
			obj, _ = pass.TypesInfo.Uses[opID].(*types.Var)
		}
		var errObj *types.Var
		if errID, ok := as.Lhs[1].(*ast.Ident); ok {
			errObj, _ = pass.TypesInfo.Defs[errID].(*types.Var)
			if errObj == nil {
				errObj, _ = pass.TypesInfo.Uses[errID].(*types.Var)
			}
		}
		if obj != nil {
			sites = append(sites, beginSite{stmt: s, call: call, obj: obj, errObj: errObj})
		}
	})
	if len(sites) == 0 {
		return
	}

	var g *cfg
	for _, site := range sites {
		if escapesOp(pass, effects, body, site.obj) {
			continue
		}
		if hasDeferredTerminator(pass, effects, body, site.obj) {
			continue
		}
		if g == nil {
			g, _ = buildCFG(body)
			if !g.ok {
				return // unmodeled control flow (goto): stay silent
			}
		}
		start := g.byStmt[site.stmt]
		if start == nil {
			continue
		}
		// Paths through the immediate `if err != nil { ... }` guard hold
		// a nil op — Begin failed, there is nothing to complete. The
		// guard body's statements block path exploration.
		guarded := beginGuardStmts(pass, start, site.errObj)
		term := func(n *cfgNode) bool {
			return guarded[n.stmt] || stmtTerminatesOp(pass, effects, n.stmt, site.obj)
		}
		if g.pathMissing(start, term) {
			pass.Reportf(site.call.Pos(),
				"op %s from Begin neither completes (Fail/Finish) nor arms a timeout on some path: it leaks in the table",
				site.obj.Name())
		}
	}
}

// beginGuardStmts returns the statements inside the error guard that
// immediately follows a Begin call — `if err != nil { ... }` as the
// next statement, testing Begin's own error variable. Returns from
// inside that body are the ErrOpExists path, where the op is nil; they
// must not be required to terminate it. Any other shape returns an
// empty set and every path is checked.
func beginGuardStmts(pass *Pass, begin *cfgNode, errObj *types.Var) map[ast.Stmt]bool {
	out := make(map[ast.Stmt]bool)
	if errObj == nil || len(begin.succs) != 1 {
		return out
	}
	ifs, ok := begin.succs[0].stmt.(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return out
	}
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ {
		return out
	}
	id, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[id] != errObj {
		return out
	}
	if nid, ok := ast.Unparen(cond.Y).(*ast.Ident); !ok || nid.Name != "nil" {
		return out
	}
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			out[s] = true
		}
		return true
	})
	return out
}

// escapesOp reports whether the op variable leaves this function's
// direct control: stored into a struct or field, returned, aliased,
// captured by a closure, or passed to a callee that is not known to
// terminate it. Method calls on the op itself (op.Fail, op.Expect,
// op.OnFinish, op.Data reads) are direct control, not escapes.
func escapesOp(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt, obj *types.Var) bool {
	escaped := false
	var stack []ast.Node
	inLit := 0
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil || escaped {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			inLit++
			defer func() { inLit-- }()
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			if inLit > 0 {
				escaped = true // captured: completion is the handler's job
				return
			}
			parent := ast.Node(nil)
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			switch p := parent.(type) {
			case *ast.SelectorExpr:
				if p.X != id {
					escaped = true
				}
			case *ast.CallExpr:
				// Allowed only when the callee terminates the op at this
				// argument position.
				if !callTerminatesArg(pass, effects, p, id) {
					escaped = true
				}
			default:
				escaped = true
			}
			return
		}
		stack = append(stack, n)
		for _, c := range childNodes(n) {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	walk(body)
	return escaped
}

// callTerminatesArg reports whether call passes id to a callee position
// with a Terminates summary.
func callTerminatesArg(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr, id *ast.Ident) bool {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	eff := effects[funcKey(fn)]
	if eff == nil {
		return false
	}
	for i, a := range call.Args {
		if ast.Unparen(a) == id && eff.Terminates[i] {
			return true
		}
	}
	if rx := callReceiver(fn, call); rx == id && eff.Terminates[recvIndex] {
		return true
	}
	return false
}

// hasDeferredTerminator reports whether body contains a deferred direct
// call that terminates the op on every return path.
func hasDeferredTerminator(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt, obj *types.Var) bool {
	found := false
	walkShallow(body, func(s ast.Stmt) {
		d, ok := s.(*ast.DeferStmt)
		if ok && callIsTerminatorOn(pass, effects, d.Call, obj) {
			found = true
		}
	})
	return found
}

// stmtTerminatesOp reports whether the statement contains, at its own
// level, a call that terminates the op: one of the Op terminator
// methods or a summarized terminating helper.
func stmtTerminatesOp(pass *Pass, effects map[string]*FuncEffects, s ast.Stmt, obj *types.Var) bool {
	if s == nil {
		return false
	}
	for _, call := range stmtCalls(s) {
		if callIsTerminatorOn(pass, effects, call, obj) {
			return true
		}
	}
	return false
}

func callIsTerminatorOn(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr, obj *types.Var) bool {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	key := funcKey(fn)
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == obj
	}
	if opTerminators[key] {
		if rx := callReceiver(fn, call); rx != nil && isObj(rx) {
			return true
		}
	}
	if eff := effects[key]; eff != nil {
		for i, a := range call.Args {
			if eff.Terminates[i] && isObj(a) {
				return true
			}
		}
		if eff.Terminates[recvIndex] {
			if rx := callReceiver(fn, call); rx != nil && isObj(rx) {
				return true
			}
		}
	}
	return false
}
