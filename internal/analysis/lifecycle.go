package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the lifecycle engine behind spanleak, poolleak and
// oplifecycle: one algorithm for "an acquired resource reaches its
// release on every path unless it escapes".
//
// For each function body — declarations and literals alike — the engine
// finds the acquisitions bound to a local at the body's own level and
// reports those nobody keeps. It then classifies every use of each
// local: neutral, an escape (stored, returned, aliased, passed on, or
// captured by a closure — event-driven code releases it later, which
// path analysis inside one function must not judge), or a release. For
// a resource that never escapes it asks the function's CFG whether some
// path from the acquisition to return avoids every release. A deferred
// release is a release on the paths through its defer statement and no
// others, so `if keep { defer sp.End() }` covers one branch, not the
// function.
//
// A resourceRule supplies only what differs between resources: what an
// acquisition is, what one use does, and the words of its findings.

// resourceRule is one acquire/release discipline.
type resourceRule struct {
	// acquire reports whether call acquires a resource — its first result
	// — and under which label (the pool, for buffers).
	acquire func(pass *Pass, call *ast.CallExpr) (label string, ok bool)
	// use classifies one appearance of the local holding a resource, given
	// its ancestors (innermost last); a release names where it went.
	use func(pass *Pass, effects map[string]*FuncEffects, stack []ast.Node, id *ast.Ident) (useKind, string)
	// discarded and leaked word the findings for an acquisition nobody
	// keeps and for one that some path never releases.
	discarded, leaked func(pass *Pass, a *acquisition) string
	// after, if set, runs the rule's own checks on a tracked acquisition.
	after func(pass *Pass, g *cfg, a *acquisition, uses []resourceUse)
}

// useKind classifies one appearance of a tracked local.
type useKind int

const (
	useNeutral useKind = iota // content access, own method, comparison, redefinition
	useEscape                 // someone else now holds it and releases it
	useRelease                // the release itself, direct or through a summarized helper
)

// resourceUse is one classified appearance of a tracked local.
type resourceUse struct {
	kind  useKind
	label string   // for a release: where the resource went
	stmt  ast.Stmt // innermost enclosing statement
	id    *ast.Ident
}

// acquisition is one resource a function body binds.
type acquisition struct {
	stmt  ast.Stmt
	call  *ast.CallExpr
	label string
	obj   *types.Var // the local holding it; nil when discarded
	err   *types.Var // the local holding the call's error result, if any
}

// run checks every function body in the package.
func (r *resourceRule) run(pass *Pass) {
	effects := effectsFor(pass)
	eachFunc(pass, func(_ *ast.FuncType, body *ast.BlockStmt) { r.check(pass, effects, body) })
}

// eachFunc calls fn for every function body in the package: declarations
// and literals, each once.
func eachFunc(pass *Pass, fn func(*ast.FuncType, *ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Type, n.Body)
				}
			case *ast.FuncLit:
				fn(n.Type, n.Body)
			}
			return true
		})
	}
}

func (r *resourceRule) check(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt) {
	var g *cfg
	for _, a := range r.acquisitions(pass, body) {
		uses, escaped := collectUses(pass, body, a.obj, func(stack []ast.Node, id *ast.Ident) (useKind, string) {
			return r.use(pass, effects, stack, id)
		})
		if escaped {
			continue
		}
		if g == nil {
			if g, _ = buildCFG(body); !g.ok {
				return // unmodeled control flow (goto): stay silent
			}
		}
		start := g.byStmt[a.stmt]
		if start == nil {
			continue
		}
		stop := errGuard(pass, start, a.err)
		for _, u := range uses {
			if u.kind == useRelease {
				stop[u.stmt] = true
			}
		}
		if g.pathMissing(start, func(n *cfgNode) bool { return stop[n.stmt] }) {
			pass.Reportf(a.call.Pos(), "%s", r.leaked(pass, a))
		}
		if r.after != nil {
			r.after(pass, g, a, uses)
		}
	}
}

// acquisitions returns the resources body binds to a local at its own
// level (function literals are checked on their own), reporting each one
// nobody keeps: a bare call statement or a blank target.
func (r *resourceRule) acquisitions(pass *Pass, body *ast.BlockStmt) []*acquisition {
	var out []*acquisition
	bind := func(s ast.Stmt, rhs ast.Expr, lhs ...ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		label, ok := r.acquire(pass, call)
		if !ok {
			return
		}
		a := &acquisition{stmt: s, call: call, label: label}
		if len(lhs) == 0 || isBlank(lhs[0]) {
			pass.Reportf(call.Pos(), "%s", r.discarded(pass, a))
			return
		}
		if a.obj = localVar(pass, lhs[0]); a.obj == nil {
			return // stored straight into a field or element: escapes
		}
		if len(lhs) > 1 {
			a.err = localVar(pass, lhs[1])
		}
		out = append(out, a)
	}
	walkShallow(body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			bind(s, s.X)
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				bind(s, s.Rhs[0], s.Lhs...) // v, err := acquire()
			} else if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Rhs {
					bind(s, s.Rhs[i], s.Lhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
					for i := range vs.Values {
						bind(s, vs.Values[i], vs.Names[i])
					}
				}
			}
		}
	})
	return out
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// localVar returns the variable an assignment target identifier defines
// or assigns; nil for the blank identifier and anything but an identifier.
func localVar(pass *Pass, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	return v
}

// errGuard returns the statements inside an `if err != nil { ... }` that
// directly follows the acquisition and tests its own error: on those
// paths the acquisition failed and there is nothing to release. Any other
// shape guards nothing. The returned set is the caller's to extend.
func errGuard(pass *Pass, start *cfgNode, errObj *types.Var) map[ast.Stmt]bool {
	out := make(map[ast.Stmt]bool)
	if errObj == nil || len(start.succs) != 1 {
		return out
	}
	ifs, ok := start.succs[0].stmt.(*ast.IfStmt)
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

// collectUses classifies every appearance of obj in body, in source
// order, handing classify the identifier's ancestors (innermost last). It
// stops at the first escape; an appearance inside a function literal is a
// capture, which escapes without asking.
func collectUses(pass *Pass, body ast.Node, obj types.Object, classify func(stack []ast.Node, id *ast.Ident) (useKind, string)) (uses []resourceUse, escaped bool) {
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
			u := resourceUse{kind: useEscape, stmt: enclosingStmt(stack), id: id}
			if inLit == 0 {
				u.kind, u.label = classify(stack, id)
			}
			if u.kind == useEscape {
				escaped = true
				return
			}
			uses = append(uses, u)
		}
		stack = append(stack, n)
		for _, c := range childNodes(n) {
			walk(c)
		}
		stack = stack[:len(stack)-1]
	}
	walk(body)
	return uses, escaped
}

// parentOf returns the innermost ancestor on stack, or nil.
func parentOf(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// calledAt returns the call whose callee is sel, sel being the innermost
// ancestor on stack — `x.m(...)` seen from x — or nil.
func calledAt(stack []ast.Node, sel *ast.SelectorExpr) *ast.CallExpr {
	if len(stack) < 2 {
		return nil
	}
	if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == sel {
		return call
	}
	return nil
}

// enclosingStmt returns the innermost statement on the ancestor stack.
func enclosingStmt(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if s, ok := stack[i].(ast.Stmt); ok {
			return s
		}
	}
	return nil
}

// walkShallow visits the statements of body without descending into
// nested function literals.
func walkShallow(body *ast.BlockStmt, fn func(ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if s, ok := n.(ast.Stmt); ok {
			fn(s)
		}
		return true
	})
}

// childNodes returns the direct AST children of n, in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
