package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the interprocedural half of cruzvet: per-function effect
// summaries, computed bottom-up over the loaded package graph and shared
// by the resource-lifecycle and protocol analyzers (poolleak,
// oplifecycle, ctxprop, errdrop).
//
// A summary answers "what does calling this function do to its
// arguments" without the caller having to see the body: "releases arg i
// to pool P", "terminates the op passed as arg i", "propagates the
// trace context passed as arg i onto the wire or into a child span",
// "every error this function returns is nil". The path-sensitive
// analyzers then treat a call to a summarized helper exactly like the
// base operation itself, so the checks see through one-or-more helper
// levels instead of going silent at the first wrapper.
//
// Resolution is eager rather than a whole-program fixpoint in a Finish
// hook: Load returns packages in `go list -deps` post-order (every dependency before its importers), and Go
// forbids import cycles, so by the time a package is summarized every
// cross-package callee already has its final summary. Within a package,
// mutual recursion is possible and the computation iterates to a
// fixpoint. Summaries are exported as per-package facts (analyzer key
// "effects").
//
// Function literals are deliberately excluded when collecting a
// function's own effects: a closure handed to a callback or the
// scheduler runs later (or never), so its body must not count as
// something the call performs. Deferred direct calls do count — a
// `defer c.putFrameBuf(b)` is guaranteed on every return path.

// recvIndex is the pseudo parameter index of a method receiver in a
// FuncEffects map.
const recvIndex = -1

// FuncEffects is one function's interprocedural summary. Keys are
// parameter indices (0-based; recvIndex for the receiver).
type FuncEffects struct {
	// Releases maps a parameter to the buffer pool ("frame", "seg") the
	// function returns it to on some path.
	Releases map[int]string
	// Terminates marks *ctl.Op parameters whose eventual completion the
	// function guarantees: it calls Fail, Finish or ArmTimeout on them
	// (directly or transitively).
	Terminates map[int]bool
	// Propagates marks trace.SpanContext parameters the function carries
	// onward: into SendCtx, BeginChild, InstantCtx, or a callee that
	// itself propagates.
	Propagates map[int]bool
	// NilErr reports that every value the function returns in its error
	// result is the nil constant — callers may discard it.
	NilErr bool
}

// pkgEffects is the per-package fact exported under the "effects" key:
// funcKey → summary, for every function declared in the package.
type pkgEffects struct {
	funcs map[string]*FuncEffects
}

// poolPutNames maps the release-method naming convention to its pool.
// Recognition is by method name (any receiver), so the ctl frame pool,
// the tcpip segment free list, and fixture pools all match without a
// hard dependency on one package.
var poolPutNames = map[string]string{
	"putFrameBuf": "frame",
	"putSegBuf":   "seg",
}

// poolGetNames maps the acquisition-method naming convention to its pool.
var poolGetNames = map[string]string{
	"getFrameBuf": "frame",
	"getSegBuf":   "seg",
}

// opTerminators are the ctl.Op methods that guarantee the op's eventual
// completion: immediate (Fail/Finish) or armed (a timeout always ends in
// Fail unless something else completes the op first).
var opTerminators = map[string]bool{
	"cruz/internal/ctl.(Op).Fail":       true,
	"cruz/internal/ctl.(Op).Finish":     true,
	"cruz/internal/ctl.(Op).ArmTimeout": true,
}

// ctxSinkParams maps the base trace-context sinks to the parameter
// index that adopts the context.
var ctxSinkParams = map[string]int{
	"cruz/internal/ctl.(Conn).SendCtx":        1,
	"cruz/internal/trace.(Tracer).BeginChild": 0,
	"cruz/internal/trace.(Tracer).InstantCtx": 0,
}

// effectsFor returns the whole-program summary table, computing and
// exporting this package's entries on first use. Analyzers call it from
// Run; because packages arrive in dependency order, lookups for
// imported packages always see finished summaries (packages outside the
// analyzed set simply have none — conservative silence).
func effectsFor(pass *Pass) map[string]*FuncEffects {
	s := pass.Suite
	if s.effects == nil {
		s.effects = make(map[string]*FuncEffects)
		s.effectsDone = make(map[string]bool)
	}
	if !s.effectsDone[pass.Pkg.Path()] {
		s.effectsDone[pass.Pkg.Path()] = true
		computeEffects(pass, s.effects)
	}
	return s.effects
}

// effectDecl is one function declaration being summarized.
type effectDecl struct {
	key       string
	body      *ast.BlockStmt
	params    map[*types.Var]int // receiver and parameters → index
	ctxParams map[int]*types.Var // SpanContext-typed parameters
	hasErr    bool               // last result is error
}

func computeEffects(pass *Pass, merged map[string]*FuncEffects) {
	var decls []*effectDecl
	exported := &pkgEffects{funcs: make(map[string]*FuncEffects)}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			d := &effectDecl{
				key:    funcKey(fn),
				body:   fd.Body,
				params: make(map[*types.Var]int),
			}
			if r := sig.Recv(); r != nil {
				d.params[r] = recvIndex
			}
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				d.params[p] = i
				if isSpanContextType(p.Type()) && p.Name() != "" && p.Name() != "_" {
					if d.ctxParams == nil {
						d.ctxParams = make(map[int]*types.Var)
					}
					d.ctxParams[i] = p
				}
			}
			if n := sig.Results().Len(); n > 0 && isErrorType(sig.Results().At(n-1).Type()) {
				d.hasErr = true
			}
			eff := &FuncEffects{
				Releases:   make(map[int]string),
				Terminates: make(map[int]bool),
				Propagates: make(map[int]bool),
			}
			merged[d.key] = eff
			exported.funcs[d.key] = eff
			decls = append(decls, d)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if summarizeOne(pass, d, merged) {
				changed = true
			}
		}
	}
	// Exported under a reserved analyzer key shared by all consumers.
	pass.Suite.facts[factKey{"effects", pass.Pkg.Path()}] = exported
}

// summarizeOne rescans one declaration against the current summary
// table, reporting whether its own summary grew.
func summarizeOne(pass *Pass, d *effectDecl, merged map[string]*FuncEffects) bool {
	eff := merged[d.key]
	changed := false
	setRelease := func(i int, pool string) {
		if eff.Releases[i] != pool {
			eff.Releases[i] = pool
			changed = true
		}
	}
	setTerm := func(i int) {
		if !eff.Terminates[i] {
			eff.Terminates[i] = true
			changed = true
		}
	}
	setProp := func(i int) {
		if !eff.Propagates[i] {
			eff.Propagates[i] = true
			changed = true
		}
	}
	paramOf := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, _ := pass.TypesInfo.Uses[id].(*types.Var)
		if v == nil {
			return 0, false
		}
		i, ok := d.params[v]
		return i, ok
	}

	walkShallow(d.body, func(s ast.Stmt) {
		for _, call := range stmtCalls(s) {
			fn := calleeOf(pass.TypesInfo, call)
			if fn == nil {
				continue
			}
			key := funcKey(fn)
			recvX := callReceiver(fn, call)

			// Base pool release: c.putFrameBuf(b) / s.putSegBuf(b).
			if pool, ok := poolPutNames[fn.Name()]; ok && recvX != nil && len(call.Args) == 1 {
				if i, ok := paramOf(call.Args[0]); ok {
					setRelease(i, pool)
				}
			}
			// Base op terminators: op.Fail / Finish / ArmTimeout.
			if opTerminators[key] && recvX != nil {
				if i, ok := paramOf(recvX); ok {
					setTerm(i)
				}
			}
			// Base context sinks.
			if argIdx, ok := ctxSinkParams[key]; ok && argIdx < len(call.Args) {
				if i, ok := paramOf(call.Args[argIdx]); ok {
					setProp(i)
				}
			}
			// Transitive effects through a summarized callee.
			ce := merged[key]
			if ce == nil {
				continue
			}
			lift := func(calleeIdx int, apply func(int)) {
				var arg ast.Expr
				if calleeIdx == recvIndex {
					arg = recvX
				} else if calleeIdx < len(call.Args) {
					arg = call.Args[calleeIdx]
				}
				if arg == nil {
					return
				}
				if i, ok := paramOf(arg); ok {
					apply(i)
				}
			}
			for j, pool := range ce.Releases {
				pool := pool
				lift(j, func(i int) { setRelease(i, pool) })
			}
			for j := range ce.Terminates {
				lift(j, setTerm)
			}
			for j := range ce.Propagates {
				lift(j, setProp)
			}
		}
	})

	// SpanContext parameters: the full propagation classifier (ctxprop.go)
	// decides — base sinks and summarized callees, but also field reads
	// (manual adoption), stores, returns, and closure captures. Running
	// it inside the fixpoint lets `f(ctx){ g(ctx) }` become propagating
	// the moment g does.
	for i, p := range d.ctxParams {
		if !eff.Propagates[i] && ctxParamPropagates(pass, merged, d.body, p) {
			setProp(i)
		}
	}

	if d.hasErr && !eff.NilErr && returnsOnlyNilErr(pass, d, merged) {
		eff.NilErr = true
		changed = true
	}
	return changed
}

// returnsOnlyNilErr reports whether every return statement at the
// function's own nesting level yields nil (or a NilErr callee's result)
// in the error position. Bare returns of named results are conservatively
// treated as possibly non-nil.
func returnsOnlyNilErr(pass *Pass, d *effectDecl, merged map[string]*FuncEffects) bool {
	allNil := true
	walkShallow(d.body, func(s ast.Stmt) {
		ret, ok := s.(*ast.ReturnStmt)
		if !ok || !allNil {
			return
		}
		if len(ret.Results) == 0 {
			allNil = false // bare return: named error may hold anything
			return
		}
		last := ast.Unparen(ret.Results[len(ret.Results)-1])
		switch e := last.(type) {
		case *ast.Ident:
			if _, isNil := pass.TypesInfo.Uses[e].(*types.Nil); isNil {
				return
			}
		case *ast.CallExpr:
			if fn := calleeOf(pass.TypesInfo, e); fn != nil {
				if ce := merged[funcKey(fn)]; ce != nil && ce.NilErr {
					return
				}
			}
		}
		allNil = false
	})
	return allNil
}

// callReceiver returns the receiver expression of a method call
// (x in x.m(...)), or nil when fn is not a method or the call is not in
// selector form.
func callReceiver(fn *types.Func, call *ast.CallExpr) ast.Expr {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return ast.Unparen(sel.X)
}

// stmtCalls returns the call expressions appearing at the statement's
// own level: expression and defer statements, assignment right-hand
// sides, and return results. Calls nested deeper (inside composite
// statements, which own their own CFG nodes, or function literals) are
// not included.
func stmtCalls(s ast.Stmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	add := func(e ast.Expr) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			out = append(out, call)
		}
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		add(s.X)
	case *ast.DeferStmt:
		out = append(out, s.Call)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			add(r)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			add(r)
		}
	}
	return out
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

var errorType = types.Universe.Lookup("error").Type()

// isSpanContextType reports whether t is trace.SpanContext.
func isSpanContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return pkgPathOf(obj) == "cruz/internal/trace" && obj.Name() == "SpanContext"
}
