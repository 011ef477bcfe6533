package analysis

import (
	"go/ast"
	"go/types"
)

// CtxProp keeps the PR 6 causal trees connected: a trace.SpanContext
// that is handed to a function and then dropped severs every span
// below it from the op that caused it, and the break only shows up
// later as an orphaned root in the trace viewer.
//
// Three checks:
//
//  1. A function with a trace.SpanContext parameter must propagate it:
//     into SendCtx/BeginChild/InstantCtx, a summarized propagating
//     helper, a struct field or return value (event-driven hand-off),
//     or by reading its fields (adoption by hand). A parameter that is
//     unused — or used only for ctx.Zero() checks — is a severed edge.
//     The check is interprocedural: passing the context to a helper
//     only counts if the helper's summary says it propagates.
//
//  2. A plain (ctl.Conn).Send in a function that holds a SpanContext
//     parameter sends a zero context while the op's context is in
//     scope: the receive side adopts an empty parent. Use SendCtx.
//
//  3. A discarded (ctl.Conn).FrameCtx() result at a frame-decode site
//     reads the causal context off the wire and throws it away.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc:  "flag severed trace-context chains: dropped ctx params, Send-not-SendCtx, discarded FrameCtx",
	Run:  runCtxProp,
}

const (
	connSendKey     = "cruz/internal/ctl.(Conn).Send"
	connFrameCtxKey = "cruz/internal/ctl.(Conn).FrameCtx"
)

func runCtxProp(pass *Pass) {
	effects := effectsFor(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxParams(pass, effects, fd)
			checkBareSends(pass, fd)
		}
		// Check 3 applies anywhere, including closures (OnFrame handlers
		// are function literals).
		ast.Inspect(file, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
				if fn := calleeOf(pass.TypesInfo, call); fn != nil && funcKey(fn) == connFrameCtxKey {
					pass.Reportf(call.Pos(), "frame context discarded: FrameCtx() read off the wire must be adopted (BeginChild) or attached to the decoded message")
				}
			}
			return true
		})
	}
}

// checkCtxParams applies check 1 to each SpanContext parameter of the
// declared function. The verdict is simply the function's own summary:
// a parameter without a Propagates entry after the package fixpoint is
// a severed edge.
func checkCtxParams(pass *Pass, effects map[string]*FuncEffects, fd *ast.FuncDecl) {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	eff := effects[funcKey(fn)]
	if eff == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if !isSpanContextType(p.Type()) || p.Name() == "_" || p.Name() == "" {
			continue
		}
		if !eff.Propagates[i] {
			pass.Reportf(p.Pos(),
				"trace context %s is dropped: never sent, stored, returned, or adopted into a child span — the causal tree breaks here",
				p.Name())
		}
	}
}

// ctxParamPropagates reports whether some use of the parameter carries
// the context onward, through the lifecycle engine's use walker with
// "propagates" as its escape. Uses inside function literals, stores,
// returns, and composite literals get the benefit of the doubt
// (event-driven propagation); field reads count as manual adoption; a
// Zero() check alone does not.
func ctxParamPropagates(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt, obj types.Object) bool {
	_, propagates := collectUses(pass, body, obj, func(stack []ast.Node, id *ast.Ident) (useKind, string) {
		if ctxUsePropagates(pass, effects, stack, id) {
			return useEscape, ""
		}
		return useNeutral, ""
	})
	return propagates
}

// ctxUsePropagates classifies one appearance of the context parameter.
func ctxUsePropagates(pass *Pass, effects map[string]*FuncEffects, stack []ast.Node, id *ast.Ident) bool {
	switch p := parentOf(stack).(type) {
	case *ast.SelectorExpr:
		// ctx.Op / ctx.Span field reads are manual adoption; the Zero()
		// liveness check alone is not.
		return p.Sel.Name != "Zero"
	case *ast.CallExpr:
		fn := calleeOf(pass.TypesInfo, p)
		if fn == nil {
			return false // builtin or function value: not a known sink
		}
		key := funcKey(fn)
		for argIdx, a := range p.Args {
			if ast.Unparen(a) != id {
				continue
			}
			if sinkIdx, ok := ctxSinkParams[key]; ok && sinkIdx == argIdx {
				return true
			}
			if eff := effects[key]; eff != nil && eff.Propagates[argIdx] {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return false // comparison only
	default:
		// Composite literal fields (wireMsg{ctx: ctx}), assignments,
		// returns, channel sends: the context moves on.
		return true
	}
}

// checkBareSends applies check 2: (ctl.Conn).Send inside a function
// that has the op's context as a parameter.
func checkBareSends(pass *Pass, fd *ast.FuncDecl) {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	hasCtx := false
	for i := 0; i < sig.Params().Len(); i++ {
		if isSpanContextType(sig.Params().At(i).Type()) {
			hasCtx = true
			break
		}
	}
	if !hasCtx {
		return
	}
	walkShallow(fd.Body, func(s ast.Stmt) {
		for _, call := range stmtCalls(s) {
			callee := calleeOf(pass.TypesInfo, call)
			if callee != nil && funcKey(callee) == connSendKey {
				pass.Reportf(call.Pos(),
					"plain Send carries a zero trace context while the op's context is a parameter here: use SendCtx")
			}
		}
	})
}
