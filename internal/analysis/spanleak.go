package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// SpanLeak flags trace span acquisitions that are not closed on every
// return path.
//
// A trace.Span left open skews the phase-breakdown report, leaks an
// entry in the tracer's open-span table, and — because the End event
// never lands in the ring — makes the exported trace differ from the
// events that actually happened. This is the bug class PR 1 fixed by
// hand in pod.Stop; the analyzer makes it structural.
//
// It is the lifecycle engine (lifecycle.go) over one rule: a call whose
// result is a trace.Span acquires, the span's own methods are its only
// non-escaping uses, and End — called or deferred — releases it. Spans
// stored in a field, passed to a call, returned, or captured by a
// closure are event-driven and exempt. Discarding a span (`_ =` or a
// bare call statement) is always reported.
var SpanLeak = &Analyzer{
	Name: "spanleak",
	Doc:  "flag span/op acquisitions lacking an End on some return path",
	Run:  spanRule.run,
}

var spanRule = &resourceRule{
	acquire: func(pass *Pass, call *ast.CallExpr) (string, bool) {
		tv, ok := pass.TypesInfo.Types[call]
		return "", ok && isSpanType(tv.Type)
	},
	use: func(_ *Pass, _ map[string]*FuncEffects, stack []ast.Node, id *ast.Ident) (useKind, string) {
		sel, ok := parentOf(stack).(*ast.SelectorExpr)
		switch {
		case !ok || sel.X != id:
			return useEscape, ""
		case sel.Sel.Name == "End" && calledAt(stack, sel) != nil:
			return useRelease, ""
		}
		return useNeutral, ""
	},
	discarded: func(pass *Pass, a *acquisition) string {
		return fmt.Sprintf("span discarded: the result of %s must be kept and ended", calleeName(pass, a.call))
	},
	leaked: func(pass *Pass, a *acquisition) string {
		return fmt.Sprintf("span %s from %s is not ended on every return path (add %s.End(...) or defer it)",
			a.obj.Name(), calleeName(pass, a.call), a.obj.Name())
	},
}

func isSpanType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return pkgPathOf(obj) == "cruz/internal/trace" && obj.Name() == "Span"
}
