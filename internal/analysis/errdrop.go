package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags discarded error results on sim-side recovery,
// migration, and takeover paths.
//
// These are exactly the paths the chaos-campaign roadmap item drives:
// an error silently dropped during an abort or failover turns an
// injected fault into a wrong answer instead of a detected failure.
// The check applies only to callees inside this module — dropping an
// error from the standard library is out of scope — and only in
// sim-side internal packages (examples and cmd binaries may shed
// errors for brevity).
//
// Interprocedural refinement: a callee whose summary proves it always
// returns a nil error (directly or through helpers) is exempt, so
// infallible-by-construction functions don't force ritual `_ =`
// plumbing. Intentional fire-and-forget sites carry a
// //cruzvet:allow errdrop with the reason, or — for whole protocol
// layers with a documented error model — an entry in errDropExempt.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flag discarded error results from module-internal calls on sim-side paths",
	Run:  runErrDrop,
}

// errDropExempt lists callees whose error result is legitimately
// fire-and-forget everywhere, with the documented reason. Kept small
// on purpose: site-specific exceptions belong in //cruzvet:allow.
var errDropExempt = map[string]bool{
	// A failed control-plane send means the conn died; that surfaces
	// through the connection's onErr callback and lease expiry, never
	// through the per-send error. All fan-out senders drop it.
	"cruz/internal/ctl.(Link).Send":     true,
	"cruz/internal/core.(msgSink).Send": true,
	// The link layer is lossy by contract: a frame that cannot be
	// transmitted is indistinguishable from one dropped by the switch,
	// and ARP retry / TCP retransmission recover either way.
	"cruz/internal/ether.(NIC).Send": true,
}

func runErrDrop(pass *Pass) {
	if !pass.Suite.SimSide(pass.Pkg.Path()) || !strings.HasPrefix(pass.Pkg.Path(), "cruz/internal/") {
		return
	}
	effects := effectsFor(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					checkDroppedCall(pass, effects, call, "")
				}
			case *ast.GoStmt:
				checkDroppedCall(pass, effects, s.Call, "")
			case *ast.DeferStmt:
				checkDroppedCall(pass, effects, s.Call, "deferred ")
			case *ast.AssignStmt:
				checkBlankErrAssign(pass, effects, s)
			}
			return true
		})
	}
}

// checkDroppedCall reports a bare call statement whose callee returns
// an error that nothing receives.
func checkDroppedCall(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr, kind string) {
	fn := errReturningCruzCallee(pass, effects, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(), "%serror result of %s discarded on a sim-side path: handle it or annotate //cruzvet:allow errdrop <reason>",
		kind, fn.Name())
}

// checkBlankErrAssign reports `x, _ := f()` where the blanked position
// is f's error result.
func checkBlankErrAssign(pass *Pass, effects map[string]*FuncEffects, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := errReturningCruzCallee(pass, effects, call)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if len(as.Lhs) != res.Len() {
		return
	}
	for i := 0; i < res.Len(); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(id.Pos(), "error result of %s assigned to _ on a sim-side path: handle it or annotate //cruzvet:allow errdrop <reason>",
				fn.Name())
		}
	}
}

// errReturningCruzCallee resolves the callee if it is a module-internal
// function returning a non-exempt, possibly-non-nil error.
func errReturningCruzCallee(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr) *types.Func {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if !strings.HasPrefix(pkgPathOf(fn), "cruz") {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	res := sig.Results()
	hasErr := false
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			hasErr = true
		}
	}
	if !hasErr {
		return nil
	}
	key := funcKey(fn)
	if errDropExempt[key] {
		return nil
	}
	if eff := effects[key]; eff != nil && eff.NilErr {
		return nil
	}
	return fn
}
