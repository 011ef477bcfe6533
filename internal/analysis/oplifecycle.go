package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// OpLifecycle enforces the ctl op protocol from PR 3: every op created
// via (Table).Begin must be driven to completion — Fail or Finish on
// every path, or an armed timeout that guarantees eventual termination —
// and every Expect wait-set must have an Arrive handler somewhere in the
// program, or the op stalls forever on a set that can never clear.
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
//     Begin to return: op.Fail, op.Finish, op.ArmTimeout, or — via the
//     interprocedural summaries — a helper that terminates it. Paths
//     through the `if err != nil` guard right after Begin hold no op and
//     need none. Ops that escape (stored in a wrapper struct, captured by
//     a handler closure, returned) are event-driven and exempt; that is
//     the dominant pattern in core (the coordinator's rootOp; the agents'
//     agentOp, replOp, fetchOp and relayOp). This check is the lifecycle
//     engine (lifecycle.go).
//
//  3. Wait-set names passed to op.Expect must have a matching op.Arrive
//     somewhere in the analyzed tree (whole-program, via package facts
//     merged in Finish). Only string-literal set names are matched; a
//     dynamic Arrive name is treated as a wildcard that may clear
//     anything.
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

var opRule = &resourceRule{
	acquire: func(pass *Pass, call *ast.CallExpr) (string, bool) {
		return "", isBegin(pass, call)
	},
	use: opUse,
	discarded: func(*Pass, *acquisition) string {
		return "op from Begin discarded: it stays in the table but nothing can ever complete it"
	},
	leaked: func(_ *Pass, a *acquisition) string {
		return fmt.Sprintf("op %s from Begin neither completes (Fail/Finish) nor arms a timeout on some path: it leaks in the table", a.obj.Name())
	},
}

func runOpLifecycle(pass *Pass) {
	opRule.run(pass)
	facts := &opLifecycleFacts{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Check 1's other half: `op, _ := tb.Begin(...)`.
				if len(n.Lhs) == 2 && len(n.Rhs) == 1 && isBlank(n.Lhs[1]) {
					if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && isBegin(pass, call) {
						pass.Reportf(call.Pos(), "Begin error discarded: ErrOpExists must be handled or the op is double-driven")
					}
				}
			case *ast.CallExpr:
				collectWaitSite(pass, facts, n)
			}
			return true
		})
	}
	pass.ExportFact(facts)
}

func isBegin(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeOf(pass.TypesInfo, call)
	return fn != nil && funcKey(fn) == opBeginKey
}

// opUse classifies one appearance of an op: its own methods are direct
// control (op.Expect, op.OnFinish, op.Data), the terminating ones — or a
// summarized helper handed the op — release it, anything else escapes.
func opUse(pass *Pass, effects map[string]*FuncEffects, stack []ast.Node, id *ast.Ident) (useKind, string) {
	switch p := parentOf(stack).(type) {
	case *ast.SelectorExpr:
		if p.X != id {
			break
		}
		if call := calledAt(stack, p); call != nil && terminatesAt(pass, effects, call, recvIndex) {
			return useRelease, ""
		}
		return useNeutral, ""
	case *ast.CallExpr:
		for i, a := range p.Args {
			if a == id && terminatesAt(pass, effects, p, i) {
				return useRelease, ""
			}
		}
	}
	return useEscape, ""
}

// terminatesAt reports whether call guarantees the completion of the op
// it is handed at parameter i (recvIndex: the receiver) — one of ctl.Op's
// terminators, or a helper whose summary says so.
func terminatesAt(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr, i int) bool {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	key := funcKey(fn)
	if i == recvIndex && opTerminators[key] {
		return true
	}
	eff := effects[key]
	return eff != nil && eff.Terminates[i]
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
