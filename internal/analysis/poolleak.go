package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PoolLeak enforces buffer-pool discipline on the ctl frame pool and
// the tcpip segment free list.
//
// A pooled buffer that misses its put on an early-return or abort path
// is not a memory leak — the GC reclaims it — but it silently degrades
// the pool hit rate the PR 7/8 zero-copy work paid for, exactly on the
// failure paths that benchmarks never drive. The opposite bugs are
// worse: a double put lets two owners share one backing array, and a
// use-after-put races the next getter's writes. All three are
// structural here.
//
// Pools are recognized by the method-name convention getFrameBuf /
// putFrameBuf ("frame" pool) and getSegBuf / putSegBuf ("seg" pool),
// so the check covers ctl.Conn, tcpip.Stack, and fixture pools without
// a hard package dependency.
//
// Ownership also runs the other way. A frame handed to a receive
// callback — any func(*T, []byte) whose T owns a frame pool, the shape
// of ctl.Conn's OnFrame — was allocated for that one frame and belongs
// to the callback, which may keep it for good (an adopting store does).
// It never came from the pool, so "recycling" it there would hand a
// buffer somebody still holds to the next sender: putting a callback's
// payload back, directly or through a releasing helper, is reported.
//
// The put-on-every-path check is the lifecycle engine (lifecycle.go):
// only buffers bound to a local that never escapes (not stored,
// returned, aliased, or captured by a closure) are path-checked — queued
// frames are legitimately put by the writer-side drain long after the
// acquiring function returns. Content operations do not count as
// escapes: slicing, indexing, copy/len/cap/append-as-source,
// encoding/binary calls, and — via the interprocedural summaries —
// passing the buffer to a helper that releases it, which counts as the
// put itself. Cross-pool puts, use-after-put and the receive-callback
// rule are this analyzer's own.
var PoolLeak = &Analyzer{
	Name: "poolleak",
	Doc:  "flag pooled buffers missing their put, put twice, or used after put",
	Run:  runPoolLeak,
}

var poolRule = &resourceRule{
	acquire: func(pass *Pass, call *ast.CallExpr) (string, bool) {
		fn := calleeOf(pass.TypesInfo, call)
		if fn == nil || callReceiver(fn, call) == nil {
			return "", false
		}
		pool, ok := poolGetNames[fn.Name()]
		return pool, ok
	},
	use: poolUse,
	discarded: func(pass *Pass, a *acquisition) string {
		return fmt.Sprintf("%s pool buffer discarded: the result of %s must be kept and put back", a.label, calleeName(pass, a.call))
	},
	leaked: func(pass *Pass, a *acquisition) string {
		return fmt.Sprintf("buffer %s from %s is not returned to the %s pool on every return path",
			a.obj.Name(), calleeName(pass, a.call), a.label)
	},
	after: checkPuts,
}

func runPoolLeak(pass *Pass) {
	poolRule.run(pass)
	effects := effectsFor(pass)
	eachFunc(pass, func(ft *ast.FuncType, body *ast.BlockStmt) { checkForeignPut(pass, effects, ft, body) })
}

// checkForeignPut reports a receive callback that returns its payload —
// a buffer it owns, which never came from the pool — to a pool.
func checkForeignPut(pass *Pass, effects map[string]*FuncEffects, ft *ast.FuncType, body *ast.BlockStmt) {
	payload := frameCallbackPayload(pass, ft)
	if payload == nil {
		return
	}
	uses, _ := collectUses(pass, body, payload, func(stack []ast.Node, id *ast.Ident) (useKind, string) {
		return poolUse(pass, effects, stack, id)
	})
	for _, u := range uses {
		if u.kind == useRelease {
			pass.Reportf(u.id.Pos(), "received frame %s belongs to the receiver and never came from the %s pool: it must not be returned there",
				payload.Name(), u.label)
		}
	}
}

// frameCallbackPayload returns the payload parameter of a function with
// the receive-callback shape func(c *T, payload []byte), T being a type
// with a pool put method; nil for any other function.
func frameCallbackPayload(pass *Pass, ft *ast.FuncType) *types.Var {
	if ft.Params == nil || len(ft.Params.List) != 2 {
		return nil
	}
	owner, payload := ft.Params.List[0], ft.Params.List[1]
	if len(owner.Names) > 1 || len(payload.Names) != 1 {
		return nil
	}
	ptr, ok := pass.TypesInfo.TypeOf(owner.Type).(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	if sl, ok := pass.TypesInfo.TypeOf(payload.Type).(*types.Slice); !ok || !types.Identical(sl.Elem(), types.Typ[types.Byte]) {
		return nil
	}
	owns := false
	for i := 0; i < named.NumMethods(); i++ {
		if _, ok := poolPutNames[named.Method(i).Name()]; ok {
			owns = true
		}
	}
	if !owns {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[payload.Names[0]].(*types.Var)
	return v
}

// checkPuts runs the pool-only checks on a tracked buffer: a put to the
// wrong pool, and any use after a put — a second put included.
func checkPuts(pass *Pass, g *cfg, a *acquisition, uses []resourceUse) {
	puts := make(map[ast.Stmt]bool)
	for _, u := range uses {
		if u.kind != useRelease {
			continue
		}
		if u.label != a.label {
			// Still a release for path purposes: the buffer is gone.
			pass.Reportf(u.id.Pos(), "buffer %s from the %s pool is returned to the %s pool", a.obj.Name(), a.label, u.label)
		}
		puts[u.stmt] = true
	}
	for _, u := range uses {
		if _, deferred := u.stmt.(*ast.DeferStmt); u.kind == useRelease && !deferred {
			checkUseAfterPut(pass, g, u.stmt, a.obj, a.label, puts)
		}
	}
}

// checkUseAfterPut walks forward from a release statement and reports
// any use of the buffer before it is redefined (typically by the next
// loop iteration's acquisition).
func checkUseAfterPut(pass *Pass, g *cfg, rel ast.Stmt, obj *types.Var, pool string, puts map[ast.Stmt]bool) {
	start := g.byStmt[rel]
	if start == nil {
		return
	}
	seen := make(map[*cfgNode]bool)
	var dfs func(n *cfgNode)
	dfs = func(n *cfgNode) {
		if n == nil || n == g.exit || seen[n] {
			return
		}
		seen[n] = true
		// A redefinition (b = ..., b := ...) reads the old value only on
		// its right-hand side (b = append(b, ...)) — that read is the bug.
		if use := stmtHeaderUse(pass, n.stmt, obj); use != nil {
			if puts[n.stmt] {
				pass.Reportf(use.Pos(), "buffer %s returned to the %s pool twice", obj.Name(), pool)
			} else {
				pass.Reportf(use.Pos(), "buffer %s used after being returned to the %s pool", obj.Name(), pool)
			}
			return
		}
		if stmtRedefines(pass, n.stmt, obj) {
			return
		}
		for _, s := range n.succs {
			dfs(s)
		}
	}
	for _, s := range start.succs {
		dfs(s)
	}
}

// stmtRedefines reports whether the statement assigns a fresh value to
// obj as a plain identifier (b = ... or b := ...).
func stmtRedefines(pass *Pass, s ast.Stmt, obj *types.Var) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if pass.TypesInfo.Defs[id] == obj || pass.TypesInfo.Uses[id] == obj {
				return true
			}
		}
	}
	return false
}

// stmtHeaderUse returns an identifier reading obj within the parts of
// the statement its CFG node represents: the full statement for simple
// statements, only the header expressions for compound ones (their
// bodies are separate nodes). LHS identifiers of a redefinition are
// not uses.
func stmtHeaderUse(pass *Pass, s ast.Stmt, obj *types.Var) *ast.Ident {
	switch s := s.(type) {
	case nil, *ast.SelectStmt:
		return nil
	case *ast.IfStmt:
		return firstUse(pass, obj, s.Init, s.Cond)
	case *ast.ForStmt:
		return firstUse(pass, obj, s.Init, s.Cond, s.Post)
	case *ast.RangeStmt:
		return firstUse(pass, obj, s.X)
	case *ast.SwitchStmt:
		return firstUse(pass, obj, s.Init, s.Tag)
	case *ast.TypeSwitchStmt:
		return firstUse(pass, obj, s.Init, s.Assign)
	case *ast.AssignStmt:
		// Only RHS reads count; LHS mention is a redefinition.
		for _, rhs := range s.Rhs {
			if id := firstUse(pass, obj, rhs); id != nil {
				return id
			}
		}
		return nil
	default:
		return firstUse(pass, obj, s)
	}
}

// firstUse returns the first identifier reading obj in the given nodes,
// skipping nil ones.
func firstUse(pass *Pass, obj *types.Var, nodes ...ast.Node) *ast.Ident {
	var found *ast.Ident
	for _, n := range nodes {
		if n == nil || found != nil {
			continue
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok && found == nil && pass.TypesInfo.Uses[id] == obj {
				found = id
			}
			return found == nil
		})
	}
	return found
}

// poolUse decides what one appearance of a buffer does, by ascending
// from the identifier through value-preserving wrappers (parens,
// slicing) to the consuming construct.
func poolUse(pass *Pass, effects map[string]*FuncEffects, stack []ast.Node, id *ast.Ident) (useKind, string) {
	var cur ast.Node = id
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.SliceExpr:
			if p.X == cur {
				cur = p // b[i:j] shares b's storage: keep ascending
				continue
			}
			return useNeutral, "" // index position: content arithmetic
		case *ast.IndexExpr:
			// b[i]: a byte, not the array — unless its address is taken.
			if un, ok := parentOf(stack[:i]).(*ast.UnaryExpr); ok && p.X == cur && un.Op == token.AND {
				return useEscape, ""
			}
			return useNeutral, ""
		case *ast.CallExpr:
			if p.Fun == cur {
				return useEscape, "" // calling the buffer: impossible, be safe
			}
			return poolCallArg(pass, effects, p, cur)
		case *ast.BinaryExpr:
			return useNeutral, "" // comparisons (b == nil), length arithmetic
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return useNeutral, "" // plain redefinition target
				}
			}
			return useEscape, "" // aliased or stored: x := b / f.b = b
		case *ast.RangeStmt:
			if p.X == cur {
				return useNeutral, "" // iterating contents
			}
			return useEscape, ""
		default:
			// Composite literals, key/values, returns, address-of,
			// channel sends, map index values...: the buffer outlives
			// this function's view of it.
			return useEscape, ""
		}
	}
	return useNeutral, ""
}

// poolCallArg decides what passing the buffer to a call does: a release
// (matching put method or a summarized releasing helper, naming the
// pool), a content operation (copy/len/cap, append-as-source,
// encoding/binary), or an escape.
func poolCallArg(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr, arg ast.Node) (useKind, string) {
	argIdx := -1
	for i, a := range call.Args {
		if a == arg {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		// Receiver position (x.m() where x is the buffer): []byte has no
		// methods in this tree; be safe.
		return useEscape, ""
	}
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		// Builtin or function-typed value.
		if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch fid.Name {
			case "copy", "len", "cap", "min", "max":
				return useNeutral, "" // content operations
			case "append":
				if argIdx > 0 {
					return useNeutral, "" // append(dst, b...): copies bytes out
				}
			}
		}
		return useEscape, ""
	}
	if pool, ok := poolPutNames[fn.Name()]; ok && callReceiver(fn, call) != nil && argIdx == 0 {
		return useRelease, pool
	}
	if eff := effects[funcKey(fn)]; eff != nil {
		if pool, ok := eff.Releases[argIdx]; ok {
			return useRelease, pool
		}
	}
	if pkgPathOf(fn) == "encoding/binary" {
		return useNeutral, "" // PutUint32 and friends write into the buffer
	}
	return useEscape, ""
}
