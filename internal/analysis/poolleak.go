package analysis

import (
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
// Like spanleak, the check is escape-aware: only buffers bound to a
// local that never escapes (not stored, returned, aliased, or captured
// by a closure) are path-checked — queued frames are legitimately put
// by the writer-side drain long after the acquiring function returns.
// Content operations do not count as escapes: slicing, indexing,
// copy/len/cap/append-as-source, encoding/binary calls, and — via the
// interprocedural summaries — passing the buffer to a helper that
// releases it, which counts as the put itself.
var PoolLeak = &Analyzer{
	Name: "poolleak",
	Doc:  "flag pooled buffers missing their put, put twice, or used after put",
	Run:  runPoolLeak,
}

func runPoolLeak(pass *Pass) {
	effects := effectsFor(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkPoolLeakFunc(pass, effects, n.Body)
					checkForeignPut(pass, effects, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkPoolLeakFunc(pass, effects, n.Body)
				checkForeignPut(pass, effects, n.Type, n.Body)
			}
			return true
		})
	}
}

// checkForeignPut reports a receive callback that returns its payload —
// a buffer it owns, which never came from the pool — to a pool.
func checkForeignPut(pass *Pass, effects map[string]*FuncEffects, ft *ast.FuncType, body *ast.BlockStmt) {
	payload := frameCallbackPayload(pass, ft)
	if payload == nil {
		return
	}
	uses, _ := collectPoolUses(pass, effects, body, payload, nil)
	for _, u := range uses {
		if u.kind == poolUseRelease {
			pass.Reportf(u.id.Pos(), "received frame %s belongs to the receiver and never came from the %s pool: it must not be returned there",
				payload.Name(), u.pool)
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

// poolCall returns (call, pool) if expr is a call to a pool
// acquisition method.
func poolCall(pass *Pass, expr ast.Expr) (*ast.CallExpr, string) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return nil, ""
	}
	pool, ok := poolGetNames[fn.Name()]
	if !ok || callReceiver(fn, call) == nil {
		return nil, ""
	}
	return call, pool
}

// poolUseKind classifies one appearance of a tracked buffer variable.
type poolUseKind int

const (
	poolUseNeutral poolUseKind = iota // content access, comparison, redefinition
	poolUseEscape                     // stored, returned, aliased, captured
	poolUseRelease                    // passed to a put (directly or via summary)
)

// poolUse is one classified appearance of the buffer.
type poolUse struct {
	kind poolUseKind
	pool string   // for poolUseRelease: which pool it was returned to
	stmt ast.Stmt // innermost enclosing statement
	id   *ast.Ident
}

// checkPoolLeakFunc runs the three pool checks over one function body.
func checkPoolLeakFunc(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt) {
	type acquisition struct {
		stmt ast.Stmt
		call *ast.CallExpr
		pool string
		obj  *types.Var
	}
	var acqs []acquisition
	walkShallow(body, func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, pool := poolCall(pass, s.X); call != nil {
				pass.Reportf(call.Pos(), "%s pool buffer discarded: the result of %s must be kept and put back", pool, calleeName(pass, call))
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return
			}
			for i, rhs := range s.Rhs {
				call, pool := poolCall(pass, rhs)
				if call == nil {
					continue
				}
				id, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue // stored straight into a field/index: escapes
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "%s pool buffer discarded: the result of %s must be kept and put back", pool, calleeName(pass, call))
					continue
				}
				obj, _ := pass.TypesInfo.Defs[id].(*types.Var)
				if obj == nil {
					obj, _ = pass.TypesInfo.Uses[id].(*types.Var)
				}
				if obj != nil {
					acqs = append(acqs, acquisition{stmt: s, call: call, pool: pool, obj: obj})
				}
			}
		}
	})
	if len(acqs) == 0 {
		return
	}

	var g *cfg
	for _, acq := range acqs {
		uses, escaped := collectPoolUses(pass, effects, body, acq.obj, acq.stmt)
		if escaped {
			continue
		}
		releases := make(map[ast.Stmt]bool) // statements releasing to the matching pool
		deferred := false                   // a deferred release covers every return path
		var liveReleases []ast.Stmt         // non-deferred releases, for use-after-put
		for _, u := range uses {
			if u.kind != poolUseRelease {
				continue
			}
			if u.pool != acq.pool {
				pass.Reportf(u.id.Pos(), "buffer %s from the %s pool is returned to the %s pool", acq.obj.Name(), acq.pool, u.pool)
				// Still a release for path purposes: the buffer is gone.
			}
			releases[u.stmt] = true
			if _, isDefer := u.stmt.(*ast.DeferStmt); isDefer {
				deferred = true
			} else {
				liveReleases = append(liveReleases, u.stmt)
			}
		}

		if g == nil {
			g, _ = buildCFG(body)
			if !g.ok {
				return // unmodeled control flow (goto): stay silent
			}
		}
		start := g.byStmt[acq.stmt]
		if start == nil {
			continue
		}
		if !deferred {
			rel := func(n *cfgNode) bool { return releases[n.stmt] }
			if g.pathMissing(start, rel) {
				pass.Reportf(acq.call.Pos(), "buffer %s from %s is not returned to the %s pool on every return path",
					acq.obj.Name(), calleeName(pass, acq.call), acq.pool)
			}
		}
		for _, rel := range liveReleases {
			checkUseAfterPut(pass, g, rel, acq.obj, acq.pool, releases)
		}
	}
}

// checkUseAfterPut walks forward from a release statement and reports
// any use of the buffer before it is redefined (typically by the next
// loop iteration's acquisition).
func checkUseAfterPut(pass *Pass, g *cfg, rel ast.Stmt, obj *types.Var, pool string, releases map[ast.Stmt]bool) {
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
		redef := stmtRedefines(pass, n.stmt, obj)
		if use := stmtHeaderUse(pass, n.stmt, obj); use != nil {
			// A redefining statement may still read the old value on its
			// right-hand side (b = append(b, ...)) — that read is the bug.
			if !redef || assignRHSUses(pass, n.stmt, obj) {
				if releases[n.stmt] {
					pass.Reportf(use.Pos(), "buffer %s returned to the %s pool twice", obj.Name(), pool)
				} else {
					pass.Reportf(use.Pos(), "buffer %s used after being returned to the %s pool", obj.Name(), pool)
				}
				return
			}
		}
		if redef {
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

// assignRHSUses reports whether an assignment's right-hand side reads obj.
func assignRHSUses(pass *Pass, s ast.Stmt, obj *types.Var) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, rhs := range as.Rhs {
		if exprUses(pass, rhs, obj) != nil {
			return true
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
	case nil:
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
	case *ast.SelectStmt:
		return nil
	case *ast.AssignStmt:
		// Only RHS reads count; LHS mention is a redefinition.
		for _, rhs := range s.Rhs {
			if id := exprUses(pass, rhs, obj); id != nil {
				return id
			}
		}
		return nil
	default:
		return firstUse(pass, obj, s)
	}
}

func firstUse(pass *Pass, obj *types.Var, nodes ...ast.Node) *ast.Ident {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if id := nodeUses(pass, n, obj); id != nil {
			return id
		}
	}
	return nil
}

func exprUses(pass *Pass, e ast.Expr, obj *types.Var) *ast.Ident {
	if e == nil {
		return nil
	}
	return nodeUses(pass, e, obj)
}

func nodeUses(pass *Pass, n ast.Node, obj *types.Var) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(n, func(c ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = id
		}
		return true
	})
	return found
}

// collectPoolUses classifies every appearance of obj in the body,
// skipping the defining statement. escaped is true as soon as any use
// retains the buffer beyond this function's control.
func collectPoolUses(pass *Pass, effects map[string]*FuncEffects, body *ast.BlockStmt, obj *types.Var, def ast.Stmt) (uses []poolUse, escaped bool) {
	// stack holds the ancestor chain of the node being visited,
	// innermost last.
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
				escaped = true // captured by a closure
				return
			}
			u := classifyPoolUse(pass, effects, stack, id)
			if u.kind == poolUseEscape {
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

// classifyPoolUse decides what one appearance of the buffer does, by
// ascending from the identifier through value-preserving wrappers
// (parens, slicing) to the consuming construct.
func classifyPoolUse(pass *Pass, effects map[string]*FuncEffects, stack []ast.Node, id *ast.Ident) poolUse {
	u := poolUse{kind: poolUseNeutral, stmt: enclosingStmt(stack), id: id}
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
			return u // index position: content arithmetic
		case *ast.IndexExpr:
			if p.X == cur {
				// b[i]: a byte, not the array — unless its address is taken.
				if i > 0 {
					if un, ok := stack[i-1].(*ast.UnaryExpr); ok && un.Op == token.AND {
						u.kind = poolUseEscape
					}
				}
				return u
			}
			return u
		case *ast.CallExpr:
			if p.Fun == cur {
				u.kind = poolUseEscape // calling the buffer: impossible, be safe
				return u
			}
			return classifyPoolCallArg(pass, effects, p, cur, u)
		case *ast.BinaryExpr:
			return u // comparisons (b == nil), length arithmetic
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return u // plain redefinition target
				}
			}
			u.kind = poolUseEscape // aliased or stored: x := b / f.b = b
			return u
		case *ast.RangeStmt:
			if p.X == cur {
				return u // iterating contents
			}
			u.kind = poolUseEscape
			return u
		default:
			// Composite literals, key/values, returns, address-of,
			// channel sends, map index values...: the buffer outlives
			// this function's view of it.
			u.kind = poolUseEscape
			return u
		}
	}
	return u
}

// classifyPoolCallArg decides what passing the buffer to a call does:
// a release (matching put method or a summarized releasing helper), a
// content operation (copy/len/cap, append-as-source, encoding/binary),
// or an escape.
func classifyPoolCallArg(pass *Pass, effects map[string]*FuncEffects, call *ast.CallExpr, arg ast.Node, u poolUse) poolUse {
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
		u.kind = poolUseEscape
		return u
	}
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		// Builtin or function-typed value.
		if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch fid.Name {
			case "copy", "len", "cap", "min", "max":
				return u // content operations
			case "append":
				if argIdx > 0 {
					return u // append(dst, b...): copies bytes out
				}
			}
		}
		u.kind = poolUseEscape
		return u
	}
	if pool, ok := poolPutNames[fn.Name()]; ok && callReceiver(fn, call) != nil && argIdx == 0 {
		u.kind, u.pool = poolUseRelease, pool
		return u
	}
	if eff := effects[funcKey(fn)]; eff != nil {
		if pool, ok := eff.Releases[argIdx]; ok {
			u.kind, u.pool = poolUseRelease, pool
			return u
		}
	}
	if pkgPathOf(fn) == "encoding/binary" {
		return u // PutUint32 and friends write into the buffer
	}
	u.kind = poolUseEscape
	return u
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
