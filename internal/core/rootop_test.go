package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cruz/internal/ctl"
	"cruz/internal/sim"
	"cruz/internal/tcpip"
)

// selectorPath renders the selector chain a call is made through, calls in
// the chain included: cc.TCP().Established() is "cc.TCP().Established".
func selectorPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return selectorPath(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return selectorPath(e.Fun) + "()"
	}
	return "?"
}

// TestCoordinatorRunsOneOpModel pins the coordinator's op model so it cannot
// re-accrete: over the methods of *Coordinator (its files also hold agent
// code), each decision that used to be made per op kind has the call sites
// listed here and no others, and rootOp is the only record an op's Data ever
// holds or is asked for.
func TestCoordinatorRunsOneOpModel(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"table.Begin":  {"begin"},                  // was one helper and two inline registrations
		"table.Each":   {"declareFailed", "opFor"}, // was three reply lookups and the failure scan
		".Established": {},                         // was one helper and six inline checks before a send; ctl.Endpoint.Link checks now
		".Data =":      {"begin"},
	}
	got := map[string][]string{}
	for what := range want {
		got[what] = []string{}
	}
	note := func(what, fn string) {
		if !slices.Contains(got[what], fn) {
			got[what] = append(got[what], fn)
			slices.Sort(got[what])
		}
	}
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok || star.X.(*ast.Ident).Name != "Coordinator" {
				continue
			}
			name := fn.Name.Name
			record := func(typ ast.Expr, how string) {
				if id, ok := typ.(*ast.Ident); !ok || id.Name != "rootOp" {
					t.Errorf("%s %s %s: the coordinator's table holds rootOp and nothing else", name, how, selectorPath(typ))
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					path := selectorPath(n.Fun)
					for what := range want {
						if strings.HasSuffix(path, what) {
							note(what, name)
						}
					}
					if ix, ok := n.Fun.(*ast.IndexExpr); ok && selectorPath(ix.X) == "ctl.Find" {
						record(ix.Index, "looks up")
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" {
							note(".Data =", name)
						}
					}
				case *ast.TypeAssertExpr:
					if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" && n.Type != nil {
						record(n.Type.(*ast.StarExpr).X, "asserts")
					}
				case *ast.CompositeLit:
					// Whatever begin builds around the new ctl.Op is what Data holds.
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && selectorPath(kv.Key) == "Op" {
							record(n.Type, "stores")
						}
					}
				}
				return true
			})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("call sites in (*Coordinator) methods:\n got %v\nwant %v\na new one must be added to this list with what it replaces — or go through the existing one", got, want)
	}
}

// TestOnlyCtlDialsAcceptsOrFrames pins the control plane to one endpoint:
// no non-test file of this package or of the flushing baseline dials,
// listens or frames a connection itself. ctl.Endpoint does all three for
// both protocols, so their reuse and failure rules cannot drift apart.
func TestOnlyCtlDialsAcceptsOrFrames(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../flush"} {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("%s: no package parsed", dir)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					path := selectorPath(call.Fun)
					for _, banned := range []string{".DialTCP", ".ListenTCP"} {
						if strings.HasSuffix(path, banned) {
							t.Errorf("%s calls %s: dial and listen through ctl.Endpoint", fset.Position(call.Pos()), path)
						}
					}
					if path == "ctl.NewConn" {
						t.Errorf("%s calls ctl.NewConn: frame through ctl.Endpoint", fset.Position(call.Pos()))
					}
					return true
				})
			}
		}
	}
}

// The three readers of the two holder registries that sources replaced, as
// the parent commit wrote them, over the one registry: the table below
// checks sources against them.

func refHolderNodes(c *Coordinator, pod string, seq int) []*nodeInfo {
	set := c.placed[pod][seq].whole
	if len(set) == 0 {
		return nil
	}
	var out []*nodeInfo
	for _, n := range c.nodes {
		if !c.lease.Dead(n.addr) && set[n.addr] {
			out = append(out, n)
		}
	}
	return out
}

func refECLiveHolders(c *Coordinator, pod string, seq int) ([]tcpip.AddrPort, int) {
	set := c.placed[pod][seq]
	if set.m == 0 {
		return nil, 0
	}
	maxPos := 0
	for pos := range set.shards {
		if pos > maxPos {
			maxPos = pos
		}
	}
	var out []tcpip.AddrPort
	for pos := 0; pos <= maxPos; pos++ {
		addr, ok := set.shards[pos]
		if !ok {
			continue
		}
		if n := c.nodeByAddr[addr]; n != nil && !c.lease.Dead(addr) {
			out = append(out, addr)
		}
	}
	return out, set.m
}

// refPull is the pull-list block of the parent's placeRecovery.
func refPull(c *Coordinator, pod string, seq int, target tcpip.AddrPort) ([]tcpip.AddrPort, bool) {
	live, m := refECLiveHolders(c, pod, seq)
	need := m
	var pull []tcpip.AddrPort
	for _, h := range live {
		if h == target {
			need--
			continue
		}
		pull = append(pull, h)
	}
	if need < 1 {
		need = 1
	}
	if len(pull) < need {
		return nil, false
	}
	return pull[:need], true
}

// TestSourcesMatchesTheReadersItReplaced drives the placement registry's
// one reader through every shape a recovery can meet, from every node's
// point of view (and no node's: the seq* search asks before a target
// exists), against the parent's readers.
func TestSourcesMatchesTheReadersItReplaced(t *testing.T) {
	const nodes = 8
	addr := func(i int) tcpip.AddrPort { return tcpip.AddrPort{Addr: tcpip.Addr{10, 0, 0, byte(i + 1)}, Port: 7077} }
	for _, tc := range []struct {
		name   string
		whole  []int // nodes holding the chain
		m      int
		shards []int // shard holder at each ring position, -1 = never reported
		dead   []int
	}{
		{name: "no entry"},
		{name: "whole holder alive", whole: []int{3, 1}},
		{name: "whole holder dead", whole: []int{1}, dead: []int{1}},
		{name: "one of two whole holders dead", whole: []int{5, 2}, dead: []int{2}},
		{name: "whole dead, M+1 shard holders live", whole: []int{0}, m: 4, shards: []int{1, 2, 3, 4, 5, 6}, dead: []int{0, 2}},
		{name: "M shard holders live", m: 4, shards: []int{1, 2, 3, 4, 5, 6}, dead: []int{1, 6}},
		{name: "M-1 shard holders live", m: 4, shards: []int{1, 2, 3, 4, 5, 6}, dead: []int{1, 3, 6}},
		{name: "a position never reported", m: 2, shards: []int{4, -1, 6, 0}, dead: []int{4}},
		{name: "M = 1", m: 1, shards: []int{2, 3}},
		{name: "M = 1, one holder left", m: 1, shards: []int{2, 3}, dead: []int{3}},
		{name: "whole alive beside a shard set", whole: []int{7}, m: 2, shards: []int{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := sim.NewEngine(1)
			ignore := func(tcpip.AddrPort) {}
			c := &Coordinator{stack: tcpip.NewStack(engine, "svc"),
				nodeByAddr: map[tcpip.AddrPort]*nodeInfo{}, placed: map[string]map[int]placement{},
				lease: ctl.NewLease(engine, DefaultHeartbeatEvery, DefaultLeaseTimeout, ignore, ignore)}
			for i := 0; i < nodes; i++ {
				c.RegisterNode("node"+string(rune('0'+i)), addr(i))
			}
			for _, i := range tc.whole {
				c.addHolder("p", 3, addr(i))
			}
			for pos, i := range tc.shards {
				if i >= 0 {
					c.handleReplicated(&wireMsg{Type: msgReplicated, Pod: "p", Seq: 3,
						Repl: &replPayload{PeerIP: addr(i).Addr, PeerPort: addr(i).Port, Holder: pos, ECM: tc.m}})
				}
			}
			// The dead nodes' leases start first and run out unanswered;
			// the rest start after.
			for _, i := range tc.dead {
				c.lease.Register(addr(i))
			}
			if err := engine.RunFor(DefaultLeaseTimeout + 2*DefaultHeartbeatEvery); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nodes; i++ {
				c.lease.Register(addr(i))
				if c.lease.Dead(addr(i)) != slices.Contains(tc.dead, i) {
					t.Fatalf("node %d: dead %v, want %v", i, c.lease.Dead(addr(i)), slices.Contains(tc.dead, i))
				}
			}
			holders := refHolderNodes(c, "p", 3)
			live, m := refECLiveHolders(c, "p", 3)
			targets := []tcpip.AddrPort{{}}
			for i := 0; i < nodes; i++ {
				targets = append(targets, addr(i))
			}
			for _, target := range targets {
				whole, pull, ok := c.sources("p", 3, target)
				if !slices.Equal(whole, holders) {
					t.Fatalf("target %v: whole holders %v, the parent's whole-holder reader says %v", target, whole, holders)
				}
				wantPull, wantOK := []tcpip.AddrPort(nil), true
				if len(holders) == 0 {
					wantPull, wantOK = refPull(c, "p", 3, target)
				}
				var pulled []tcpip.AddrPort
				for _, n := range pull {
					pulled = append(pulled, n.addr)
				}
				if ok != wantOK || !slices.Equal(pulled, wantPull) {
					t.Errorf("target %v: pull %v ok %v, parent's placeRecovery block says %v ok %v", target, pulled, ok, wantPull, wantOK)
				}
				// What the seq* search asked before any target existed.
				if recoverable := len(holders) > 0 || (m > 0 && len(live) >= m); target == (tcpip.AddrPort{}) && ok != recoverable {
					t.Errorf("no target: ok %v, the parent's two reachability readers say %v", ok, recoverable)
				}
			}
		})
	}
}
