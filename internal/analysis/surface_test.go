package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnly lists every exported function and method under internal/ that
// nothing outside a _test.go file calls — not this module, not bench/ —
// with a test that needs it as an oracle. An export no test needs either
// is deleted, not listed. A new entry says here which test reads it.
var testOnly = map[string]string{
	"cruz/internal/apps/slm.(Config).ExpectedRuntime": "TestRunsToCompletion",
	"cruz/internal/batch.(Scheduler).Job":             "TestSubmitValidation",
	"cruz/internal/core.(Coordinator).AbortMigration": "TestMigrationAbortRollsBack",
	"cruz/internal/core.(Coordinator).CommittedSeq":   "TestCoordinatedCheckpointBlocking",
	"cruz/internal/ctl.(Conn).QueuedBytes":            "TestTierPriorityOvertake",
	"cruz/internal/ctl.(Op).Err":                      "TestOpFailIsIdempotentAndOrdersHooks",
	"cruz/internal/dhcp.NewClient":                    "TestLeaseAcquisition",
	"cruz/internal/dhcp.NewServer":                    "TestLeaseAcquisition",
	"cruz/internal/ether.(Switch).ForgetMAC":          "TestMultipleMACsPerNIC",
	"cruz/internal/ether.(Switch).LearnedPortOf":      "TestLearningDirectsSubsequentFrames",
	"cruz/internal/ether.(Switch).SetDropRate":        "TestSegPoolSurvivesRetransmit",
	"cruz/internal/gobmemo/gobmemotest.Hammer":        "TestWireCodecConcurrent",
	"cruz/internal/gobmemo/gobmemotest.Hostile":       "TestHostileFrameCannotPoisonTheCodec",
	"cruz/internal/gobmemo/gobmemotest.Identity":      "TestWireCodecIsFreshGob",
	"cruz/internal/gobmemo/gobmemotest.Reads":         "TestHeadReaderMatchesGob",
	"cruz/internal/kernel.(Kernel).Process":           "TestPipeBetweenProcesses",
	"cruz/internal/kernel.(ProcContext).Kill":         "TestInPodKillUsesVirtualPIDsAndIsolates",
	"cruz/internal/kernel.(ProcContext).LocalAddr":    "TestBindInterposedToPodVIF",
	"cruz/internal/kernel.(ProcContext).PID":          "TestCheckpointRestartSameNode",
	"cruz/internal/kernel.(ProcContext).Pipe":         "TestPipeEOFAndBrokenPipe",
	"cruz/internal/kernel.(ProcContext).SemGet":       "TestSemaphorePingPong",
	"cruz/internal/kernel.(ProcContext).SemOp":        "TestSemaphorePingPong",
	"cruz/internal/kernel.(ProcContext).SetNoDelay":   "TestBadFDErrors",
	"cruz/internal/kernel.(ProcContext).ShmGet":       "TestSharedMemoryVisibleAcrossProcesses",
	"cruz/internal/kernel.(ProcContext).ShmRead":      "TestSharedMemoryVisibleAcrossProcesses",
	"cruz/internal/kernel.(ProcContext).ShmWrite":     "TestSharedMemoryVisibleAcrossProcesses",
	"cruz/internal/kernel.(ProcContext).Spawn":        "TestWaitChildReapsInOrder",
	"cruz/internal/kernel.(ProcContext).WaitChild":    "TestWaitChildReapsInOrder",
	"cruz/internal/kernel.(Process).ExitCode":         "TestPipeBetweenProcesses",
	"cruz/internal/kernel.(Process).Parent":           "TestPipeBetweenProcesses",
	"cruz/internal/kernel.BlockOnSem":                 "TestSemaphorePingPong",
	"cruz/internal/kernel.WaitForChild":               "TestWaitChildReapsInOrder",
	"cruz/internal/metrics.(Series).MinMax":           "TestEmptySeriesMinMax",
	"cruz/internal/sim.(Engine).Run":                  "TestNestedSpans",
	"cruz/internal/sim.(Engine).Stop":                 "TestStop",
	"cruz/internal/sim.(Event).At":                    "TestEventRecycling",
	"cruz/internal/sim.(Event).Canceled":              "TestCancel",
	"cruz/internal/tcpip.(Filter).RuleCount":          "TestFilterDropsBothDirections",
	"cruz/internal/tcpip.(TCPConn).ReadableBytes":     "TestCorkHoldsPartialSegments",
	"cruz/internal/tcpip.(TCPConn).State":             "TestMigrateNetworkedPod",
	"cruz/internal/zap.(Pod).Kill":                    "TestPodKillByVPID",
	"cruz/internal/zap.(Pod).VIF":                     "TestHWAddrInterposedToFakeMAC",
}

// TestExportedSurfacePinned finds, with go/types, every exported function
// and method under internal/ that has no reference outside _test.go files
// — in this module or in bench/, a module of its own whose callers a
// root build never sees — and requires it to be in testOnly, naming a
// test whose file mentions it. A method reachable through an interface
// it implements counts as referenced. Entries that gained a caller, or
// whose export is gone, must leave the table too.
func TestExportedSurfacePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree and bench/")
	}
	pkgs := loadTree(t)
	bench, err := Load("../../bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	all := append(slices.Clip(pkgs), bench...)
	refs := referencedFuncs(all)
	ifaces := namedInterfaces(all)

	got := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "cruz/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if k := funcKey(fn); !refs[k] && !dispatched(fn, ifaces) {
					got[k] = true
				}
			}
		}
	}
	tests := testFiles(t, pkgs)
	for k := range got {
		test, ok := testOnly[k]
		if !ok {
			t.Errorf("%s has no caller outside tests: delete it, or list it in testOnly with the test that needs it", k)
			continue
		}
		name := k[strings.LastIndex(k, ".")+1:]
		if !slices.ContainsFunc(tests[test], func(src string) bool { return strings.Contains(src, name) }) {
			t.Errorf("testOnly names %s for %s, but no test of that name mentions %s", test, k, name)
		}
	}
	for k := range testOnly {
		if !got[k] {
			t.Errorf("testOnly lists %s, which is gone or has a caller outside tests now: drop the entry", k)
		}
	}
}

// referencedFuncs returns the funcKey of every function or method used
// in the packages' non-test files, a function's use of itself aside.
func referencedFuncs(pkgs []*Package) map[string]bool {
	refs := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						self = funcKey(fn)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.Info.Uses[id].(*types.Func); ok && funcKey(fn.Origin()) != self {
							refs[funcKey(fn.Origin())] = true
						}
					}
					return true
				})
			}
		}
	}
	return refs
}

// namedInterfaces returns every named interface type the packages and
// their imports declare, plus error.
func namedInterfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{errorType.Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

// dispatched reports whether fn is a method some interface may call: its
// receiver type implements an interface that declares a method of its
// name.
func dispatched(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// testFiles maps each Test function in the packages' directories to the
// source of the files declaring one of that name.
func testFiles(t *testing.T, pkgs []*Package) map[string][]string {
	out := map[string][]string{}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		paths, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
					out[fd.Name.Name] = append(out[fd.Name.Name], string(src))
				}
			}
		}
	}
	return out
}
