package analysis

import (
	"go/ast"
	"go/types"
)

// NoDeterminism forbids ambient-state reads and raw concurrency in
// sim-side packages.
//
// Inside the simulation boundary every observable value must be a pure
// function of the seed. Wall-clock reads (time.Now and friends),
// global-source randomness (package-level math/rand functions),
// crypto/rand entropy, and process-ambient reads (os.Getpid,
// os.Getenv, hostname, ...) all smuggle host state into the
// simulation; raw `go` statements and time.Ticker/time.Timer hand
// event ordering to the Go runtime scheduler. Both break the
// bit-for-bit reproducibility that the trace-diff and
// restore-equivalence tests depend on.
//
// Time must come from sim.Engine.Now, randomness from
// sim.Engine.Rand, and concurrency from Engine.Schedule /
// Engine.NewTicker. The engine package itself (the scheduler shim) is
// exempt from the concurrency rules.
//
// The simulation is single-threaded by design, so a sync.Mutex or
// RWMutex declared in a sim-side package — field, embedded, package or
// local variable — is itself the finding: either it orders nothing the
// engine does not already order, or a goroutine exists that should not.
// A host-side cache shared by clusters in parallel goroutines says so
// with a reasoned //cruzvet:allow.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock, ambient-entropy, and raw-concurrency use in sim-side packages",
	Run:  runNoDeterminism,
}

// wallClockFuncs are the package time functions that read or depend on
// the host clock or runtime timers.
var wallClockFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on host timers",
	"After":     "creates a host timer",
	"AfterFunc": "creates a host timer",
	"Tick":      "creates a host ticker",
	"NewTimer":  "creates a host timer",
	"NewTicker": "creates a host ticker",
}

// seededRandFuncs are the math/rand constructors that take an explicit
// source or seed; everything else at package level draws from the
// process-global source.
var seededRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// ambientOSFuncs are os functions that read process-ambient identity
// or environment.
var ambientOSFuncs = map[string]bool{
	"Getpid":        true,
	"Getppid":       true,
	"Getuid":        true,
	"Geteuid":       true,
	"Getgid":        true,
	"Getegid":       true,
	"Getgroups":     true,
	"Getenv":        true,
	"LookupEnv":     true,
	"Environ":       true,
	"Hostname":      true,
	"Getwd":         true,
	"TempDir":       true,
	"UserHomeDir":   true,
	"UserCacheDir":  true,
	"UserConfigDir": true,
}

func runNoDeterminism(pass *Pass) {
	path := pass.Pkg.Path()
	if !pass.Suite.SimSide(path) {
		return
	}
	shim := pass.Suite.SchedulerShim(path)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !shim {
					pass.Reportf(n.Pos(), "raw go statement in sim-side package: event ordering must come from sim.Engine.Schedule, not the Go runtime scheduler")
				}
			case *ast.CallExpr:
				checkNoDeterminismCall(pass, n, shim)
			case *ast.Ident:
				if v, ok := pass.TypesInfo.Defs[n].(*types.Var); ok && !shim {
					if lock := syncLock(v.Type()); lock != "" {
						pass.Reportf(n.Pos(), "%s declared in sim-side package: the simulation is single-threaded, so a lock orders nothing the engine does not", lock)
					}
				}
			}
			return true
		})
	}
}

func checkNoDeterminismCall(pass *Pass, call *ast.CallExpr, shim bool) {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	// Only package-level functions are ambient; methods (e.g.
	// (*rand.Rand).Intn on an engine-seeded source, time.Time.Sub)
	// carry their state explicitly.
	if _, rname := recvTypeName(fn); rname != "" {
		return
	}
	switch pkgPathOf(fn) {
	case "time":
		if why, bad := wallClockFuncs[fn.Name()]; bad {
			if shim && (fn.Name() == "Tick" || fn.Name() == "NewTicker" || fn.Name() == "NewTimer") {
				return
			}
			pass.Reportf(call.Pos(), "call to time.%s in sim-side package: %s; use virtual time from sim.Engine (Now/Schedule/NewTicker)", fn.Name(), why)
		}
	case "math/rand", "math/rand/v2":
		if !seededRandFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to %s.%s draws from the process-global random source; use the engine's seeded source (sim.Engine.Rand)", pkgPathOf(fn), fn.Name())
		}
	case "crypto/rand":
		pass.Reportf(call.Pos(), "call to crypto/rand.%s in sim-side package: host entropy is not reproducible; use the engine's seeded source", fn.Name())
	case "os":
		if ambientOSFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to os.%s reads ambient process state; thread the value through configuration instead", fn.Name())
		}
	}
}

// syncLock returns "sync.Mutex" or "sync.RWMutex" when t is one, else "".
func syncLock(t types.Type) string {
	if named, ok := t.(*types.Named); ok && pkgPathOf(named.Obj()) == "sync" {
		if name := named.Obj().Name(); name == "Mutex" || name == "RWMutex" {
			return "sync." + name
		}
	}
	return ""
}
