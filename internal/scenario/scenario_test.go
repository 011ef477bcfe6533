package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cruz"
)

func find(name string) Row {
	return Table[slices.IndexFunc(Table, func(r Row) bool { return r.Name == name })]
}

// TestTable runs every row at its own nodes and seed, traced: each must
// pass the oracle and print every fragment it wants.
func TestTable(t *testing.T) {
	for _, r := range Table {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			if _, err := r.Run(cruz.Config{Trace: true}, &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			for _, want := range r.Want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestRowsAreWellFormed: names are unique, every row says what it shows
// and pins some of it, a ring needs two workers, and a row whose ring
// does not span the cluster refuses to be resized.
func TestRowsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Table {
		if seen[r.Name] || r.Doc == "" || len(r.Want) == 0 {
			t.Errorf("row %q: duplicate name, or no Doc or Want", r.Name)
		}
		seen[r.Name] = true
	}
	if _, err := Table[0].Run(cruz.Config{Nodes: 1}, new(strings.Builder)); err == nil {
		t.Error("a one-node ring ran")
	}
	for _, name := range []string{"migrate", "failover-ec"} {
		if row := find(name); row.Deploy.Ring != nil && row.Deploy.Ring.Size == 0 {
			t.Errorf("%s scales", name)
		} else if _, err := row.Run(cruz.Config{GroupSize: 2}, new(strings.Builder)); err == nil {
			t.Errorf("%s took a group size", name)
		}
	}
}

// walk generates a script of n steps over the mixed deployment's whole
// vocabulary from seed, each valid where it falls: the kvstore pod is
// checkpointed and migrated, the batch slm job is crashed and recovered,
// suspended and resumed. It never restarts the kvstore job: its client
// is outside the job, so rolling the server back to an image breaks the
// client's connection by design, as it would any peer's. And it first
// runs until every connection is up: no checkpoint can capture one in
// SYN_SENT, and the failure that leaves is filed as ROADMAP item 5(a).
func walk(seed int64, n int) []Step {
	rng := rand.New(rand.NewSource(seed))
	var (
		steps          = []Step{{Op: Run, For: 100 * cruz.Millisecond}}
		ran            = steps[0].For
		dbNode         int
		suspended, hot bool // hot: the slm job has a checkpoint to recover from
	)
	for len(steps) < n {
		switch rng.Intn(6) {
		case 0:
			d := cruz.Duration(50+rng.Intn(450)) * cruz.Millisecond
			ran += d
			hot = hot || ran > 1200*cruz.Millisecond
			steps = append(steps, Step{Op: Run, For: d})
		case 1:
			steps = append(steps, Step{Op: Checkpoint, Job: "db"})
		case 2:
			dbNode = (dbNode + 1 + rng.Intn(3)) % 4
			steps = append(steps, Step{Op: Migrate, Pod: "db", Node: dbNode})
		case 3:
			if hot && !suspended {
				steps = append(steps, Step{Op: Restart, Job: "wx"})
			}
		case 4:
			if !suspended {
				suspended, hot = true, true
				steps = append(steps, Step{Op: Suspend, Job: "wx"})
			}
		case 5:
			if suspended {
				suspended = false
				steps = append(steps, Step{Op: Resume, Job: "wx"})
			}
		}
	}
	return steps
}

// TestWalk runs seeded walks over the mixed deployment, each held to the
// oracle. A failure names the seed and the step to rerun it from.
func TestWalk(t *testing.T) {
	mixed := find("mixed")
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := mixed
			r.Name = fmt.Sprintf("walk seed=%d", seed)
			r.Steps = walk(seed, 16)
			var out strings.Builder
			if _, err := r.Run(cruz.Config{Seed: seed}, &out); err != nil {
				t.Fatalf("%v (rerun: go test ./internal/scenario -run 'TestWalk/seed=%d')\nscript %v\n%s", err, seed, r.Steps, out.String())
			}
		})
	}
}
