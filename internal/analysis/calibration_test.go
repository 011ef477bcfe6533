package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"strings"
	"testing"
)

// calibrationUnits scales a DESIGN §5 value to its constant's own unit:
// nanoseconds (sim.Duration), bytes, bytes or bits per second, or a plain
// count.
var calibrationUnits = map[string]int64{
	"count": 1,
	"ns":    1,
	"µs":    1_000,
	"ms":    1_000_000,
	"s":     1_000_000_000,
	"B":     1,
	"MiB":   1 << 20,
	"MiB/s": 1 << 20,
	"GiB/s": 1 << 30,
	"Gb/s":  1_000_000_000,
}

// calibrationRow is one row of DESIGN §5's table.
type calibrationRow struct {
	line        int
	value, unit string
	ident       string // pkg.name, the package under cruz/internal/
}

// designCalibrationTable returns the rows of the table in DESIGN.md's
// section 5.
func designCalibrationTable(t *testing.T) []calibrationRow {
	t.Helper()
	src, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []calibrationRow
	in := false
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 5. ")
			continue
		}
		if !in || !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 5 {
			t.Fatalf("DESIGN.md:%d: a row needs value, unit, constant and meaning: %q", i+1, line)
		}
		value, unit := strings.TrimSpace(cells[1]), strings.TrimSpace(cells[2])
		if value == "Value" {
			continue // the header
		}
		rows = append(rows, calibrationRow{line: i + 1, value: value, unit: unit,
			ident: strings.Trim(strings.TrimSpace(cells[3]), "`")})
	}
	return rows
}

// TestDesignCalibrationTable keeps DESIGN §5 and the code one record: each
// row's value times its unit must equal the constant the row names, and
// every constant of a const block whose doc comment cites DESIGN §5 must
// have a row.
func TestDesignCalibrationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree")
	}
	rows := designCalibrationTable(t)
	if len(rows) == 0 {
		t.Fatal("DESIGN.md section 5 has no table rows")
	}
	pkgs := map[string]*Package{}
	for _, p := range loadTree(t) {
		pkgs[p.Path] = p
	}

	inTable := map[string]bool{}
	for _, r := range rows {
		inTable[r.ident] = true
		dot := strings.LastIndex(r.ident, ".")
		p := pkgs["cruz/internal/"+r.ident[:max(dot, 0)]]
		if dot < 0 || p == nil {
			t.Errorf("DESIGN.md:%d: %q names no package under internal/", r.line, r.ident)
			continue
		}
		c, ok := p.Types.Scope().Lookup(r.ident[dot+1:]).(*types.Const)
		if !ok {
			t.Errorf("DESIGN.md:%d: %s is not a constant", r.line, r.ident)
			continue
		}
		scale, ok := calibrationUnits[r.unit]
		if !ok {
			t.Errorf("DESIGN.md:%d: unknown unit %q", r.line, r.unit)
			continue
		}
		v, err := strconv.ParseInt(r.value, 10, 64)
		if err != nil {
			t.Errorf("DESIGN.md:%d: value %q is not an integer", r.line, r.value)
			continue
		}
		want := constant.MakeInt64(v * scale)
		if !constant.Compare(c.Val(), token.EQL, want) {
			t.Errorf("DESIGN.md:%d: %s is %s, the table says %s %s (%s)", r.line, r.ident, c.Val(), r.value, r.unit, want)
		}
	}

	for path, p := range pkgs {
		name, ok := strings.CutPrefix(path, "cruz/internal/")
		if !ok {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST || gd.Doc == nil || !strings.Contains(gd.Doc.Text(), "DESIGN §5") {
					continue
				}
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if !inTable[name+"."+id.Name] {
							t.Errorf("%s: %s.%s is a DESIGN §5 constant with no row in its table",
								p.Fset.Position(id.Pos()), name, id.Name)
						}
					}
				}
			}
		}
	}
}
