package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// writeTraces writes the traced pass as two Chrome-trace files
// (chrome://tracing, Perfetto): base.harness.json holds the harness
// spans on the host clock, base.cruz.json the program's own trace on the
// virtual clock.
func writeTraces(base string, p *pass) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // µs
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for _, s := range p.res.spans {
		events = append(events, event{
			Name: s.Kind, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"virtual_start_ms":  s.VStart.Sub(0).Milliseconds(),
				"virtual_ms":        s.VEnd.Sub(s.VStart).Milliseconds(),
				"coordinator_bytes": s.SvcBytes,
				"alloc_bytes":       s.Alloc,
			},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".harness.json", blob, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".cruz.json")
	if err != nil {
		return err
	}
	if err := p.cl.Trace().WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
