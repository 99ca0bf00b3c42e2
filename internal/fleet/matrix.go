package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lvmm/internal/fault"
)

// Matrix is the scenario-matrix file cmd/hxfleet consumes: a template
// scenario crossed with per-axis value lists, plus explicit extras. Empty
// axes collapse to the template's value, so a file may be as small as
// {"rates": [100, 400, 700]}. A matrix whose axes are all empty runs
// only its explicit scenarios, or, when it has none, the template.
type Matrix struct {
	// Defaults is the template every expanded cell starts from.
	Defaults Scenario `json:"defaults,omitempty"`
	// Platforms, Rates, Engines, Seeds, and Faults are the sweep axes;
	// the expansion is their cross product.
	Platforms []Platform `json:"platforms,omitempty"`
	Rates     []float64  `json:"rates,omitempty"`
	Engines   []Engine   `json:"engines,omitempty"`
	Seeds     []uint64   `json:"seeds,omitempty"`
	// Faults crosses every cell with each fault plan (workloads ×
	// faults). An empty-plan entry ({} or {"name": "clean"}) keeps a
	// clean baseline in the same sweep. Empty axis = no faults, as
	// before.
	Faults []fault.Plan `json:"faults,omitempty"`
	// Scenarios are appended verbatim after the matrix cells.
	Scenarios []Scenario `json:"scenarios,omitempty"`
}

// LoadMatrix reads and parses a scenario-matrix file.
func LoadMatrix(path string) (*Matrix, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var mx Matrix
	if err := dec.Decode(&mx); err != nil {
		return nil, fmt.Errorf("fleet: parse %s: %w", path, err)
	}
	return &mx, nil
}

// Expand produces the concrete scenario list: the cross product of the
// axes applied over the template, then the explicit extras. Every
// scenario without a name gets a descriptive one.
//
// Expansion fails when two scenarios resolve to the same record file —
// duplicate axis values, distinct names that sanitize to one token, or
// an explicit extra shadowing a matrix cell would otherwise make two
// workers stream to one path and corrupt it silently. Paths compare
// after lexical normalization, so "./x.trc" and "x.trc" collide.
func (mx *Matrix) Expand() ([]Scenario, error) {
	platforms := mx.Platforms
	if len(platforms) == 0 {
		platforms = []Platform{mx.Defaults.Platform}
	}
	rates := mx.Rates
	if len(rates) == 0 {
		rates = []float64{mx.Defaults.RateMbps}
	}
	engines := mx.Engines
	if len(engines) == 0 {
		engines = []Engine{mx.Defaults.Engine}
	}
	seeds := mx.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{mx.Defaults.Seed}
	}
	// The fault axis carries pointers into this slice; expanding from a
	// nil axis keeps the template's own plan (usually nil).
	faults := make([]*fault.Plan, 0, len(mx.Faults)+1)
	if len(mx.Faults) == 0 {
		faults = append(faults, mx.Defaults.Fault)
	}
	for i := range mx.Faults {
		faults = append(faults, &mx.Faults[i])
	}

	cells := len(platforms) * len(rates) * len(engines) * len(seeds) * len(faults)
	if len(mx.Platforms)+len(mx.Rates)+len(mx.Engines)+len(mx.Seeds)+len(mx.Faults) == 0 &&
		len(mx.Scenarios) > 0 {
		platforms = nil // scenarios only: no template cell
	}
	var out []Scenario
	for _, pf := range platforms {
		for _, rate := range rates {
			for _, eng := range engines {
				for _, seed := range seeds {
					for _, fp := range faults {
						sc := mx.Defaults
						sc.Platform, sc.RateMbps, sc.Engine, sc.Seed = pf, rate, eng, seed
						sc.Fault = fp
						sc.Name = ScenarioName(sc)
						// A record path in the template would be copied into
						// every cell, and concurrent workers streaming to one
						// file corrupt it silently; treat it as a per-cell
						// template instead.
						if sc.Record != "" && cells > 1 {
							sc.Record = recordPathFor(sc.Record, sc.Name)
						}
						out = append(out, sc)
					}
				}
			}
		}
	}
	for _, sc := range mx.Scenarios {
		if sc.Name == "" {
			sc.Name = ScenarioName(sc)
		}
		out = append(out, sc)
	}
	if err := CheckRecordCollisions(out); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckRecordCollisions reports the first pair of scenarios whose
// record paths name the same file (after lexical normalization).
func CheckRecordCollisions(scs []Scenario) error {
	seen := make(map[string]string, len(scs))
	for _, sc := range scs {
		if sc.Record == "" {
			continue
		}
		key := filepath.Clean(sc.Record)
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("fleet: scenarios %q and %q both record to %s", prev, sc.Name, key)
		}
		seen[key] = sc.Name
	}
	return nil
}

// recordPathFor derives a per-scenario trace path from a template path
// by splicing the sanitized scenario name in before the extension:
// "traces/run.trc" + "bare@100Mbps" → "traces/run-bare-100Mbps.trc".
func recordPathFor(template, name string) string {
	ext := filepath.Ext(template)
	base := strings.TrimSuffix(template, ext)
	return base + "-" + SafeName(name) + ext
}

// SafeName renders a scenario name into a filesystem-safe token
// (letters, digits, '-', '.', '_').
func SafeName(name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '-'
	}, name)
	if safe == "" {
		return "scenario"
	}
	return safe
}

// ScenarioName derives a descriptive label from a scenario's axes.
func ScenarioName(sc Scenario) string {
	pf := sc.Platform
	if pf == "" {
		pf = Lightweight
	}
	name := fmt.Sprintf("%s@%gMbps", pf, sc.RateMbps)
	if sc.Engine == EngineSlow {
		name += "/slow"
	}
	if sc.Seed != 0 {
		name += fmt.Sprintf("#%d", sc.Seed)
	}
	if !sc.Fault.Empty() {
		pn := sc.Fault.Name
		if pn == "" {
			pn = "fault"
		}
		name += "+" + pn
	}
	return name
}
