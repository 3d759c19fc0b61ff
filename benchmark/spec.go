package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark definition, at the repository root, where
// run.sh starts the program.
const specFile = "BENCHMARK.json"

// spec is the part of BENCHMARK.json the program reads: every metric's
// unit, direction and regression bound.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

// check fails when a report's metrics are not exactly the set the
// definition lists for its kind of run, with the same units.
func (sp *spec) check(rep *report) error {
	want := sp.EndToEnd
	if rep.Trace {
		want = sp.PerLayer
	}
	seen := map[string]bool{}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		seen[m.Name] = true
	}
	for name := range rep.Metrics {
		if !seen[name] {
			return fmt.Errorf("metric %s is missing from BENCHMARK.json", name)
		}
	}
	return nil
}

// lookup returns a metric's definition from either list.
func (sp *spec) lookup(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}
