package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metrics the command prints
// and the ones BENCHMARK.json declares identical, units included.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			if u, ok := printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] declared, printed unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not runnable", w.Name)
		}
	}
}
