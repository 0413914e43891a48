package main

import (
	"encoding/json"
	"os"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so the helper must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(99), 90); err == nil {
		t.Fatal("p90 reported from 99 samples")
	}
	if v, err := percentile(seq(100), 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Fatal("p50 reported from 19 samples")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("p50 reported from no samples")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median 3,1,2 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median 4,1,3,2 = %v", m)
	}
}

// TestBenchmarkJSONMatchesTables keeps the metric tables the program
// prints in step with the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program prints %d", len(c.declared), len(c.printed))
		}
		for i, m := range c.printed {
			if c.declared[i].Name != m.name || c.declared[i].Unit != m.unit {
				t.Errorf("metric %d: declared %s (%s), printed %s (%s)", i, c.declared[i].Name, c.declared[i].Unit, m.name, m.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
