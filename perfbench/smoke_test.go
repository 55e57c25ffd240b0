package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMain lets the test binary serve as the SUT process the load
// generator starts, as the benchmark binary does.
func TestMain(m *testing.M) {
	if mode := os.Getenv(sutEnv); mode != "" {
		os.Exit(sutMain(mode == "traced"))
	}
	os.Exit(m.Run())
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !equal(got, names) {
		t.Fatalf("plan.json workloads %v, BENCHMARK.json workloads %v", got, names)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload, untraced and traced, for a fraction of
// a second: every reply must check, every shutdown check must pass, the
// run must report exactly the metrics BENCHMARK.json declares, and the
// traced run must report every layer the workload exercises (runTraced
// lists a layer that reads 0 where plan.json requires it among errs).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts SUT processes")
	}
	e2e, perLayer := benchmarkSpec(t)
	sort.Strings(e2e)
	sort.Strings(perLayer)
	for _, name := range workloadNames() {
		w, err := workloadFor(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			var res *runResult
			if traced {
				res, err = runTraced(w, 0.5)
			} else {
				res, err = runPlain(w, 0.5)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || len(res.errs) != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, errors %v", name, traced, res.Attempted, res.Failed, res.errs)
			}
			want := e2e
			if traced {
				want = perLayer
			}
			if got := metricNames(res.Metrics); !equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
			if !traced {
				for n, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, n, m.Value)
					}
				}
			}
		}
	}
}

// TestPlanLayers checks plan.json's layer map against BENCHMARK.json:
// every per-layer metric belongs to exactly one layer, every metric and
// workload a layer names exists, and on every workload a layer is said
// to move, at least one of its metrics must be non-zero.
func TestPlanLayers(t *testing.T) {
	e2e, perLayer := benchmarkSpec(t)
	var p struct {
		Layers map[string]struct {
			Metrics []string
			Moves   []struct {
				Metric    string
				Workloads []string
			}
			UnchangedOn []string `json:"unchanged_on"`
		}
	}
	if err := json.Unmarshal(planJSON, &p); err != nil {
		t.Fatal(err)
	}
	isE2E := map[string]bool{}
	for _, n := range e2e {
		isE2E[n] = true
	}
	isWorkload := map[string]bool{}
	for _, n := range workloadNames() {
		isWorkload[n] = true
	}
	seen := map[string]string{}
	for layer, l := range p.Layers {
		for _, m := range l.Metrics {
			if prev, dup := seen[m]; dup {
				t.Errorf("%s is in layers %s and %s", m, prev, layer)
			}
			seen[m] = layer
		}
		for _, mv := range l.Moves {
			if !isE2E[mv.Metric] {
				t.Errorf("layer %s moves unknown end-to-end metric %s", layer, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !isWorkload[w] {
					t.Errorf("layer %s names unknown workload %s", layer, w)
				}
			}
		}
		for _, w := range l.UnchangedOn {
			if !isWorkload[w] {
				t.Errorf("layer %s names unknown workload %s", layer, w)
			}
		}
	}
	var mapped []string
	for m := range seen {
		mapped = append(mapped, m)
	}
	sort.Strings(mapped)
	sort.Strings(perLayer)
	if !equal(mapped, perLayer) {
		t.Errorf("plan.json layers map %v, BENCHMARK.json per_layer is %v", mapped, perLayer)
	}

	required := map[string]map[string]bool{} // workload -> layers with a non-zero metric
	for _, g := range plan.NonZero {
		for _, w := range g.Workloads {
			if !isWorkload[w] {
				t.Errorf("nonzero names unknown workload %s", w)
			}
			for _, m := range g.Metrics {
				layer, ok := seen[m]
				if !ok {
					t.Errorf("nonzero names unknown per-layer metric %s", m)
					continue
				}
				if required[w] == nil {
					required[w] = map[string]bool{}
				}
				required[w][layer] = true
			}
		}
	}
	for layer, l := range p.Layers {
		for _, mv := range l.Moves {
			for _, w := range mv.Workloads {
				if !required[w][layer] {
					t.Errorf("layer %s moves %s on %s, but none of its metrics must be non-zero there", layer, mv.Metric, w)
				}
			}
		}
	}
}

// TestMissingLayers checks that a layer reading 0 on a workload that
// exercises it fails the run, and that it may read 0 elsewhere.
func TestMissingLayers(t *testing.T) {
	m := map[string]metric{}
	for _, g := range plan.NonZero {
		for _, name := range g.Metrics {
			m[name] = metric{1, "count"}
		}
	}
	if errs := missingLayers("iiop-direct", m); len(errs) != 0 {
		t.Fatalf("all layers present, got %v", errs)
	}
	m["iiop.call_p50_us"] = metric{0, "us"}
	if errs := missingLayers("iiop-direct", m); len(errs) != 1 {
		t.Errorf("iiop.call_p50_us = 0 on iiop-direct: got %v, want one error", errs)
	}
	if errs := missingLayers("gw-read", m); len(errs) != 0 {
		t.Errorf("iiop.call_p50_us = 0 on gw-read: got %v, want none", errs)
	}
}
