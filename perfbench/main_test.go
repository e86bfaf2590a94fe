package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// spec is the metric contract of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig runs a workload at the smallest scale: one set-up and two
// misses with their hits.
func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	def, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	return config{def: def, seed: 7, seconds: 0.1, trace: trace, setupReps: 1, maxMisses: 2, golden: g[name]}
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(context.Background(), tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%t: metric %s unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", w.Name, trace, name, got.Value)
				}
			}
			for name := range rep.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if _, err := json.Marshal(rep); err != nil {
				t.Errorf("%s trace=%t: %v", w.Name, trace, err)
			}
		}
	}
}

func TestPerturbedGoldenDigestIsAFailure(t *testing.T) {
	cfg := tinyConfig(t, "mbpta-rm", false)
	cfg.maxMisses = 1
	first := newPlan(cfg.def, cfg.seed).nextRound()[0].wire
	fp, err := first.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	g := map[string]string{}
	for k, v := range cfg.golden {
		g[k] = v
	}
	if g[fp] == "" {
		t.Fatalf("no recorded digest for %s", first.Label())
	}
	g[fp] = "0" + g[fp][1:]
	if g[fp] == cfg.golden[fp] {
		g[fp] = "1" + g[fp][1:]
	}
	cfg.golden = g
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("perturbed digest went unnoticed: correct=%t failed=%d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestWorkerCountInvariance runs the first campaigns of an mbpta-rm round
// on one worker and on several: the digests must be identical, and equal
// to the recorded ones.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := tinyConfig(t, "mbpta-rm", false)
	one := newEngineSUT(cfg.def, 1, nil)
	many := newEngineSUT(cfg.def, max(2, runtime.NumCPU()), nil)
	n := 0
	for _, o := range newPlan(cfg.def, cfg.seed).nextRound() {
		if !o.miss {
			continue
		}
		if n++; n > 3 {
			break
		}
		a, b := one.miss(context.Background(), o.wire), many.miss(context.Background(), o.wire)
		if a.err != nil || b.err != nil {
			t.Fatalf("%s: %v / %v", o.wire.Label(), a.err, b.err)
		}
		fp, _ := o.wire.Fingerprint()
		if a.digest != b.digest || a.digest != cfg.golden[fp] {
			t.Errorf("%s: 1 worker %s, %d workers %s, recorded %s",
				o.wire.Label(), a.digest, max(2, runtime.NumCPU()), b.digest, cfg.golden[fp])
		}
	}
}
