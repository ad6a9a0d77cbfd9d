package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesRegistry guards BENCHMARK.json against drifting
// from the runner: the same workloads and metrics, in the same order, with
// the same units.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bench.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", got, want)
	}
	for _, list := range []struct {
		key  string
		got  []metric
		want []metricSpec
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(list.got) != len(list.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, runner has %d", list.key, len(list.got), len(list.want))
			continue
		}
		for i, m := range list.got {
			if m.Name != list.want[i].name || m.Unit != list.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), runner has %s (%s)",
					list.key, i, m.Name, m.Unit, list.want[i].name, list.want[i].unit)
			}
		}
	}
	for _, name := range append(got, names(endToEnd, perLayer)...) {
		if !metricName.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", name)
		}
	}
}

func names(lists ...[]metricSpec) []string {
	var out []string
	for _, l := range lists {
		for _, m := range l {
			out = append(out, m.name)
		}
	}
	return out
}

// tiny is a workload run small enough for a unit test.
func tiny(workload string, traced bool) config {
	return config{workload: workload, seed: 7, duration: 300 * time.Millisecond,
		traced: traced, values: 1 << 12, accs: 16}
}

// TestSmokeEveryWorkload runs every workload plainly and traced at a tiny
// size: each must pass every exactness check and print every metric it
// declares, with its unit, before the JSON result line.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(w.name, traced)
			if traced {
				cfg.traceOut = t.TempDir() + "/trace.json"
			}
			t.Run(w.name+map[bool]string{false: "/plain", true: "/traced"}[traced], func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || exitCode(res) != 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				printed := map[string]string{}
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 {
						if _, err := strconv.ParseFloat(f[1], 64); err == nil {
							printed[f[0]] = f[2]
						}
					}
				}
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if len(last.Metrics) != len(specs) {
					t.Errorf("JSON result has %d metrics, want %d", len(last.Metrics), len(specs))
				}
				for _, m := range specs {
					if printed[m.name] != m.unit {
						t.Errorf("metric %s printed with unit %q, want %q", m.name, printed[m.name], m.unit)
					}
					if last.Metrics[m.name].Unit != m.unit {
						t.Errorf("JSON metric %s has unit %q, want %q", m.name, last.Metrics[m.name].Unit, m.unit)
					}
				}
				if traced {
					if _, err := os.Stat(cfg.traceOut); err != nil {
						t.Errorf("traced run wrote no trace: %v", err)
					}
				}
			})
		}
	}
}

// TestCorruptOracleFails flips one limb bit of every oracle: each workload
// must then report failed operations and exit non-zero.
func TestCorruptOracleFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(w.name, false)
			cfg.corruptOracle = true
			var out bytes.Buffer
			res, err := run(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || exitCode(res) == 0 {
				t.Fatalf("corrupted oracle passed: correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
			}
			if !strings.Contains(out.String(), "failed_ops_frac ") || strings.Contains(out.String(), "failed_ops_frac 0 ") {
				t.Errorf("failed_ops_frac not above 0:\n%s", out.String())
			}
		})
	}
}
