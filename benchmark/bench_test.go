package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesHarness holds BENCHMARK.json and the harness's own
// tables together: same workloads, same metrics, same units, directions
// and bounds.
func TestContractMatchesHarness(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", c.PerLayer, perLayer)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if c.Workloads[i].Name != wl.name || c.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, c.Workloads[i], wl.name, wl.why)
		}
	}
}

// TestSmoke runs all four workloads at 1/200 scale, untraced and traced,
// and asserts every metric BENCHMARK.json names comes out finite with no
// failed operation — so the harness keeps compiling and checking against
// refactors of the layers it calls. It also holds the instrument's
// sanity conditions: an in-memory engine touches no file, a workload
// that fits in RAM reads no cold frame, a budgeted one does.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	o := options{seed: 1, seconds: 0.25, scale: 1.0 / 200, dir: t.TempDir(), out: t.TempDir()}
	layer := map[string]values{}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			p, err := runPass(wl, o, traced)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", wl.name, traced, p.attempted, p.failed, p.failures)
			}
			defs := c.EndToEnd
			if traced {
				defs, layer[wl.name] = c.PerLayer, p.metrics
			}
			if len(p.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", wl.name, traced, len(p.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := p.metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", wl.name, traced, d.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.Name, v)
				}
			}
		}
	}
	for _, name := range []string{"vfs.write_bytes_total", "vfs.sync_count", "vfs.readat_count", "segment.wal_bytes_per_el"} {
		if v := layer["ingest-mem"][name]; v != 0 {
			t.Errorf("ingest-mem: %s = %v, want 0", name, v)
		}
	}
	if v := layer["ingest-durable"]["vfs.write_bytes_total"]; v <= 0 {
		t.Errorf("ingest-durable: vfs.write_bytes_total = %v, want > 0", v)
	}
	if v := layer["serve-mixed"]["segment.scan_frames"]; v != 0 {
		t.Errorf("serve-mixed: segment.scan_frames = %v, want 0", v)
	}
	if v := layer["serve-cold"]["segment.scan_frames"]; v <= 0 {
		t.Errorf("serve-cold: segment.scan_frames = %v, want > 0", v)
	}
}
