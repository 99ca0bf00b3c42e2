package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for lvmmbench when the smoke
// test spawns its child passes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestQuickSmoke runs every workload's untraced and traced pass with one
// set-up and one timed op, and checks that no op failed and that every
// named metric is reported with its unit.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the traced pass needs `go tool pprof`")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-quick", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("lvmmbench -quick exited %d:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(Workloads) {
		t.Errorf("correct=%v attempted=%d failed=%d, want true %d 0", res.Correct, res.Attempted, res.Failed, 2*len(Workloads))
	}
	for _, w := range Workloads {
		for _, d := range append(append([]MetricDef{}, EndToEnd...), PerLayer...) {
			m, ok := res.Metrics[w.Name+"/"+d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s/%s: reported=%v unit %q, want %q", w.Name, d.Name, ok, m.Unit, d.Unit)
			}
		}
		for _, ext := range []string{".run.json", ".cpu.pprof", ".trace.json"} {
			if _, err := os.Stat(filepath.Join(dir, w.Name+"-seed1"+ext)); err != nil {
				t.Errorf("artifact: %v", err)
			}
		}
		if m := res.Metrics[w.Name+"/sim_speed"]; m.Value <= 0 && w.Name != "timetravel" {
			t.Errorf("%s: sim_speed %v", w.Name, m.Value)
		}
	}
}

func TestCheckSimHoldsOpsToThePins(t *testing.T) {
	sim := map[string]float64{}
	for k, v := range pins["record_lw"] {
		name, _, _ := strings.Cut(k, "@")
		sim[name] = v
	}
	if err := checkSim("record_lw", 1, sim, sim); err != nil {
		t.Fatalf("pinned statistics rejected: %v", err)
	}
	sim["trace_bytes"]++
	if err := checkSim("record_lw", 1, sim, nil); err == nil {
		t.Error("seed 1: a trace one byte longer than its pin passed")
	}
	if err := checkSim("record_lw", 2, sim, nil); err != nil {
		t.Errorf("seed 2: the seed-1 byte pin applied: %v", err)
	}
	ref := map[string]float64{}
	for k, v := range sim {
		ref[k] = v
	}
	ref["trace_bytes"]--
	if err := checkSim("record_lw", 2, sim, ref); err == nil {
		t.Error("seed 2: an op differing from its warm-up op passed")
	}
	sim["frames"]++
	if err := checkSim("record_lw", 2, sim, nil); err == nil {
		t.Error("a frame count off its pin passed")
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json, which the
// benchmark's users read, in step with the definitions the code uses.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || len(bj.Command) < 2 || bj.Command[1] != "bench/run.sh" {
		t.Errorf("command %q paths %q", bj.Command, bj.Paths)
	}
	if len(bj.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(bj.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, PerLayer)
	}
}
