package bench

import "testing"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 8}, 3, 6, 9}, // Python extrapolates past the ends
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, reversed
	}
	if got := nearestRank(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := nearestRank(xs, 100); got != 100 {
		t.Errorf("p100 = %v", got)
	}
	if got := nearestRank([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v", got)
	}
}

func TestBestOfRuns(t *testing.T) {
	// Two passes over three distinct runs; the second pass of run 1 was
	// slowed by the host.
	runs := []run{
		{ID: 0, Ms: 12, VS: 1}, {ID: 1, Ms: 10, VS: 1}, {ID: 2, Ms: 30, VS: 2},
		{ID: 0, Ms: 10, VS: 1}, {ID: 1, Ms: 25, VS: 1}, {ID: 2, Ms: 31, VS: 2},
	}
	runMs, speed := runCost(runs)
	if runMs != 50.0/3 || speed != 4/0.05 {
		t.Errorf("runCost = %v ms, %v vs/s; want %v, %v", runMs, speed, 50.0/3, 4/0.05)
	}
	ops := []opSample{{ID: 0, CPU: 0.2, VS: 1}, {ID: 0, CPU: 0.1, VS: 1}, {ID: 1, CPU: 0.3, VS: 2}}
	if got := cpuPerVS(ops); got != (0.1+0.3)/3 {
		t.Errorf("cpuPerVS = %v, want the cheapest repeat of each op, %v", got, (0.1+0.3)/3)
	}
	if got := tailMs(runs); got != 30 {
		t.Errorf("tail of 3 distinct runs = %v, want the slowest best (30)", got)
	}
	var many []run
	for i := 0; i < 100; i++ {
		many = append(many, run{ID: i, Ms: float64(100 - i)}, run{ID: i, Ms: 500})
	}
	if got := tailMs(many); got != 90 {
		t.Errorf("tail of 100 distinct runs = %v, want p90 (90), ten beyond it", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := MetricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, v := range a {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{shift(1.05), "ok"},
		{shift(1.2), "regression"},
		{shift(0.8), "better"},
		{[]float64{60, 140, 100, 70, 130, 90, 110, 80, 120, 100}, "unresolved"},
		{[]float64{90, 170, 130, 100, 160, 120, 140, 110, 150, 130}, "regression"},
	} {
		if got := compareValues("stream_lw", d, a, c.b).Verdict; got != c.want {
			t.Errorf("B=%v: verdict %q, want %q", c.b, got, c.want)
		}
	}
	up := MetricDef{Name: "sim_speed", Unit: "vs/s", Better: "higher", Bound: 0.10}
	if got := compareValues("stream_lw", up, a, shift(0.8)).Verdict; got != "regression" {
		t.Errorf("slower sim_speed: verdict %q, want regression", got)
	}
}
