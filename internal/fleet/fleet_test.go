package fleet

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testMatrix is a small but heterogeneous sweep: every platform, two
// rates, short windows so the whole matrix stays fast.
func testMatrix() *Matrix {
	return &Matrix{
		Defaults:  Scenario{DurationTicks: 8},
		Platforms: []Platform{Bare, Lightweight, Hosted},
		Rates:     []float64{100, 700},
	}
}

// mustExpand expands a matrix that is known collision-free.
func mustExpand(t *testing.T, mx *Matrix) []Scenario {
	t.Helper()
	scs, err := mx.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// TestDeterminismAcrossParallelism is the fleet's core guarantee: the
// same scenario matrix run sequentially and at -j 8 yields bit-identical
// per-scenario results (also the -race exercise for concurrent machines).
func TestDeterminismAcrossParallelism(t *testing.T) {
	scs := mustExpand(t, testMatrix())
	seq := Runner{Jobs: 1}.Run(context.Background(), scs)
	par := Runner{Jobs: 8}.Run(context.Background(), scs)
	if len(seq) != len(scs) || len(par) != len(scs) {
		t.Fatalf("result lengths: seq=%d par=%d want %d", len(seq), len(par), len(scs))
	}
	for i := range seq {
		if seq[i].Err != "" {
			t.Fatalf("%s: %s", scs[i].Name, seq[i].Err)
		}
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("%s: sequential and parallel results differ:\nseq: %+v\npar: %+v",
				scs[i].Name, seq[i], par[i])
		}
	}
}

// TestRecordedTraceDeterministicAcrossJobsAndPipeline extends the fleet
// determinism guarantee to recorded artifacts: the trace file a scenario
// streams through the recorder's async pipeline must be byte-identical
// whether the sweep runs sequentially or at -j 4 — one canonical byte
// sequence per scenario.
func TestRecordedTraceDeterministicAcrossJobsAndPipeline(t *testing.T) {
	mx := &Matrix{
		Defaults:  Scenario{DurationTicks: 8},
		Platforms: []Platform{Lightweight},
		Rates:     []float64{100, 700},
	}
	base := mustExpand(t, mx)

	record := func(jobs int) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		scs := append([]Scenario(nil), base...)
		for i := range scs {
			scs[i].Record = filepath.Join(dir, SafeName(scs[i].Name)+".trc")
		}
		traces := map[string][]byte{}
		for _, r := range (Runner{Jobs: jobs}).Run(context.Background(), scs) {
			if r.Err != "" {
				t.Fatalf("jobs=%d %s: %s", jobs, r.Scenario.Name, r.Err)
			}
			data, err := os.ReadFile(r.TracePath)
			if err != nil {
				t.Fatal(err)
			}
			traces[r.Scenario.Name] = data
		}
		return traces
	}

	want := record(1)
	got := record(4)
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("jobs=4 %s: trace bytes differ from the jobs=1 recording (%d vs %d bytes)",
				name, len(got[name]), len(data))
		}
	}
}

// TestMatrixRejectsRecordSync: recordings always stream through the
// async pipeline, so a matrix still asking for the retired on-goroutine
// writer fails to load instead of being silently ignored.
func TestMatrixRejectsRecordSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.json")
	if err := os.WriteFile(path, []byte(`{"defaults": {"record_sync": true}, "rates": [100]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMatrix(path); err == nil || !strings.Contains(err.Error(), "record_sync") {
		t.Fatalf("LoadMatrix accepted record_sync: %v", err)
	}
}

// TestSeedVariesContentNotMetrics: distinct seeds stream distinct volume
// contents (still validating cleanly end to end) without moving any
// simulated metric — the data path's cost is content-independent.
func TestSeedVariesContentNotMetrics(t *testing.T) {
	base := Scenario{Platform: Lightweight, RateMbps: 150, DurationTicks: 8}
	seeded := base
	seeded.Seed = 7

	r0 := RunOne(context.Background(), base)
	r7 := RunOne(context.Background(), seeded)
	for _, r := range []Result{r0, r7} {
		if r.Err != "" {
			t.Fatalf("run failed: %s", r.Err)
		}
		if !r.Clean {
			t.Fatalf("seed %d: stream validation failed: %s", r.Scenario.Seed, r.NetError)
		}
		if r.Frames == 0 {
			t.Fatalf("seed %d: nothing transmitted", r.Scenario.Seed)
		}
	}
	r7.Scenario = r0.Scenario // compare everything but the spec
	if !reflect.DeepEqual(r0, r7) {
		t.Errorf("seed changed simulated metrics:\nseed0: %+v\nseed7: %+v", r0, r7)
	}
}

// TestEngineSlowMatchesAuto is a machine-level cross-engine differential
// through the fleet: the forced per-instruction interpreter and the
// predecoded burst engine must produce identical simulated results.
func TestEngineSlowMatchesAuto(t *testing.T) {
	auto := Scenario{Platform: Lightweight, RateMbps: 150, DurationTicks: 8, Engine: EngineAuto}
	slow := auto
	slow.Engine = EngineSlow

	ra := RunOne(context.Background(), auto)
	rs := RunOne(context.Background(), slow)
	if ra.Err != "" || rs.Err != "" {
		t.Fatalf("runs failed: auto=%q slow=%q", ra.Err, rs.Err)
	}
	rs.Scenario = ra.Scenario
	if !reflect.DeepEqual(ra, rs) {
		t.Errorf("engines disagree:\nauto: %+v\nslow: %+v", ra, rs)
	}
}

// TestCancelRunningMachine stops a machine mid-run through context
// cancellation — the RequestStop path a fleet coordinator drives.
func TestCancelRunningMachine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A window far too long to finish before the cancel lands.
	sc := Scenario{Platform: Lightweight, RateMbps: 700, DurationTicks: 100000}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res := RunOne(ctx, sc)
	if res.Err != "" {
		t.Fatalf("unexpected setup error: %s", res.Err)
	}
	if res.StopReason != "stop requested" {
		t.Fatalf("StopReason = %q, want %q", res.StopReason, "stop requested")
	}
}

// TestCancelledBeforeDispatch: scenarios not yet dispatched when the
// context dies are reported as errors, not zero results.
func TestCancelledBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Runner{Jobs: 2}.Run(ctx, mustExpand(t, testMatrix()))
	for _, r := range results {
		if r.Err == "" {
			t.Fatalf("%s: ran despite cancelled context (reason %q)", r.Scenario.Name, r.StopReason)
		}
	}
}

func TestMatrixExpand(t *testing.T) {
	mx := &Matrix{
		Defaults:  Scenario{DurationTicks: 8, SegmentBytes: 512},
		Platforms: []Platform{Bare, Lightweight},
		Rates:     []float64{100, 400, 700},
		Engines:   []Engine{EngineAuto, EngineSlow},
		Seeds:     []uint64{0, 1},
		Scenarios: []Scenario{{Platform: Hosted, RateMbps: 50}},
	}
	scs := mustExpand(t, mx)
	if want := 2*3*2*2 + 1; len(scs) != want {
		t.Fatalf("expanded to %d scenarios, want %d", len(scs), want)
	}
	names := map[string]bool{}
	for _, sc := range scs {
		if sc.Name == "" {
			t.Fatalf("scenario without a name: %+v", sc)
		}
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
	}
	if scs[0].SegmentBytes != 512 || scs[0].DurationTicks != 8 {
		t.Fatalf("defaults not applied: %+v", scs[0])
	}
	if !names["bare@100Mbps"] || !names["lightweight@700Mbps/slow#1"] || !names["hosted@50Mbps"] {
		t.Fatalf("expected derived names missing: %v", names)
	}
}

func TestMatrixExpandUniquifiesTemplateRecordPath(t *testing.T) {
	mx := &Matrix{
		Defaults:  Scenario{DurationTicks: 8, Record: "traces/run.trc"},
		Platforms: []Platform{Bare, Lightweight},
		Rates:     []float64{100, 400},
	}
	scs := mustExpand(t, mx)
	paths := map[string]string{}
	for _, sc := range scs {
		if sc.Record == "" {
			t.Fatalf("%s lost its record path", sc.Name)
		}
		if prev, dup := paths[sc.Record]; dup {
			t.Fatalf("scenarios %q and %q share record path %s — concurrent workers would corrupt it",
				prev, sc.Name, sc.Record)
		}
		paths[sc.Record] = sc.Name
		if !strings.HasPrefix(sc.Record, "traces/run-") || !strings.HasSuffix(sc.Record, ".trc") {
			t.Fatalf("derived path %q does not follow the template", sc.Record)
		}
	}

	// A single-cell matrix keeps the authored path verbatim.
	one := &Matrix{Defaults: Scenario{RateMbps: 100, Record: "only.trc"}}
	if got := mustExpand(t, one)[0].Record; got != "only.trc" {
		t.Fatalf("single-cell record path rewritten to %q", got)
	}
}

// TestMatrixExpandRejectsRecordCollisions: expansion must fail loudly
// when two scenarios resolve to one trace file instead of letting one
// recording silently overwrite the other.
func TestMatrixExpandRejectsRecordCollisions(t *testing.T) {
	// Duplicate axis values expand to identically named cells, whose
	// templated record paths then collide.
	dupAxis := &Matrix{
		Defaults: Scenario{DurationTicks: 8, Record: "traces/run.trc"},
		Rates:    []float64{100, 400},
		Seeds:    []uint64{1, 1},
	}
	if _, err := dupAxis.Expand(); err == nil || !strings.Contains(err.Error(), "both record to") {
		t.Fatalf("duplicate seed axis expanded cleanly: %v", err)
	}

	// Distinct names can sanitize to one filesystem token.
	if SafeName("run a") != SafeName("run:a") {
		t.Fatal("test premise broken: names no longer sanitize alike")
	}
	sanitized := &Matrix{Scenarios: []Scenario{
		{Name: "run a", RateMbps: 100, Record: recordPathFor("traces/run.trc", "run a")},
		{Name: "run:a", RateMbps: 400, Record: recordPathFor("traces/run.trc", "run:a")},
	}}
	if _, err := sanitized.Expand(); err == nil {
		t.Fatal("sanitized-name collision expanded cleanly")
	}

	// Textually different paths naming the same file still collide.
	lexical := &Matrix{Scenarios: []Scenario{
		{Name: "a", RateMbps: 100, Record: "./x.trc"},
		{Name: "b", RateMbps: 400, Record: "x.trc"},
	}}
	if _, err := lexical.Expand(); err == nil {
		t.Fatal("lexically distinct aliases of one path expanded cleanly")
	}

	// An explicit extra shadowing a templated cell collides too.
	shadow := &Matrix{
		Defaults:  Scenario{DurationTicks: 8, Record: "traces/run.trc"},
		Platforms: []Platform{Bare, Lightweight},
		Scenarios: []Scenario{{Name: "shadow", RateMbps: 9,
			Record: recordPathFor("traces/run.trc", ScenarioName(Scenario{Platform: Bare}))}},
	}
	if _, err := shadow.Expand(); err == nil {
		t.Fatal("extra scenario shadowing a matrix cell expanded cleanly")
	}

	// Control: the same shapes without collisions expand fine.
	ok := &Matrix{
		Defaults: Scenario{DurationTicks: 8, Record: "traces/run.trc"},
		Rates:    []float64{100, 400},
		Seeds:    []uint64{1, 2},
	}
	if _, err := ok.Expand(); err != nil {
		t.Fatalf("collision-free matrix rejected: %v", err)
	}
}

func TestRunnerRejectsDuplicateRecordPaths(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/shared.trc"
	scs := []Scenario{
		{Name: "a", RateMbps: 100, DurationTicks: 4, Record: path},
		// A lexical alias of the same file must collide, not slip through
		// an exact-string comparison.
		{Name: "b", RateMbps: 400, DurationTicks: 4, Record: dir + "/./shared.trc"},
		{Name: "c", RateMbps: 100, DurationTicks: 4},
	}
	res := Runner{Jobs: 2}.Run(context.Background(), scs)
	if res[0].Err != "" || res[0].TracePath != path {
		t.Fatalf("first claimant failed: %+v", res[0])
	}
	if res[1].Err == "" || !strings.Contains(res[1].Err, "already claimed") {
		t.Fatalf("duplicate record path not rejected: %+v", res[1])
	}
	if res[2].Err != "" {
		t.Fatalf("unrecorded scenario failed: %s", res[2].Err)
	}
}

func TestUnknownPlatformAndEngine(t *testing.T) {
	if res := RunOne(context.Background(), Scenario{Platform: "xen", RateMbps: 10}); res.Err == "" {
		t.Fatal("unknown platform accepted")
	}
	if res := RunOne(context.Background(), Scenario{Engine: "jit", RateMbps: 10}); res.Err == "" {
		t.Fatal("unknown engine accepted")
	}
}

func TestAggregateShape(t *testing.T) {
	mx := testMatrix()
	mx.Seeds = []uint64{0, 1} // two runs per cell: one displayed, one extra
	results := Runner{}.Run(context.Background(), mustExpand(t, mx))
	tab := Aggregate(results)
	if len(tab.Rates) != 2 || len(tab.Platforms) != 3 {
		t.Fatalf("table shape %dx%d, want 2 rates x 3 platforms", len(tab.Rates), len(tab.Platforms))
	}
	if tab.Platforms[0] != Bare || tab.Platforms[1] != Lightweight || tab.Platforms[2] != Hosted {
		t.Fatalf("platform order %v", tab.Platforms)
	}
	if tab.Extra != 6 {
		t.Fatalf("extra runs = %d, want 6", tab.Extra)
	}
	for _, pf := range tab.Platforms {
		for i, cell := range tab.Cells[pf] {
			if cell == nil {
				t.Fatalf("%s @ %.0f: empty cell", pf, tab.Rates[i])
			}
		}
	}
	if out := tab.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
	if out := CSV(results); len(out) == 0 {
		t.Fatal("empty CSV")
	}
}
