package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lvmm"
	"lvmm/internal/fleet"
	"lvmm/internal/isa"
	"lvmm/internal/replay"
)

// fakeResult builds a synthetic fleet result for store-level tests.
func fakeResult(name string, mbps float64, load float64) fleet.Result {
	return fleet.Result{
		Scenario:     fleet.Scenario{Name: name, RateMbps: mbps},
		StopReason:   "guest done",
		AchievedMbps: mbps,
		CPULoad:      load,
		Clean:        true,
	}
}

func TestIngestIdempotentAndContentAddressed(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results := []fleet.Result{fakeResult("a", 100, 0.5), fakeResult("b", 200, 0.6)}
	first, err := s.Ingest("base", results, "")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Ingest("base", results, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-ingesting identical content produced different records")
	}
	runs, err := s.Runs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("store holds %d runs after a double ingest of 2, want 2", len(runs))
	}
	// Same content under a different tag is a different record.
	if _, err := s.Ingest("other", results, ""); err != nil {
		t.Fatal(err)
	}
	runs, _ = s.Runs("")
	if len(runs) != 4 {
		t.Fatalf("store holds %d runs across two tags, want 4", len(runs))
	}
	only, err := s.Runs("other")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 2 {
		t.Fatalf("tag filter returned %d runs, want 2", len(only))
	}
	tags, err := s.Tags()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tags, []string{"base", "other"}) {
		t.Fatalf("tags %v", tags)
	}
	if _, err := s.Ingest("", results, ""); err == nil {
		t.Fatal("empty tag accepted")
	}
}

func TestIngestFileResolvesRelativeTracePaths(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult("a", 100, 0.5)
	res.TracePath = filepath.Join("traces", "a.trc")
	artifact := filepath.Join(dir, "results.json")
	blob, _ := json.Marshal([]fleet.Result{res})
	if err := os.WriteFile(artifact, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := s.IngestFile("base", artifact)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := filepath.Abs(filepath.Join(dir, "traces", "a.trc"))
	if got := runs[0].Result.TracePath; got != want {
		t.Fatalf("trace path resolved to %s, want %s", got, want)
	}
}

func TestDiff(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := []fleet.Result{
		fakeResult("a", 100, 0.50),
		fakeResult("b", 200, 0.60),
		fakeResult("base-only", 10, 0.1),
	}
	next := []fleet.Result{
		fakeResult("a", 80, 0.50),  // throughput regressed 20%
		fakeResult("b", 200, 0.72), // load regressed 20%
		fakeResult("new-only", 10, 0.1),
	}
	if _, err := s.Ingest("base", base, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("new", next, ""); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Diff("base", "new", "achieved_mbps")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 2 || rep.Entries[0].Scenario != "a" || rep.Entries[1].Scenario != "b" {
		t.Fatalf("entries %+v", rep.Entries)
	}
	if rep.Entries[0].Delta != -20 {
		t.Fatalf("a's delta %g, want -20", rep.Entries[0].Delta)
	}
	if !reflect.DeepEqual(rep.BaseOnly, []string{"base-only"}) || !reflect.DeepEqual(rep.NewOnly, []string{"new-only"}) {
		t.Fatalf("unmatched: base %v new %v", rep.BaseOnly, rep.NewOnly)
	}
	// Throughput regresses downward...
	regs := rep.Regressions(10)
	if len(regs) != 1 || regs[0].Scenario != "a" {
		t.Fatalf("throughput regressions %+v", regs)
	}
	// ...load regresses upward.
	rep2, err := s.Diff("base", "new", "cpu_load")
	if err != nil {
		t.Fatal(err)
	}
	regs = rep2.Regressions(10)
	if len(regs) != 1 || regs[0].Scenario != "b" {
		t.Fatalf("load regressions %+v", regs)
	}
	if _, err := s.Diff("base", "new", "warp_factor"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	// Two runs under one tag with the same scenario name are ambiguous.
	if _, err := s.Ingest("base", []fleet.Result{fakeResult("a", 999, 0.9)}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Diff("base", "new", "achieved_mbps"); err == nil {
		t.Fatal("ambiguous scenario name accepted")
	}
}

func TestParsePredicate(t *testing.T) {
	good := []struct {
		in   string
		gap  bool
		kind replay.EventKind
		op   string
		n    uint64
	}{
		{"frame_gap>=1_000_000", true, replay.EvFrame, ">=", 1_000_000},
		{"irq_gap>500", true, replay.EvIRQ, ">", 500},
		{"timer_gap >= 2ms", true, replay.EvTimer, ">=", 2 * isa.ClockHz / 1000},
		{"frame_gap>=1s", true, replay.EvFrame, ">=", isa.ClockHz},
		{"frame_gap>=5us", true, replay.EvFrame, ">=", 5 * isa.ClockHz / 1_000_000},
		{"frames<100", false, replay.EvFrame, "<", 100},
		{"irqs==0", false, replay.EvIRQ, "==", 0},
		{"timers>=3", false, replay.EvTimer, ">=", 3},
	}
	for _, tc := range good {
		p, err := ParsePredicate(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if p.gap != tc.gap || p.kind != tc.kind || p.op != tc.op || p.n != tc.n {
			t.Fatalf("%q parsed to %+v", tc.in, p)
		}
	}
	for _, bad := range []string{
		"", "frame_gap", "frame_gap=5", "blocks>=5", "frame_gap<100",
		"frames>=1ms", "frame_gap>=abc", "frame_gap>=-5",
	} {
		if _, err := ParsePredicate(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// synthSource builds an in-memory timeline for precise Eval semantics.
func synthSource(t *testing.T, end uint64, events ...replay.Event) *replay.LazyTrace {
	t.Helper()
	tr := &replay.Trace{
		Events:      events,
		Checkpoints: []replay.Checkpoint{{Index: 0, Instr: 0, Cycle: 0}},
		EndCycle:    end,
		EndInstr:    end / 2,
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lt, err := replay.NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), 0)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func TestPredicateEval(t *testing.T) {
	ev := func(kind replay.EventKind, cycle uint64) replay.Event {
		return replay.Event{Kind: kind, Cycle: cycle, Instr: cycle / 2}
	}
	timeline := synthSource(t, 10_000,
		ev(replay.EvFrame, 1_000),
		ev(replay.EvIRQ, 1_500),
		ev(replay.EvFrame, 1_200),
		ev(replay.EvFrame, 6_000), // 4_800-cycle stall after cycle 1_200
		ev(replay.EvFrame, 6_100),
	)

	eval := func(src string) (bool, Point) {
		t.Helper()
		p, err := ParsePredicate(src)
		if err != nil {
			t.Fatal(err)
		}
		ok, pt, err := p.Eval(timeline)
		if err != nil {
			t.Fatal(err)
		}
		return ok, pt
	}

	// The qualifying stall starts at the frame at cycle 1_200.
	ok, pt := eval("frame_gap>=4_800")
	if !ok || pt.Cycle != 1_200 || pt.Instr != 600 {
		t.Fatalf("stall match %v at %+v, want start of the 4800-cycle gap", ok, pt)
	}
	if ok, _ := eval("frame_gap>=4_801"); ok {
		t.Fatal("4801-cycle stall reported; longest gap is 4800")
	}
	// Trailing silence: last frame at 6_100, end at 10_000 → 3_900.
	ok, pt = eval("frame_gap>=3_900")
	if !ok {
		t.Fatal("trailing silence missed")
	}
	if pt.Cycle != 1_200 {
		// The 4_800 gap qualifies first (it is earlier and longer).
		t.Fatalf("first qualifying gap starts at %d, want 1200", pt.Cycle)
	}
	// A kind with no events: the whole run is one gap.
	if ok, pt := eval("timer_gap>=10_000"); !ok || pt.Cycle != 0 {
		t.Fatalf("empty-kind gap %v %+v", ok, pt)
	}
	// Count thresholds: the 3rd frame is at cycle 6_000.
	ok, pt = eval("frames>=3")
	if !ok || pt.Cycle != 6_000 {
		t.Fatalf("frames>=3 matched %v at %+v, want the third frame", ok, pt)
	}
	if ok, _ := eval("frames>=5"); ok {
		t.Fatal("frames>=5 matched a 4-frame timeline")
	}
	// Upper bounds resolve at the end of the recording.
	ok, pt = eval("frames<5")
	if !ok || pt.Cycle != 10_000 {
		t.Fatalf("frames<5 %v %+v", ok, pt)
	}
	if ok, _ = eval("irqs==1"); !ok {
		t.Fatal("irqs==1 missed")
	}
}

// TestFarmEndToEnd is the acceptance run: record two 50-run fleet
// batches (≥ 100 stored runs), ingest them, answer a cross-run metric
// diff and a time-travel predicate query, prove the query is
// deterministic at any parallelism, and replay a matched run to its
// point of interest.
func TestFarmEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("records 100 fleet runs")
	}
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}

	batch := func(tag string, coalesce uint32) []fleet.Result {
		t.Helper()
		traceDir := filepath.Join(dir, tag)
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			t.Fatal(err)
		}
		var scs []fleet.Scenario
		for ri := 0; ri < 25; ri++ {
			rate := 50 + 25*float64(ri)
			for seed := uint64(0); seed < 2; seed++ {
				name := fmt.Sprintf("r%g-s%d", rate, seed)
				scs = append(scs, fleet.Scenario{
					Name:     name,
					Platform: fleet.Lightweight,
					RateMbps: rate,
					// 8 ticks is the shortest run that streams frames
					// (the guest's first block read pipelines for ~7).
					DurationTicks:      8,
					Seed:               seed,
					Coalesce:           coalesce,
					Record:             filepath.Join(traceDir, fmt.Sprintf("%02d-%d.trc", ri, seed)),
					RecordSnapInterval: 25_000_000,
				})
			}
		}
		results := fleet.Runner{}.Run(context.Background(), scs)
		for _, r := range results {
			if r.Err != "" {
				t.Fatalf("%s: %s", r.Scenario.Name, r.Err)
			}
			if r.TracePath == "" {
				t.Fatalf("%s recorded no trace", r.Scenario.Name)
			}
			if r.Frames == 0 {
				t.Fatalf("%s streamed no frames; the farm queries need a timeline", r.Scenario.Name)
			}
		}
		return results
	}
	baseResults := batch("base", 1)
	newResults := batch("new", 8)
	if _, err := s.Ingest("base", baseResults, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("new", newResults, ""); err != nil {
		t.Fatal(err)
	}
	runs, err := s.Runs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 100 {
		t.Fatalf("store holds %d runs, acceptance needs >= 100", len(runs))
	}

	// Cross-run metric diff: every scenario matches across the batches.
	rep, err := s.Diff("base", "new", "achieved_mbps")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != len(baseResults) || len(rep.BaseOnly) != 0 || len(rep.NewOnly) != 0 {
		t.Fatalf("diff matched %d of %d scenarios (base-only %d, new-only %d)",
			len(rep.Entries), len(baseResults), len(rep.BaseOnly), len(rep.NewOnly))
	}
	rep2, err := s.Diff("base", "new", "achieved_mbps")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("diff is not deterministic")
	}

	// Pick a discriminating stall threshold from one recorded timeline:
	// the longest frame gap of the first base run. Querying for exactly
	// that stall must at least match that run, identically at any -j.
	probe := baseResults[0]
	src, err := replay.OpenSourceFile(probe.TracePath, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	maxGap, prev := uint64(0), src.CheckpointMeta(0).Cycle
	for i := 0; i < src.NumEvents(); i++ {
		ev, err := src.Event(i)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != replay.EvFrame {
			continue
		}
		if g := ev.Cycle - prev; g > maxGap {
			maxGap = g
		}
		prev = ev.Cycle
	}
	endCycle, _, _, _ := src.End()
	if g := endCycle - prev; g > maxGap {
		maxGap = g
	}
	src.Close()
	if maxGap == 0 {
		t.Fatal("probe trace has no frame gap to query for")
	}

	pred, err := ParsePredicate(fmt.Sprintf("frame_gap>=%d", maxGap))
	if err != nil {
		t.Fatal(err)
	}
	query := func(jobs int) *QueryReport {
		t.Helper()
		qr, err := s.Query(context.Background(), pred, QueryOptions{Jobs: jobs, Budget: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return qr
	}
	q1 := query(1)
	q8 := query(8)
	if !reflect.DeepEqual(q1, q8) {
		t.Fatal("query answers differ between -j 1 and -j 8")
	}
	if q1.Scanned != len(runs) || q1.Skipped != 0 {
		t.Fatalf("scanned %d of %d runs (%d skipped)", q1.Scanned, len(runs), q1.Skipped)
	}
	if len(q1.Matches) == 0 {
		t.Fatal("the probe run's own longest stall matched nothing")
	}
	found := false
	for _, m := range q1.Matches {
		found = found || m.Run.Result.TracePath == probe.TracePath
	}
	if !found {
		t.Fatalf("probe run (gap %d) missing from %d matches", maxGap, len(q1.Matches))
	}

	// A count query spans every recorded run.
	all, err := ParsePredicate("frames>=1")
	if err != nil {
		t.Fatal(err)
	}
	qAll, err := s.Query(context.Background(), all, QueryOptions{Jobs: 4, Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(qAll.Matches) != len(runs) {
		t.Fatalf("frames>=1 matched %d of %d runs", len(qAll.Matches), len(runs))
	}

	// Time travel into a match: rebuild the machine from the trace and
	// land exactly on the point of interest.
	m := q1.Matches[0]
	msrc, err := replay.OpenSourceFile(m.Run.Result.TracePath, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer msrc.Close()
	rt, err := lvmm.ReplaySource(msrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Replayer().SeekInstr(m.Point.Instr); err != nil {
		t.Fatal(err)
	}
	if got := rt.Replayer().Position(); got != m.Point.Instr {
		t.Fatalf("seeked to instr %d, want %d", got, m.Point.Instr)
	}
	if err := rt.Replayer().Err(); err != nil {
		t.Fatal(err)
	}
}
