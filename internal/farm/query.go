package farm

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"lvmm/internal/fleet"
	"lvmm/internal/isa"
	"lvmm/internal/replay"
)

// Predicate is a parsed time-travel query over a recorded timeline.
//
// Grammar (one comparison):
//
//	frame_gap >= N    longest-silence form: some gap between consecutive
//	irq_gap   >= N    occurrences of the kind (or from the last one to
//	timer_gap >= N    the end of the recording) is at least N cycles
//	frames    OP N    count form: the recording's total number of
//	irqs      OP N    occurrences compares true against N
//	timers    OP N
//
// OP is one of >=, >, <=, <, ==; gap predicates take only >= and >
// (a stall is a lower-bounded silence). N is a cycle count (or event
// count) and accepts Go-style underscores plus an optional s/ms/us
// suffix that converts wall time to cycles at the simulated clock rate:
// "frame_gap>=2ms" asks for a receiver stall of two virtual
// milliseconds.
type Predicate struct {
	src  string
	kind replay.EventKind
	gap  bool
	op   string
	n    uint64
}

// String returns the predicate as parsed.
func (p Predicate) String() string { return p.src }

// ParsePredicate parses the query grammar above.
func ParsePredicate(s string) (Predicate, error) {
	p := Predicate{src: strings.TrimSpace(s)}
	var lhs, rhs string
	for _, op := range []string{">=", "<=", "==", ">", "<"} {
		if i := strings.Index(p.src, op); i >= 0 {
			lhs, p.op, rhs = strings.TrimSpace(p.src[:i]), op, strings.TrimSpace(p.src[i+len(op):])
			break
		}
	}
	if p.op == "" {
		return p, fmt.Errorf("farm: predicate %q has no comparison (>=, >, <=, <, ==)", s)
	}
	switch lhs {
	case "frame_gap", "frames":
		p.kind = replay.EvFrame
	case "irq_gap", "irqs":
		p.kind = replay.EvIRQ
	case "timer_gap", "timers":
		p.kind = replay.EvTimer
	default:
		return p, fmt.Errorf("farm: unknown quantity %q (want frame_gap/irq_gap/timer_gap or frames/irqs/timers)", lhs)
	}
	p.gap = strings.HasSuffix(lhs, "_gap")
	if p.gap && p.op != ">=" && p.op != ">" {
		return p, fmt.Errorf("farm: gap predicates take >= or > (a stall is a lower bound), got %q", p.op)
	}

	num, suffix := rhs, ""
	for _, sf := range []string{"ms", "us", "s"} {
		if strings.HasSuffix(rhs, sf) {
			num, suffix = strings.TrimSuffix(rhs, sf), sf
			break
		}
	}
	v, err := strconv.ParseUint(strings.ReplaceAll(num, "_", ""), 10, 64)
	if err != nil {
		return p, fmt.Errorf("farm: predicate value %q: %v", rhs, err)
	}
	if suffix != "" {
		if !p.gap {
			return p, fmt.Errorf("farm: count predicate %q cannot take a time suffix", s)
		}
		switch suffix {
		case "s":
			v *= isa.ClockHz
		case "ms":
			v *= isa.ClockHz / 1_000
		case "us":
			v *= isa.ClockHz / 1_000_000
		}
	}
	p.n = v
	return p, nil
}

// cmp applies the predicate's comparison.
func (p Predicate) cmp(v uint64) bool {
	switch p.op {
	case ">=":
		return v >= p.n
	case ">":
		return v > p.n
	case "<=":
		return v <= p.n
	case "<":
		return v < p.n
	}
	return v == p.n
}

// Eval walks one recorded timeline and reports whether the predicate
// holds, with the position of interest when it does: for gap
// predicates, where the first qualifying silence begins (the event
// preceding the gap — the instant the stall started); for threshold
// counts (>=, >), the occurrence that crossed the threshold; for
// upper-bound counts, the end of the recording (only decidable there).
func (p Predicate) Eval(src *replay.LazyTrace) (bool, Point, error) {
	endCycle, endInstr, _, _ := src.End()
	start := src.CheckpointMeta(0)
	total := src.NumEvents()

	count := uint64(0)
	// The current gap starts at the recording start until the first
	// occurrence arrives.
	gapStart := Point{Instr: start.Instr, Cycle: start.Cycle}
	for i := 0; i < total; i++ {
		ev, err := src.Event(i)
		if err != nil {
			return false, Point{}, err
		}
		if ev.Kind != p.kind {
			continue
		}
		count++
		if p.gap {
			if gap := ev.Cycle - gapStart.Cycle; p.cmp(gap) {
				return true, gapStart.withDetail("%s of %d cycles (%.2f ms) ending at cycle %d",
					p.quantity(), gap, cyclesToMs(gap), ev.Cycle), nil
			}
			gapStart = Point{Instr: ev.Instr, Cycle: ev.Cycle}
		} else if (p.op == ">=" && count == p.n) || (p.op == ">" && count == p.n+1) {
			return true, Point{Instr: ev.Instr, Cycle: ev.Cycle,
				Detail: fmt.Sprintf("%s reached %d at cycle %d", p.quantity(), count, ev.Cycle)}, nil
		}
	}
	if p.gap {
		// Trailing silence: from the last occurrence (or the start, if
		// none ever happened) to the end of the recording.
		if gap := endCycle - gapStart.Cycle; p.cmp(gap) {
			return true, gapStart.withDetail("%s of %d cycles (%.2f ms) running to the end of the recording",
				p.quantity(), gap, cyclesToMs(gap)), nil
		}
		return false, Point{}, nil
	}
	if (p.op == ">=" || p.op == ">") && !p.cmp(count) {
		return false, Point{}, nil
	}
	if p.cmp(count) {
		return true, Point{Instr: endInstr, Cycle: endCycle,
			Detail: fmt.Sprintf("%s totalled %d over the recording", p.quantity(), count)}, nil
	}
	return false, Point{}, nil
}

// quantity names what the predicate measures, for match details.
func (p Predicate) quantity() string {
	name := map[replay.EventKind]string{
		replay.EvFrame: "frame", replay.EvIRQ: "irq", replay.EvTimer: "timer",
	}[p.kind]
	if p.gap {
		return name + " gap"
	}
	return name + " count"
}

func cyclesToMs(c uint64) float64 { return float64(c) / float64(isa.ClockHz) * 1_000 }

// Point is a position of interest on a recorded timeline.
type Point struct {
	Instr  uint64 `json:"instr"`
	Cycle  uint64 `json:"cycle"`
	Detail string `json:"detail"`
}

func (pt Point) withDetail(format string, args ...any) Point {
	pt.Detail = fmt.Sprintf(format, args...)
	return pt
}

// Match is one run whose recorded timeline satisfied the query.
type Match struct {
	Run   Run   `json:"run"`
	Point Point `json:"point"`
}

// QueryOptions bounds a corpus scan.
type QueryOptions struct {
	// Tag restricts the scan to one ingest batch ("" = whole store).
	Tag string
	// Jobs bounds concurrent trace scans; <= 0 selects GOMAXPROCS.
	Jobs int
	// Budget is the per-trace decoded-segment LRU budget in bytes
	// (<= 0 = replay.DefaultLRUBudget), so the scan's resident trace
	// memory is at most Jobs x Budget however large the corpus is.
	Budget int64
}

// QueryReport is the outcome of a corpus scan.
type QueryReport struct {
	Predicate string  `json:"predicate"`
	Matches   []Match `json:"matches"`
	// Scanned counts the runs whose traces were evaluated; Skipped the
	// runs stored without a recording (nothing to query).
	Scanned int `json:"scanned"`
	Skipped int `json:"skipped"`
}

// Query evaluates the predicate against every recorded run in the
// store, scanning traces concurrently on the fleet worker pool. Each
// trace opens lazily (v3 seek index + LRU), so resident memory is
// bounded by Jobs x Budget regardless of trace sizes. Matches come back
// sorted by run ID — the store's canonical order — and are identical at
// any Jobs.
func (s *Store) Query(ctx context.Context, pred Predicate, opts QueryOptions) (*QueryReport, error) {
	runs, err := s.Runs(opts.Tag)
	if err != nil {
		return nil, err
	}
	rep := &QueryReport{Predicate: pred.String()}
	type slot struct {
		matched bool
		pt      Point
		err     error
	}
	slots := make([]slot, len(runs))
	scan := make([]int, 0, len(runs))
	for i := range runs {
		if runs[i].Result.TracePath == "" {
			rep.Skipped++
			continue
		}
		scan = append(scan, i)
	}
	fleet.Runner{Jobs: opts.Jobs}.ForEach(ctx, len(scan), func(k int) {
		i := scan[k]
		src, err := replay.OpenSourceFile(runs[i].Result.TracePath, opts.Budget)
		if err != nil {
			slots[i].err = fmt.Errorf("run %s: %w", runs[i].ID, err)
			return
		}
		defer src.Close()
		slots[i].matched, slots[i].pt, slots[i].err = pred.Eval(src)
		if slots[i].err != nil {
			slots[i].err = fmt.Errorf("run %s: %w", runs[i].ID, slots[i].err)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var errs []string
	for _, i := range scan {
		if slots[i].err != nil {
			errs = append(errs, slots[i].err.Error())
			continue
		}
		rep.Scanned++
		if slots[i].matched {
			rep.Matches = append(rep.Matches, Match{Run: runs[i], Point: slots[i].pt})
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("farm: query failed on %d of %d traces:\n  %s",
			len(errs), len(scan), strings.Join(errs, "\n  "))
	}
	return rep, nil
}
