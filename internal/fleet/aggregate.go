package fleet

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// SweepTable merges per-run results into the figure shape: one row per
// offered rate, one column per platform. Results at a (platform, rate)
// cell that is already filled (extra engines or seeds of the same point)
// are counted but not displayed; the flat CSV carries every run.
type SweepTable struct {
	Rates     []float64
	Platforms []Platform
	// Cells maps platform → results aligned with Rates (nil = no run).
	Cells map[Platform][]*Result
	// Extra counts results beyond the first per cell.
	Extra int
}

// Aggregate merges results into a sweep table.
func Aggregate(results []Result) *SweepTable {
	t := &SweepTable{Cells: map[Platform][]*Result{}}

	rateIdx := map[float64]int{}
	for _, r := range results {
		if _, ok := rateIdx[r.Scenario.RateMbps]; !ok {
			rateIdx[r.Scenario.RateMbps] = 0
			t.Rates = append(t.Rates, r.Scenario.RateMbps)
		}
	}
	sort.Float64s(t.Rates)
	for i, rate := range t.Rates {
		rateIdx[rate] = i
	}

	for i := range results {
		r := &results[i]
		pf := r.Scenario.Platform
		if pf == "" {
			pf = Lightweight
		}
		row := t.Cells[pf]
		if row == nil {
			row = make([]*Result, len(t.Rates))
			t.Cells[pf] = row
			t.Platforms = append(t.Platforms, pf)
		}
		if j := rateIdx[r.Scenario.RateMbps]; row[j] == nil {
			row[j] = r
		} else {
			t.Extra++
		}
	}
	sort.Slice(t.Platforms, func(i, j int) bool {
		// Known platforms keep their table order; unknown ones follow
		// alphabetically.
		oi, oj := t.Platforms[i].Index(), t.Platforms[j].Index()
		if oi >= 0 && oj >= 0 {
			return oi < oj
		}
		if (oi >= 0) != (oj >= 0) {
			return oi >= 0
		}
		return t.Platforms[i] < t.Platforms[j]
	})
	return t
}

// Render formats the sweep as a text table.
func (t *SweepTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "offered")
	for _, pf := range t.Platforms {
		fmt.Fprintf(&b, " | %-24s", pf)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "%-10s", "(Mb/s)")
	for range t.Platforms {
		fmt.Fprintf(&b, " | %-11s %-12s", "achieved", "CPU load")
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, strings.Repeat("-", 10+27*len(t.Platforms)))
	for i, rate := range t.Rates {
		fmt.Fprintf(&b, "%-10.0f", rate)
		for _, pf := range t.Platforms {
			p := t.Cells[pf][i]
			switch {
			case p == nil:
				fmt.Fprintf(&b, " | %-24s", "-")
			case p.Err != "":
				fmt.Fprintf(&b, " | %-24s", "ERROR: "+truncate(p.Err, 17))
			default:
				fmt.Fprintf(&b, " | %7.1f     %5.1f%%      ", p.AchievedMbps, p.CPULoad*100)
			}
		}
		fmt.Fprintln(&b)
	}
	if t.Extra > 0 {
		fmt.Fprintf(&b, "(%d additional runs share cells above; see the JSON/CSV output)\n", t.Extra)
	}
	return b.String()
}

// CSV renders every result (not just the table cells) in flat
// machine-readable form (RFC 4180 quoting).
func CSV(results []Result) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write([]string{"name", "platform", "engine", "seed", "offered_mbps",
		"achieved_mbps", "cpu_load", "monitor_share", "frames", "clean",
		"stop_reason", "error"})
	for _, r := range results {
		pf := r.Scenario.Platform
		if pf == "" {
			pf = Lightweight
		}
		eng := r.Scenario.Engine
		if eng == "" {
			eng = EngineAuto
		}
		w.Write([]string{
			r.Scenario.Name, string(pf), string(eng),
			strconv.FormatUint(r.Scenario.Seed, 10),
			fmt.Sprintf("%.1f", r.Scenario.RateMbps),
			fmt.Sprintf("%.2f", r.AchievedMbps),
			fmt.Sprintf("%.4f", r.CPULoad),
			fmt.Sprintf("%.4f", r.MonitorShare),
			strconv.FormatUint(r.Frames, 10),
			strconv.FormatBool(r.Clean),
			r.StopReason, r.Err,
		})
	}
	w.Flush()
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
