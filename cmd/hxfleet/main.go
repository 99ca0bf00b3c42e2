// Command hxfleet runs a fleet of simulated machines concurrently: a
// scenario-matrix file (or the built-in Figure 3.1 matrix) is expanded
// into scenarios, dispatched onto a bounded worker pool, and the results
// are aggregated into a sweep table and/or emitted as JSON. With -fig31
// the table is followed by the paper's headline ratios (5.4x and 26%).
//
// Usage:
//
//	hxfleet [-j N] matrix.json            # run a scenario-matrix file
//	hxfleet -fig31 [-ticks N] [-rates ..] # built-in Figure 3.1 matrix
//	hxfleet -fig31 -out results.json      # also write per-run JSON
//	hxfleet -fig31 -out - -table=false    # JSON to stdout only
//	hxfleet -csv matrix.json              # flat CSV (one row per run)
//	hxfleet -record traces/ matrix.json   # stream a replayable trace per run
//
// A matrix file is a template scenario crossed with axis lists:
//
//	{
//	  "defaults": {"duration_ticks": 40},
//	  "platforms": ["bare", "lightweight", "hosted"],
//	  "rates": [100, 400, 700],
//	  "engines": ["auto", "slow"],
//	  "seeds": [0, 1]
//	}
//
// Every machine is private to its worker and clocked in virtual cycles,
// so the simulated metrics are bit-identical at any -j. Ctrl-C stops the
// running machines through the thread-safe stop request and reports the
// interrupted runs with stop_reason "stop requested".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"lvmm/internal/fleet"
)

func main() {
	jobs := flag.Int("j", 0, "concurrent machines (0 = GOMAXPROCS)")
	fig31 := flag.Bool("fig31", false, "run the built-in Figure 3.1 matrix instead of a matrix file")
	ticks := flag.Uint("ticks", 50, "with -fig31: run length per point, in 10 ms ticks")
	rates := flag.String("rates", "", "with -fig31: comma-separated offered rates in Mb/s (default: standard sweep)")
	table := flag.Bool("table", true, "print the aggregated sweep table")
	csv := flag.Bool("csv", false, "print flat CSV (one row per run) instead of the table")
	out := flag.String("out", "", `write per-run results as JSON to this path ("-" for stdout)`)
	record := flag.String("record", "", "stream a v3 execution trace per scenario into this directory (replayable with hxreplay)")
	flag.Parse()

	var mx *fleet.Matrix
	switch {
	case *fig31:
		if flag.NArg() != 0 {
			fail(fmt.Errorf("-fig31 and a matrix file are mutually exclusive"))
		}
		mx = fleet.Fig31Matrix(uint32(*ticks), parseRates(*rates))
	case flag.NArg() == 1:
		var err error
		mx, err = fleet.LoadMatrix(flag.Arg(0))
		if err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: hxfleet [flags] matrix.json | hxfleet -fig31 [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	scs, err := mx.Expand()
	if err != nil {
		fail(err)
	}
	if len(scs) == 0 {
		fail(fmt.Errorf("matrix expands to no scenarios"))
	}
	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fail(err)
		}
		for i := range scs {
			if scs[i].Record == "" {
				scs[i].Record = filepath.Join(*record,
					fmt.Sprintf("%03d-%s.trc", i, fleet.SafeName(scs[i].Name)))
			}
		}
	}
	// Two workers streaming to one path would corrupt the file silently;
	// refuse authored collisions up front (Expand already vets the
	// matrix itself, this re-vets after -record fills in defaults).
	if err := fleet.CheckRecordCollisions(scs); err != nil {
		fail(err)
	}

	// Ctrl-C cancels the sweep: running machines observe the stop
	// request within a poll interval, undispatched scenarios fail fast.
	// A second Ctrl-C force-exits — the escape hatch for a sweep whose
	// graceful drain is itself wedged (a worker stuck outside the
	// machine's stop-poll reach).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		cancel()
		<-sigs
		fmt.Fprintln(os.Stderr, "hxfleet: second interrupt, forcing exit")
		os.Exit(130)
	}()

	results := fleet.Runner{Jobs: *jobs}.Run(ctx, scs)

	failures, timedOut := 0, 0
	for _, r := range results {
		if r.Err != "" {
			failures++
			fmt.Fprintf(os.Stderr, "hxfleet: %s: %s\n", r.Scenario.Name, firstLine(r.Err))
		}
		if r.TimedOut {
			timedOut++
			fmt.Fprintf(os.Stderr, "hxfleet: %s: watchdog timed out after %gs wall clock\n",
				r.Scenario.Name, r.Scenario.Watchdog)
		}
		if r.TracePath != "" {
			fmt.Fprintf(os.Stderr, "hxfleet: %s: recorded %s (%d bytes)\n",
				r.Scenario.Name, r.TracePath, r.TraceBytes)
		}
	}

	switch {
	case *csv:
		fmt.Print(fleet.CSV(results))
	case *table:
		fmt.Print(fleet.Aggregate(results).Render())
		if *fig31 {
			fmt.Print("\n" + fleet.Summarize(results).Render())
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fail(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fail(err)
		}
	}

	if failures > 0 || timedOut > 0 {
		fmt.Fprintf(os.Stderr, "hxfleet: %d of %d scenarios failed, %d timed out\n",
			failures, len(results), timedOut)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		// Interrupted runs carry truncated windows, not errors; the exit
		// code must still distinguish them from a completed sweep.
		fmt.Fprintln(os.Stderr, "hxfleet: sweep interrupted; metrics above cover truncated windows")
		os.Exit(130)
	}
}

// parseRates reads -rates: comma-separated offered rates in Mb/s, or
// nil (the standard sweep) when empty.
func parseRates(s string) []float64 {
	if s == "" {
		return nil
	}
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fail(fmt.Errorf("bad rate %q: %v", f, err))
		}
		rates = append(rates, v)
	}
	return rates
}

// firstLine trims a multi-line error (a panic report carries its whole
// stack) to its first line for the per-run summary; the full text is
// still in the JSON output.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " [stack in JSON output]"
	}
	return s
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hxfleet:", err)
	os.Exit(1)
}
