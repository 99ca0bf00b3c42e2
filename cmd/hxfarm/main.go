// Command hxfarm manages a trace farm: a persistent store of recorded
// fleet runs, cross-run metric diffing between batches, and time-travel
// queries evaluated against every recorded timeline in the corpus.
//
// Usage:
//
//	hxfarm -store DIR ingest -tag TAG results.json   # hxfleet -out artifact
//	hxfarm -store DIR ls [-tag TAG]
//	hxfarm -store DIR diff -base TAG -new TAG [-metric achieved_mbps] [-threshold PCT]
//	hxfarm -store DIR query [-tag TAG] [-j N] [-budget BYTES] [-replay] 'frame_gap>=2ms'
//
// The workflow: run a fleet with `hxfleet -record traces/ -out
// results.json matrix.json`, ingest the artifact under a batch tag,
// repeat per branch/config, then ask the farm which runs regressed a
// metric versus a baseline batch (diff) or where in each recorded
// timeline something interesting happened (query). Query predicates —
// `frame_gap>=N` (receiver stalled ≥ N cycles; ms/us suffixes accepted),
// `irq_gap>=N`, `frames<N`, and friends — are evaluated over lazily
// opened traces on a bounded worker pool, so scanning a thousand-trace
// corpus holds at most jobs x budget bytes of decoded trace data. With
// -replay, every matched run is re-executed to its point of interest and
// left verified — the farm's answer is a set of machines parked at the
// instant the bug trap sprang.
//
// Everything is deterministic: run records are content-addressed,
// results are functions of simulated state only, and diff and query
// answers are bit-identical at any -j.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"

	"lvmm"
	"lvmm/internal/farm"
	"lvmm/internal/replay"
)

func main() {
	store := flag.String("store", "", "farm store directory (required)")
	flag.Usage = usage
	flag.Parse()
	if *store == "" || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	s, err := farm.Open(*store)
	if err != nil {
		fail(err)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "ingest":
		cmdIngest(s, args)
	case "ls":
		cmdLs(s, args)
	case "diff":
		cmdDiff(s, args)
	case "query":
		cmdQuery(s, args)
	default:
		fail(fmt.Errorf("unknown command %q", cmd))
	}
}

func cmdIngest(s *farm.Store, args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	tag := fs.String("tag", "", "batch tag to ingest under (required)")
	fs.Parse(args)
	if *tag == "" || fs.NArg() == 0 {
		fail(fmt.Errorf("usage: hxfarm -store DIR ingest -tag TAG results.json..."))
	}
	total, partial := 0, 0
	for _, path := range fs.Args() {
		runs, err := s.IngestFile(*tag, path)
		if err != nil {
			fail(err)
		}
		total += len(runs)
		for _, r := range runs {
			if r.Partial {
				partial++
			}
		}
	}
	fmt.Printf("ingested %d runs under tag %q\n", total, *tag)
	if partial > 0 {
		fmt.Printf("%d runs carry salvaged (partial) traces\n", partial)
	}
}

func cmdLs(s *farm.Store, args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	tag := fs.String("tag", "", "restrict to one batch tag")
	fs.Parse(args)
	runs, err := s.Runs(*tag)
	if err != nil {
		fail(err)
	}
	for _, r := range runs {
		trace := "-"
		if r.Result.TracePath != "" {
			trace = r.Result.TracePath
		}
		if r.Partial {
			trace += " (partial)"
		}
		fmt.Printf("%s  %-12s %-28s %8.1f Mb/s  %s\n",
			r.ID, r.Tag, r.Result.Scenario.Name, r.Result.AchievedMbps, trace)
	}
	fmt.Fprintf(os.Stderr, "%d runs\n", len(runs))
}

func cmdDiff(s *farm.Store, args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	base := fs.String("base", "", "baseline batch tag (required)")
	next := fs.String("new", "", "candidate batch tag (required)")
	metric := fs.String("metric", "achieved_mbps", fmt.Sprintf("metric to compare %v", farm.Metrics()))
	threshold := fs.Float64("threshold", 0, "only list regressions of at least this percent (0 = list every pair)")
	fs.Parse(args)
	if *base == "" || *next == "" {
		fail(fmt.Errorf("usage: hxfarm -store DIR diff -base TAG -new TAG [-metric M] [-threshold PCT]"))
	}
	rep, err := s.Diff(*base, *next, *metric)
	if err != nil {
		fail(err)
	}
	entries := rep.Entries
	if *threshold > 0 {
		entries = rep.Regressions(*threshold)
	}
	for _, e := range entries {
		pct := fmt.Sprintf("%+.2f%%", e.Pct)
		if math.IsNaN(e.Pct) {
			pct = "n/a"
		}
		fmt.Printf("%-28s %s: %.4g -> %.4g (%s)\n", e.Scenario, e.Metric, e.Base, e.New, pct)
	}
	for _, name := range rep.BaseOnly {
		fmt.Fprintf(os.Stderr, "hxfarm: %s only in %q\n", name, *base)
	}
	for _, name := range rep.NewOnly {
		fmt.Fprintf(os.Stderr, "hxfarm: %s only in %q\n", name, *next)
	}
	if *threshold > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d scenarios regressed %s by >= %g%%\n",
			len(entries), len(rep.Entries), *metric, *threshold)
		if len(entries) > 0 {
			os.Exit(1)
		}
	}
}

func cmdQuery(s *farm.Store, args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	tag := fs.String("tag", "", "restrict to one batch tag")
	jobs := fs.Int("j", 0, "concurrent trace scans (0 = GOMAXPROCS)")
	budget := fs.Int64("budget", 0, "per-trace decoded-segment LRU budget in bytes (0 = default)")
	doReplay := fs.Bool("replay", false, "re-execute each matched run to its point of interest (verifies the landing)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("usage: hxfarm -store DIR query [flags] 'frame_gap>=2ms'"))
	}
	pred, err := farm.ParsePredicate(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	rep, err := s.Query(ctx, pred, farm.QueryOptions{Tag: *tag, Jobs: *jobs, Budget: *budget})
	if err != nil {
		fail(err)
	}
	for _, m := range rep.Matches {
		fmt.Printf("%s  %-28s instr %d cycle %d: %s\n",
			m.Run.ID, m.Run.Result.Scenario.Name, m.Point.Instr, m.Point.Cycle, m.Point.Detail)
		if *doReplay {
			if err := seekMatch(m, *budget); err != nil {
				fail(fmt.Errorf("replaying match %s: %w", m.Run.ID, err))
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%d of %d scanned runs match %s (%d without traces skipped)\n",
		len(rep.Matches), rep.Scanned, pred, rep.Skipped)
}

// seekMatch rebuilds the matched run's machine from its trace and
// re-executes it to the point of interest — the "pre-seeked to the bug"
// half of the farm's answer.
func seekMatch(m farm.Match, budget int64) error {
	src, err := replay.OpenSourceFile(m.Run.Result.TracePath, budget)
	if err != nil {
		return err
	}
	defer src.Close()
	rt, err := lvmm.ReplaySource(src)
	if err != nil {
		return err
	}
	rp := rt.Replayer()
	if err := rp.SeekInstr(m.Point.Instr); err != nil {
		return err
	}
	if err := rp.Err(); err != nil {
		return err
	}
	fmt.Printf("    seeked: instr %d cycle %d pc=%08x\n",
		rp.Position(), rt.Machine().Clock(), rt.Machine().CPU.PC)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hxfarm -store DIR <command> [args]

commands:
  ingest -tag TAG results.json...   store an hxfleet -out artifact as a batch
  ls [-tag TAG]                     list stored runs
  diff -base TAG -new TAG           compare a metric across two batches
       [-metric M] [-threshold PCT]
  query [-tag TAG] [-j N] [-budget BYTES] [-replay] PREDICATE
                                    scan recorded timelines for a predicate
                                    (frame_gap>=2ms, irq_gap>=500000, frames<100, ...)`)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hxfarm:", err)
	os.Exit(1)
}
