// hxreplay records, replays, inspects, and diffs deterministic execution
// traces of the simulated target (see internal/replay).
//
//	hxreplay record -o run.trc [-platform lightweight] [-rate 200] [-seconds 0.5]
//	hxreplay replay run.trc
//	hxreplay info   run.trc
//	hxreplay diff   a.trc b.trc
//
// `record` runs the streaming workload under the chosen platform while
// recording; `replay` re-executes the trace bit-identically and verifies
// every interrupt, timer tick, frame digest, and the final state; `diff`
// locates the first timeline divergence between two traces of nominally
// identical runs — the crash-triage primitive: record a good and a bad
// run, diff them, and the first deviating event names the cycle where the
// executions parted ways.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lvmm"
	"lvmm/internal/isa"
	"lvmm/internal/replay"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "salvage":
		err = cmdSalvage(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hxreplay:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hxreplay record -o FILE [-platform P] [-rate MBPS] [-seconds S]
                  [-snap-interval CYCLES] [-keyframe-every N]
  hxreplay replay FILE
  hxreplay info   FILE
  hxreplay diff   FILE1 FILE2
  hxreplay salvage FILE [-o OUT]`)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "run.trc", "output trace file")
	platform := fs.String("platform", "lightweight", "platform: bare, lightweight, hosted")
	rate := fs.Float64("rate", 200, "offered rate (Mb/s)")
	seconds := fs.Float64("seconds", 0.5, "virtual run length")
	snapInterval := fs.Uint64("snap-interval", 0, "snapshot spacing in cycles (0 = default)")
	keyframeEvery := fs.Int("keyframe-every", 0, "full keyframe every N snapshots, deltas between (0 = default, 1 = no deltas)")
	fs.Parse(args)

	p, err := lvmm.ParsePlatform(*platform)
	if err != nil {
		return err
	}
	w := lvmm.WorkloadDefaults(*rate)
	w.Seconds = *seconds
	t, err := lvmm.NewStreamingTarget(p, w)
	if err != nil {
		return err
	}
	opts := lvmm.RecordOptions{SnapshotInterval: *snapInterval, KeyframeEvery: *keyframeEvery}

	// Segments flush to the file as the run proceeds; recorder memory
	// stays bounded by one event batch plus one snapshot however long the
	// recording runs.
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	rec, err := t.RecordStream(f, opts)
	if err != nil {
		f.Close()
		return err
	}
	stats, runErr := t.Run()
	sstats, recErr := rec.FinishStream()
	if cerr := f.Close(); recErr == nil {
		recErr = cerr
	}
	if runErr != nil {
		return runErr
	}
	if recErr != nil {
		return recErr
	}
	fmt.Println(stats)
	fmt.Printf("recorded %d events in %d segments (%d keyframes, %d deltas), %d cycles, %d instructions -> %s (%d bytes)\n",
		sstats.Events, sstats.Segments, sstats.Keyframes, sstats.Deltas,
		sstats.EndCycle, sstats.EndInstr, *out, sstats.BytesWritten)
	fmt.Printf("final state digest %#016x\n", sstats.EndDigest)
	return nil
}

func cmdReplay(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: hxreplay replay FILE")
	}
	// v3 traces open lazily through the seek index: the replay session
	// holds O(LRU budget) of trace data however large the file is. v2
	// monolithic traces have no index and are transcoded in memory.
	src, err := replay.OpenSourceFile(args[0], 0)
	if err != nil {
		return enrichOpenError(args[0], err)
	}
	defer src.Close()
	rt, err := lvmm.ReplaySource(src)
	if err != nil {
		return err
	}
	stats, err := rt.Run()
	if err != nil {
		return err
	}
	endCycle, _, _, endDigest := src.End()
	fmt.Println(stats)
	if src.Meta().Salvaged {
		fmt.Printf("salvaged replay verified: all %d recovered events re-executed at their recorded positions (no end seal to check)\n",
			src.NumEvents())
		return nil
	}
	fmt.Printf("replay verified bit-identical: %d events, final digest %#016x at cycle %d\n",
		src.NumEvents(), endDigest, endCycle)
	return nil
}

// enrichOpenError turns an open failure on a damaged v3 container into
// an actionable message: where the file stops being readable, what the
// last intact segment was, and that `hxreplay salvage` can recover the
// prefix. Failures that are not damage (missing file, not a trace)
// pass through untouched.
func enrichOpenError(path string, err error) error {
	p, perr := replay.ProbeTraceFile(path)
	if perr != nil || p.Complete {
		return err
	}
	msg := fmt.Sprintf("%v\n  %s is damaged: %s at byte offset %d", err, path, p.Damage, p.TruncatedAt)
	if p.LastSegment != "" {
		msg += fmt.Sprintf(" (last intact segment: %s)", p.LastSegment)
	}
	msg += fmt.Sprintf("\n  intact prefix: %d segments, %d events, %d checkpoints", p.Segments, p.Events, p.Checkpoints)
	if p.Salvageable() {
		msg += fmt.Sprintf("\n  run `hxreplay salvage %s -o recovered.trc` to recover the replayable prefix", path)
	} else {
		msg += "\n  nothing salvageable: the damage precedes the first checkpoint"
	}
	return fmt.Errorf("%s", msg)
}

func cmdSalvage(args []string) error {
	fs := flag.NewFlagSet("salvage", flag.ExitOnError)
	out := fs.String("o", "", "output path (default: FILE with a .salvaged.trc suffix)")
	// Accept the file before or after the flags — the enriched
	// truncation error suggests `hxreplay salvage FILE -o OUT`.
	var src string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		src = args[0]
		fs.Parse(args[1:])
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: hxreplay salvage FILE [-o OUT]")
		}
	} else {
		fs.Parse(args)
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: hxreplay salvage FILE [-o OUT]")
		}
		src = fs.Arg(0)
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(src, ".trc") + ".salvaged.trc"
	}
	stats, err := replay.SalvageTraceFile(src, dst)
	if err != nil {
		return err
	}
	if stats.Sealed {
		fmt.Printf("input was complete; %s is a faithful rewrite (%d segments, %d events, %d checkpoints)\n",
			dst, stats.SegmentsKept, stats.Events, stats.Checkpoints)
		return nil
	}
	fmt.Printf("salvaged %d segments (%d events, %d checkpoints) -> %s\n",
		stats.SegmentsKept, stats.Events, stats.Checkpoints, dst)
	fmt.Printf("input damage: %s at byte offset %d\n", stats.Damage, stats.TruncatedAt)
	fmt.Printf("the output carries a synthesized end seal; replay verifies the recovered timeline only\n")
	return nil
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: hxreplay info FILE")
	}
	src, err := replay.OpenSourceFile(args[0], 0)
	if err != nil {
		return enrichOpenError(args[0], err)
	}
	defer src.Close()
	// A v2 file opens as an in-memory v3 transcode; its version, and so
	// whether the segment offsets below are file offsets, comes from the
	// file itself.
	fileMeta, err := replay.ReadTraceMetaFile(args[0])
	if err != nil {
		return err
	}
	m := src.Meta()
	endCycle, endInstr, _, endDigest := src.End()
	fmt.Printf("platform:    %v\n", lvmm.Platform(m.Platform))
	if m.Label != "" {
		fmt.Printf("label:       %s\n", m.Label)
	}
	if !m.Fault.Empty() {
		name := m.Fault.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Printf("fault plan:  %s (seed %d)\n", name, m.Fault.Seed)
	}
	if m.Salvaged {
		fmt.Printf("salvaged:    yes (end seal synthesized; replay verifies the recovered timeline only)\n")
	}
	fmt.Printf("workload:    %.0f Mb/s, %d ticks, %d-byte segments, %d-byte blocks\n",
		m.Params.RateMbps, m.Params.DurationTicks, m.Params.SegmentBytes, m.Params.BlockBytes)
	fmt.Printf("length:      %d cycles (%.1f ms virtual), %d instructions\n",
		endCycle, 1e3*float64(endCycle)/float64(isa.ClockHz), endInstr)
	fmt.Printf("end digest:  %#016x\n", endDigest)

	// All per-segment stats come from the seek index; only the event kind
	// breakdown needs payloads, decoded one batch at a time through the
	// reader (never cached) — info on a multi-GB trace stays O(largest
	// segment) resident.
	sr := src.Reader()
	segs := sr.Segments()
	counts := map[replay.EventKind]int{}
	events := 0
	for i, sg := range segs {
		if !sg.IsEvents() {
			continue
		}
		batch, err := sr.DecodeEvents(i)
		if err != nil {
			return err
		}
		events += len(batch)
		for _, ev := range batch {
			counts[ev.Kind]++
		}
	}
	fmt.Printf("events:      %d (irq %d, vtimer %d, frame %d, input %d, fault %d)\n", events,
		counts[replay.EvIRQ], counts[replay.EvTimer], counts[replay.EvFrame],
		counts[replay.EvInput], counts[replay.EvFault])

	// Checkpoints come from the always-resident metadata, so no snapshot
	// payload is materialized for the listing.
	keyframes := 0
	for i := 0; i < src.NumCheckpoints(); i++ {
		if !src.CheckpointMeta(i).Delta {
			keyframes++
		}
	}
	fmt.Printf("snapshots:   %d (%d keyframes, %d deltas)\n",
		src.NumCheckpoints(), keyframes, src.NumCheckpoints()-keyframes)
	for i := 0; i < src.NumCheckpoints(); i++ {
		cm := src.CheckpointMeta(i)
		kind := "keyframe"
		if cm.Delta {
			kind = "delta"
		}
		fmt.Printf("  #%-3d instr %-12d cycle %-14d %s\n", cm.Index, cm.Instr, cm.Cycle, kind)
	}

	if fileMeta.Version != replay.TraceVersion {
		fmt.Printf("segments:    none (v%d monolithic blob)\n", fileMeta.Version)
		return nil
	}
	fmt.Printf("segments:    %d\n", len(segs))
	for i, sg := range segs {
		detail := ""
		switch {
		case sg.IsEvents():
			detail = fmt.Sprintf("%d events from instr %d", sg.Events, sg.Instr)
		case sg.IsSnapshot():
			detail = fmt.Sprintf("checkpoint #%d at instr %d", sg.Checkpoint, sg.Instr)
		}
		fmt.Printf("  %-3d %-9s offset %-10d %8d bytes  %s\n",
			i, sg.KindName(), sg.Offset, sg.Bytes, detail)
	}
	return nil
}

// diffBudget is the segment cache each diffed trace gets. The cache
// always keeps its newest entry, so a one-byte budget holds exactly the
// event batch being compared: diff is O(segment) however long the
// traces are.
const diffBudget = 1

func cmdDiff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: hxreplay diff FILE1 FILE2")
	}
	return diffTraces(os.Stdout, args[0], args[1])
}

// diffTraces reports to w where the timelines of two trace files first
// part ways: every event field, input bytes included, then the end seal.
func diffTraces(w io.Writer, pathA, pathB string) error {
	a, err := replay.OpenSourceFile(pathA, diffBudget)
	if err != nil {
		return enrichOpenError(pathA, err)
	}
	defer a.Close()
	b, err := replay.OpenSourceFile(pathB, diffBudget)
	if err != nil {
		return enrichOpenError(pathB, err)
	}
	defer b.Close()

	n := min(a.NumEvents(), b.NumEvents())
	for i := 0; i < n; i++ {
		x, err := a.Event(i)
		if err != nil {
			return err
		}
		y, err := b.Event(i)
		if err != nil {
			return err
		}
		if x.Kind != y.Kind || x.Cycle != y.Cycle || x.Instr != y.Instr ||
			x.Line != y.Line || x.Chan != y.Chan || x.Digest != y.Digest ||
			!bytes.Equal(x.Data, y.Data) {
			fmt.Fprintf(w, "first divergence at event %d:\n", i)
			fmt.Fprintf(w, "  %s: %s\n", pathA, describeEvent(x))
			fmt.Fprintf(w, "  %s: %s\n", pathB, describeEvent(y))
			return nil
		}
	}
	if a.NumEvents() != b.NumEvents() {
		longer, extra := pathA, a.NumEvents()-b.NumEvents()
		if extra < 0 {
			longer, extra = pathB, -extra
		}
		fmt.Fprintf(w, "timelines identical for %d events; %s has %d more\n", n, longer, extra)
		return nil
	}
	aCycle, _, _, aDigest := a.End()
	bCycle, _, _, bDigest := b.End()
	if aDigest == bDigest && aCycle == bCycle {
		fmt.Fprintf(w, "traces are equivalent: %d events, final digest %#016x\n", n, aDigest)
		return nil
	}
	fmt.Fprintf(w, "event timelines identical; final digests differ: %#016x vs %#016x (cycle %d vs %d)\n",
		aDigest, bDigest, aCycle, bCycle)
	return nil
}

// describeEvent renders one timeline entry for a diff report.
func describeEvent(ev replay.Event) string {
	s := fmt.Sprintf("%v line=%d chan=%d cycle=%d instr=%d digest=%#x",
		ev.Kind, ev.Line, ev.Chan, ev.Cycle, ev.Instr, ev.Digest)
	if ev.Kind == replay.EvInput {
		s += fmt.Sprintf(" data=%q", ev.Data)
	}
	return s
}
