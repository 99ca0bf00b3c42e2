package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Layers are the host-time buckets of the per-layer breakdown, named
// after the modules they cover, in report order.
var Layers = []string{
	"cpu", "bus", "vmm", "hw", "netsim.fill", "netsim.recv",
	"machine", "machine.snap", "replay.rec", "replay.seg", "replay.replay",
	"fleet", "runtime", "other",
}

// stack is one distinct sampled call stack, leaf first, with the CPU
// time the profile attributes to it.
type stack struct {
	ms     float64
	frames []string
}

// profileTraces runs `go tool pprof -traces` on a CPU profile.
func profileTraces(path string) ([]stack, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then one block per distinct stack between separator lines, whose
// first line carries the sampled value before the leaf frame.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if cur == nil {
			if !strings.HasPrefix(line, " ") {
				continue // header lines before the first block
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			out = append(out, stack{ms: float64(d) / 1e6})
			cur = &out[len(out)-1]
			f = f[1:]
			if len(f) == 0 {
				continue
			}
		}
		if strings.HasSuffix(f[0], ":") {
			continue // a label line ("bytes: ...")
		}
		cur.frames = append(cur.frames, f[0])
	}
	return out, sc.Err()
}

// attribute applies the attribution rule to one stack (leaf first): walk
// from the leaf, skipping stdlib and runtime frames, and let the first
// lvmm frame claim the sample — except that a cpu or bus frame passes
// the claim outward when a vmm, hw, netsim or replay frame sits between
// it and the nearest enclosing machine.(*Machine).Run. A stack with no
// lvmm frame belongs to runtime.
func attribute(frames []string) string {
	for i, f := range frames {
		pkg, fn := splitFrame(f)
		switch {
		case pkg == "lvmm/internal/cpu" || pkg == "lvmm/internal/bus":
			if !passesOutward(frames[i+1:]) {
				return strings.TrimPrefix(pkg, "lvmm/internal/")
			}
		case pkg == "lvmm/internal/vmm":
			return "vmm"
		case isHW(pkg):
			return "hw"
		case pkg == "lvmm/internal/netsim":
			if strings.HasPrefix(fn, "FillPattern") || strings.HasPrefix(fn, "PatternByte") {
				return "netsim.fill"
			}
			return "netsim.recv"
		case pkg == "lvmm/internal/machine":
			if isSnapFunc(fn) {
				return "machine.snap"
			}
			return "machine"
		case pkg == "lvmm/internal/replay":
			return replayLayer(frames[i:])
		case pkg == "lvmm/internal/fleet":
			return "fleet"
		case pkg == "lvmm" || strings.HasPrefix(pkg, "lvmm/"):
			return "other"
		}
	}
	return "runtime"
}

func isHW(pkg string) bool {
	return pkg == "lvmm/internal/hw" || strings.HasPrefix(pkg, "lvmm/internal/hw/")
}

// passesOutward reports whether a vmm, hw, netsim or replay frame sits
// in outer (the frames enclosing a cpu or bus frame) before the nearest
// machine.(*Machine).Run.
func passesOutward(outer []string) bool {
	for _, f := range outer {
		pkg, fn := splitFrame(f)
		switch {
		case pkg == "lvmm/internal/machine" && fn == "(*Machine).Run":
			return false
		case pkg == "lvmm/internal/vmm", pkg == "lvmm/internal/netsim", pkg == "lvmm/internal/replay", isHW(pkg):
			return true
		}
	}
	return false
}

// isSnapFunc picks out the machine package's snapshot and restore code.
func isSnapFunc(fn string) bool {
	fn = strings.TrimPrefix(fn, "(*Machine).")
	for _, p := range []string{"Snapshot", "snapshot", "Restore", "restore", "ApplyRAMDelta", "allZero"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// replayLayer splits the replay package into its recorder, segment
// reader and replayer. A shared helper (digests, checkpoint search)
// belongs to the nearest enclosing replay frame that has a side; with
// none, to the recorder.
func replayLayer(frames []string) string {
	for _, f := range frames {
		pkg, fn := splitFrame(f)
		if pkg != "lvmm/internal/replay" {
			continue
		}
		if l := replaySide(fn); l != "" {
			return l
		}
	}
	return "replay.rec"
}

func replaySide(fn string) string {
	recv, name := "", fn
	if i := strings.Index(fn, ")."); strings.HasPrefix(fn, "(") && i >= 0 {
		recv, name = strings.Trim(fn[:i+1], "(*)"), fn[i+2:]
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i] // closures: F.func1
	}
	switch recv {
	case "Replayer":
		return "replay.replay"
	case "SegmentReader", "LazyTrace", "segLRU", "Trace", "traceSource":
		return "replay.seg"
	case "Recorder", "asyncSegWriter", "segWriter":
		return "replay.rec"
	}
	switch name {
	case "NewReplayer", "NewReplayerSource":
		return "replay.replay"
	case "NewSegmentReader", "NewLazyTrace", "OpenLazyTraceFile", "OpenSourceFile",
		"decodeSegment", "readBody", "readSegments", "eventsSize", "checkpointSize",
		"ReadTrace", "ReadTraceFile":
		return "replay.seg"
	case "NewRecorder", "NewStreamRecorder", "newRecorder", "newSegWriter",
		"newAsyncSegWriter", "encodeSegment":
		return "replay.rec"
	}
	return ""
}

// splitFrame splits a pprof function name such as
// "lvmm/internal/cpu.(*CPU).BurstRun" into its package path and the
// function within it.
func splitFrame(f string) (pkg, fn string) {
	slash := strings.LastIndexByte(f, '/')
	dot := strings.IndexByte(f[slash+1:], '.')
	if dot < 0 {
		return f, ""
	}
	dot += slash + 1
	return f[:dot], f[dot+1:]
}

// layerMs sums profile time per layer.
func layerMs(stacks []stack) map[string]float64 {
	out := make(map[string]float64, len(Layers))
	for _, s := range stacks {
		out[attribute(s.frames)] += s.ms
	}
	return out
}
