package bench

import (
	"strings"
	"testing"
)

// tracesText is `go tool pprof -traces` output in the shape the tool
// prints it: a header, then one block per distinct stack, leaf first.
const tracesText = `File: lvmmbench
Type: cpu
Time: 2026-10-16 02:13:17 UTC
Duration: 1.60s, Total samples = 1.42s (88.49%)
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             lvmm/internal/cpu.(*CPU).ReadVirt
             lvmm/internal/vmm.(*VMM).inject
             lvmm/internal/vmm.(*VMM).divert
             lvmm/internal/cpu.(*CPU).BurstRun
             lvmm/internal/machine.(*Machine).runBurst
             lvmm/internal/machine.(*Machine).Run
             lvmm/bench.(*streamSession).op
-----------+-------------------------------------------------------
     1.01s   lvmm/internal/netsim.FillPatternSeeded (inline)
             lvmm/internal/machine.NewStreamingSeeded.func1
             lvmm/internal/hw/scsi.(*HBA).complete
             lvmm/internal/hw/scsi.(*HBA).armCompletion.func1
             lvmm/internal/machine.(*Machine).fireDue
             lvmm/internal/machine.(*Machine).Run
             lvmm/bench.(*streamSession).op
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	stacks, err := parseTraces(strings.NewReader(tracesText))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("parsed %d stacks, want 2", len(stacks))
	}
	if stacks[0].ms != 20 || stacks[1].ms != 1010 {
		t.Errorf("sample values %v ms and %v ms, want 20 and 1010", stacks[0].ms, stacks[1].ms)
	}
	if f := stacks[1].frames; len(f) != 7 || f[0] != "lvmm/internal/netsim.FillPatternSeeded" {
		t.Errorf("second stack frames %q", f)
	}
	got := layerMs(stacks)
	if got["vmm"] != 20 || got["netsim.fill"] != 1010 {
		t.Errorf("layer ms %v", got)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		name   string
		want   string
		frames []string // leaf first
	}{
		{"a monitor's guest-memory read belongs to the monitor", "vmm", []string{
			"runtime.memmove",
			"lvmm/internal/cpu.(*CPU).ReadVirt",
			"lvmm/internal/vmm.(*VMM).inject",
			"lvmm/internal/vmm.(*VMM).divert",
			"lvmm/internal/cpu.(*CPU).BurstRun",
			"lvmm/internal/machine.(*Machine).runBurst",
			"lvmm/internal/machine.(*Machine).Run",
		}},
		{"disk content generated under a SCSI completion", "netsim.fill", []string{
			"lvmm/internal/netsim.FillPatternSeeded",
			"lvmm/internal/machine.NewStreamingSeeded.func1",
			"lvmm/internal/hw/scsi.(*HBA).complete",
			"lvmm/internal/hw/scsi.(*HBA).armCompletion.func1",
			"lvmm/internal/machine.(*Machine).fireDue",
			"lvmm/internal/machine.(*Machine).Run",
		}},
		{"a replay's forward run is guest execution", "cpu", []string{
			"lvmm/internal/cpu.(*CPU).BurstRun",
			"lvmm/internal/machine.(*Machine).runBurst",
			"lvmm/internal/machine.(*Machine).Run",
			"lvmm/internal/replay.(*Replayer).forwardTo",
			"lvmm/internal/replay.(*Replayer).SeekInstr",
			"lvmm/bench.(*ttSession).op",
		}},
		{"the async encoder goroutine", "replay.rec", []string{
			"compress/flate.(*compressor).deflate",
			"compress/flate.(*compressor).write",
			"compress/gzip.(*Writer).Write",
			"encoding/gob.(*Encoder).Encode",
			"lvmm/internal/replay.encodeSegment",
			"lvmm/internal/replay.(*asyncSegWriter).encoder",
			"runtime.goexit",
		}},
		{"NIC DMA reads belong to the device", "hw", []string{
			"runtime.memmove",
			"lvmm/internal/bus.(*Bus).DMARead",
			"lvmm/internal/hw/nic.(*NIC).complete",
			"lvmm/internal/machine.(*Machine).fireDue",
			"lvmm/internal/machine.(*Machine).Run",
		}},
		{"CPU state restored for a seek", "machine.snap", []string{
			"lvmm/internal/cpu.(*CPU).Restore",
			"lvmm/internal/machine.(*Machine).restoreState",
			"lvmm/internal/machine.(*Machine).Restore",
			"lvmm/internal/replay.(*Replayer).restoreCheckpoint",
			"lvmm/internal/replay.(*Replayer).ReverseStep",
		}},
		{"a digest taken by the replayer", "replay.replay", []string{
			"lvmm/internal/replay.fnvSparse",
			"lvmm/internal/replay.Digest",
			"lvmm/internal/replay.(*Replayer).RunToEnd",
		}},
		{"a segment decode", "replay.seg", []string{
			"compress/flate.(*decompressor).huffmanBlock",
			"lvmm/internal/replay.decodeSegment",
			"lvmm/internal/replay.(*SegmentReader).decodeAt",
			"lvmm/internal/replay.(*LazyTrace).Checkpoint",
			"lvmm/internal/replay.(*Replayer).restoreCheckpoint",
		}},
		{"the page-table loader writes through the bus", "cpu", []string{
			"lvmm/internal/cpu.(*CPU).dcInvalidate",
			"lvmm/internal/bus.(*Bus).Write32",
			"lvmm/internal/guest.BuildPageTables",
			"lvmm/internal/guest.Prepare",
		}},
		{"the fleet worker", "fleet", []string{
			"runtime.mallocgc",
			"lvmm/internal/fleet.RunOne",
			"lvmm/internal/fleet.Runner.ForEach.func2",
		}},
		{"the benchmark's own loop", "other", []string{
			"runtime.mallocgc",
			"lvmm/bench.runChild",
			"main.main",
		}},
		{"garbage collection", "runtime", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
		}},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attributed to %s, want %s", c.name, got, c.want)
		}
	}
}
