// Package replay implements deterministic record/replay and time-travel
// debugging for the simulated target machine.
//
// The machine is fully deterministic modulo its external inputs: the
// virtual clock, the heap-ordered event queue, and the device models all
// advance as pure functions of machine state. A Recorder therefore only
// has to log (a) the inputs that cross the VMM boundary from outside —
// bytes arriving on the communication/console UARTs — and (b) a
// *verification* timeline of internally-generated nondeterminism-sensitive
// occurrences (physical interrupt deliveries with their cycle timestamps,
// virtual-timer firings, frames leaving the NIC), plus periodic snapshots.
// A Replayer re-executes the run bit-identically from the trace (or from
// the nearest snapshot), checking every occurrence against the recorded
// timeline so any divergence is detected at the first deviating interrupt
// or frame rather than at the end of the run.
//
// Traces persist in a streaming, segmented container (TraceVersion 3, see
// segment.go): the recorder flushes self-delimiting gzip-framed segments —
// event batches, keyframe snapshots, delta snapshots of only the RAM pages
// dirtied since the previous checkpoint — to an io.Writer as recording
// proceeds, so resident memory stays proportional to one segment rather
// than the whole run, and a seek index is written as a footer. A trace
// exists only as those bytes: NewLazyTrace is the one opener, and a
// monolithic v2 file is transcoded to v3 there, so it replays on the
// same reader.
//
// On top of seekable replay the package implements time travel: reverse-
// step and reverse-continue restore the nearest snapshot and re-execute
// forward to the target instruction count, locating breakpoint and
// watchpoint crossings with non-perturbing spy hooks (see cpu.SetSpyWatch)
// so the re-executed timeline stays cycle-identical to the recording.
//
// The design follows Oppitz's observation (AADEBUG 2003) that a VMM which
// already interposes on all nondeterministic inputs is the natural place
// to implement execution replay — and the incremental-checkpoint-plus-
// event-log shape of King et al.'s VM time-travel line — and keeps all
// machinery outside the guest, in the spirit of Fattori et al.'s
// out-of-guest analysis.
package replay

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"lvmm/internal/fault"
	"lvmm/internal/guest"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// TraceVersion is the current trace-format version (the streaming
// segmented container). Readers also accept traceVersionV2, the legacy
// monolithic gob blob, through the compatibility loader; anything else
// is rejected rather than misinterpreted.
const TraceVersion = 3

// traceVersionV2 is the legacy monolithic format (one gzip+gob blob).
const traceVersionV2 = 2

// traceMagic identifies a trace file.
const traceMagic = "LVMMTRC\n"

// headerLen is the size of the file header: traceMagic followed by the
// format version as a little-endian uint16.
const headerLen = len(traceMagic) + 2

// parseHeader is the one check of a trace file header. It returns the
// format version, which is TraceVersion or traceVersionV2: any other
// version is refused here, so callers dispatch on the result.
func parseHeader(hdr []byte) (int, error) {
	if len(hdr) < headerLen || string(hdr[:len(traceMagic)]) != traceMagic {
		return 0, fmt.Errorf("replay: not a trace file")
	}
	ver := int(binary.LittleEndian.Uint16(hdr[len(traceMagic):]))
	if ver != TraceVersion && ver != traceVersionV2 {
		return 0, fmt.Errorf("replay: trace version %d, want %d (or legacy %d)",
			ver, TraceVersion, traceVersionV2)
	}
	return ver, nil
}

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvIRQ is a physical interrupt delivery (verification event).
	EvIRQ EventKind = 1
	// EvTimer is a virtual-PIT tick fired by the monitor (verification).
	EvTimer EventKind = 2
	// EvFrame is a frame leaving the NIC; Digest hashes its bytes
	// (verification).
	EvFrame EventKind = 3
	// EvInput is external bytes arriving on a UART (true input; re-injected
	// on replay). Chan 0 is the debug channel, 1 the guest console.
	EvInput EventKind = 4
	// EvFault is an injected fault firing (verification): Line carries the
	// fault.Kind code, Chan the device unit, Digest the fault ordinal (or
	// cycle, for spurious IRQs). Faults re-inject deterministically from
	// the plan in TraceMeta; the event pins that the replayed injection
	// happened at the recorded timeline position.
	EvFault EventKind = 5
)

func (k EventKind) String() string {
	switch k {
	case EvIRQ:
		return "irq"
	case EvTimer:
		return "vtimer"
	case EvFrame:
		return "frame"
	case EvInput:
		return "input"
	case EvFault:
		return "fault"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timeline entry: something nondeterminism-relevant that
// happened at (Cycle, Instr).
type Event struct {
	Kind   EventKind
	Cycle  uint64
	Instr  uint64
	Line   uint8  // EvIRQ: interrupt line
	Chan   uint8  // EvInput: UART channel
	Digest uint64 // EvFrame: FNV-64a of the frame bytes
	Data   []byte // EvInput: the injected bytes
}

// Checkpoint is a snapshot at a trace position. EventIndex is the number
// of trace events recorded before the snapshot was taken, so a restore
// can realign the replay cursors.
//
// Index is a stable identifier (recording order for recorded
// checkpoints; live checkpoints inserted during a replay session get
// fresh ids) — it is NOT the slice position, which shifts as live
// checkpoints are inserted. Delta checkpoints reference their base
// through that stable id.
type Checkpoint struct {
	Index      int
	Instr      uint64
	Cycle      uint64
	EventIndex int

	Machine *machine.Snapshot
	VMM     *vmm.Snapshot // nil when no monitor is attached (bare metal)
	HasRecv bool
	Recv    netsim.ReceiverState

	// Delta marks a delta checkpoint: Machine.RAM holds only the pages
	// dirtied since the checkpoint whose Index is Base. Restoring one
	// walks its chain newest member first, down to the keyframe, each
	// page taking its content from the newest member holding it.
	// Keyframes (and every v2 checkpoint) have Delta false.
	Delta bool
	Base  int
}

// TraceMeta describes how to rebuild the recorded target.
type TraceMeta struct {
	Version  int
	Platform int // lvmm.Platform value
	Params   guest.Params
	// Seed selects the deterministic volume pattern of the streaming
	// target's disks (fleet scenarios); 0 is the default volume.
	Seed  uint64
	Label string
	// Custom marks traces of hand-built machines (not the standard
	// streaming target); the caller must reconstruct the machine itself
	// before attaching a Replayer.
	Custom bool
	// Fault is the fault plan the recorded machine ran under (nil for a
	// clean run). Replay re-installs it so injected faults re-fire
	// deterministically; the EvFault events verify they did.
	Fault *fault.Plan
	// Salvaged marks a trace recovered from a truncated container by
	// SalvageTrace: its end seal is synthesized (see salvage.go), so
	// replay verifies the event timeline but not the final digest.
	Salvaged bool
}

// Trace is a recorded run held in memory, the input of Write, the one
// sequential container writer. A decoded v2 blob, a timeline built by
// hand, and the reference the async recording pipeline is checked
// against all take this form; a recording itself never does, since the
// Recorder streams the container and replay opens the bytes.
type Trace struct {
	Meta        TraceMeta
	Events      []Event
	Checkpoints []Checkpoint

	// End-of-recording state, for replay verification.
	EndCycle  uint64
	EndInstr  uint64
	EndReason int // machine.StopReason when recording stopped
	EndDigest uint64
}

// cpLite is the slice of checkpoint state the chain validator needs.
type cpLite struct {
	Index, Base int
	Delta       bool
	Instr       uint64
}

// checkChains is the one checkpoint-chain validator: ids are unique, and
// every delta's base chain resolves strictly backwards on the timeline
// and terminates in a keyframe, so a restore can neither walk off the
// trace nor resolve a base to the wrong checkpoint at seek time.
// Salvage runs it over the checkpoints its scan kept; an opened trace
// gets the same guarantees from NewSegmentReader (unique ids) and from
// the replayer's chain walk (bases earlier on the timeline).
func checkChains(cps []cpLite) error {
	byIdx := make(map[int]int, len(cps))
	for i, cp := range cps {
		if _, dup := byIdx[cp.Index]; dup {
			return fmt.Errorf("duplicate checkpoint index %d", cp.Index)
		}
		byIdx[cp.Index] = i
	}
	for _, cp := range cps {
		seen := 0
		cur := cp
		for cur.Delta {
			b, ok := byIdx[cur.Base]
			if !ok {
				return fmt.Errorf("checkpoint %d's base %d is missing", cur.Index, cur.Base)
			}
			base := cps[b]
			if base.Instr > cur.Instr || base.Index == cur.Index {
				return fmt.Errorf("checkpoint %d's base %d is not earlier on the timeline", cur.Index, cur.Base)
			}
			cur = base
			if seen++; seen > len(cps) {
				return fmt.Errorf("delta checkpoint chain does not terminate")
			}
		}
	}
	return nil
}

// Write serializes the trace in the current (v3) segmented format:
// header, meta segment, event batches and checkpoints interleaved in
// timeline order, end segment, seek index, trailer. Every write error —
// including the deferred ones gzip surfaces only at Close — propagates;
// a nil return means the full container reached w.
func (t *Trace) Write(w io.Writer) error {
	sw, err := newSegWriter(w)
	if err != nil {
		return err
	}
	meta := t.Meta
	meta.Version = TraceVersion
	if err := sw.writeSegment(segMeta, meta, decoNone()); err != nil {
		return err
	}
	written := 0
	writeBatchesTo := func(limit int) error {
		for written < limit {
			n := limit - written
			if n > DefaultEventBatch {
				n = DefaultEventBatch
			}
			batch := t.Events[written : written+n]
			if err := sw.writeSegment(segEvents, batch, decoEvents(batch)); err != nil {
				return err
			}
			written += n
		}
		return nil
	}
	for i := range t.Checkpoints {
		cp := &t.Checkpoints[i]
		limit := cp.EventIndex
		if limit > len(t.Events) {
			limit = len(t.Events)
		}
		if err := writeBatchesTo(limit); err != nil {
			return err
		}
		kind := segKeyframe
		if cp.Delta {
			kind = segDelta
		}
		if err := sw.writeSegment(kind, cp, decoCheckpoint(cp)); err != nil {
			return err
		}
	}
	if err := writeBatchesTo(len(t.Events)); err != nil {
		return err
	}
	if err := sw.writeSegment(segEnd, traceEnd{
		EndCycle: t.EndCycle, EndInstr: t.EndInstr,
		EndReason: t.EndReason, EndDigest: t.EndDigest,
	}, decoNone()); err != nil {
		return err
	}
	return sw.finish()
}

// readTraceV2 is the compatibility loader for the monolithic format,
// reading the blob that follows the header. Old checkpoints are all
// full snapshots (Delta decodes as false) whose Index already equals
// their position, so they drop straight into a Trace that Write
// transcodes to v3.
func readTraceV2(r io.Reader, t *Trace) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("replay: trace payload: %w", err)
	}
	defer zr.Close()
	// A whole v2 trace decodes as one blob, so the bomb cap is the sum a
	// legitimate trace can reach (many full-RAM checkpoints), not one
	// segment's worth.
	lr := &io.LimitedReader{R: zr, N: 1 << 30}
	if err := gob.NewDecoder(lr).Decode(t); err != nil {
		if lr.N <= 0 {
			return fmt.Errorf("replay: v2 trace decodes past the %d-byte bound", int64(1)<<30)
		}
		return fmt.Errorf("replay: decoding trace: %w", err)
	}
	if t.Meta.Version != traceVersionV2 {
		return fmt.Errorf("replay: trace meta version %d, want %d", t.Meta.Version, traceVersionV2)
	}
	return nil
}

// ReadTraceMetaFile reads only a trace's metadata. A v3 container puts
// the meta segment first, so this costs one small segment decode
// however large the file is — and works on truncated files whose tail
// is gone, which is what farm ingest needs to mark salvaged traces. A
// v2 monolithic blob has no segments and must decode fully.
func ReadTraceMetaFile(path string) (TraceMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceMeta{}, err
	}
	defer f.Close()
	magic := make([]byte, headerLen)
	if _, err := io.ReadFull(f, magic); err != nil {
		return TraceMeta{}, fmt.Errorf("replay: reading trace header: %w", err)
	}
	ver, err := parseHeader(magic)
	if err != nil {
		return TraceMeta{}, err
	}
	if ver == TraceVersion {
		var hdr [9]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return TraceMeta{}, fmt.Errorf("replay: truncated trace: %w", err)
		}
		if hdr[0] != segMeta {
			return TraceMeta{}, fmt.Errorf("replay: first segment is %s, want meta", segKindName(hdr[0]))
		}
		n := binary.LittleEndian.Uint64(hdr[1:])
		if n > maxSegmentPayload {
			return TraceMeta{}, fmt.Errorf("replay: meta segment claims %d payload bytes", n)
		}
		body, err := readBody(f, n)
		if err != nil {
			return TraceMeta{}, fmt.Errorf("replay: truncated meta segment: %w", err)
		}
		var meta TraceMeta
		if err := decodeSegment(body, &meta); err != nil {
			return TraceMeta{}, fmt.Errorf("replay: decoding trace meta: %w", err)
		}
		return meta, nil
	}
	var t Trace
	if err := readTraceV2(f, &t); err != nil {
		return TraceMeta{}, err
	}
	return t.Meta, nil
}
