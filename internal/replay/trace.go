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
// than the whole run, and a seek index is written as a footer. Monolithic
// v2 traces remain readable through the compatibility loader.
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
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
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
	// materializes its keyframe and applies the delta chain in order.
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

// Trace is a complete recorded run held in memory: what ReadTrace loads
// and what NewRecorder's Finish returns (its own stream, read back).
// Replaying one goes through the same lazy reader a trace file does —
// see Lazy.
type Trace struct {
	Meta        TraceMeta
	Events      []Event
	Checkpoints []Checkpoint

	// End-of-recording state, for replay verification.
	EndCycle  uint64
	EndInstr  uint64
	EndReason int // machine.StopReason at Finish time
	EndDigest uint64

	// Segments is the seek index of the container the trace was loaded
	// from (offsets, kinds, on-disk sizes). Empty for v2 files and for
	// traces built by hand.
	Segments []SegmentInfo
}

// StartInstr returns the instruction count at the beginning of the trace.
func (t *Trace) StartInstr() uint64 {
	if len(t.Checkpoints) == 0 {
		return 0
	}
	return t.Checkpoints[0].Instr
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
// Resident traces run it over all their checkpoints, salvage over the
// ones its scan kept.
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

// validateChains runs checkChains over the trace's checkpoints.
func (t *Trace) validateChains() error {
	cps := make([]cpLite, len(t.Checkpoints))
	for i := range t.Checkpoints {
		cp := &t.Checkpoints[i]
		cps[i] = cpLite{Index: cp.Index, Base: cp.Base, Delta: cp.Delta, Instr: cp.Instr}
	}
	if err := checkChains(cps); err != nil {
		return fmt.Errorf("replay: %w", err)
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

// ReadTrace deserializes a trace written by Write (v3) or by the legacy
// v2 writer.
func ReadTrace(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("replay: reading trace: %w", err)
	}
	return readTraceAt(bytes.NewReader(data), int64(len(data)))
}

// ReadTraceFile loads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readTraceAt(f, fi.Size())
}

// readTraceAt loads a whole trace. A v3 container decodes every indexed
// segment through SegmentReader — the lazy replay path's decoder, so a
// resident trace and a lazily opened one cannot disagree about a byte.
func readTraceAt(ra io.ReaderAt, size int64) (*Trace, error) {
	hdr := make([]byte, len(traceMagic)+2)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("replay: reading trace header: %w", err)
	}
	if string(hdr[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("replay: not a trace file")
	}
	var t Trace
	switch ver := int(hdr[len(traceMagic)]) | int(hdr[len(traceMagic)+1])<<8; ver {
	case TraceVersion:
		sr, err := NewSegmentReader(ra, size)
		if err != nil {
			return nil, err
		}
		t.Meta, t.Segments = sr.meta, sr.segs
		t.EndCycle, t.EndInstr, t.EndReason, t.EndDigest = sr.End()
		for i, si := range sr.segs {
			switch {
			case si.IsEvents():
				batch, err := sr.DecodeEvents(i)
				if err != nil {
					return nil, err
				}
				t.Events = append(t.Events, batch...)
			case si.IsSnapshot():
				cp, err := sr.DecodeCheckpoint(i)
				if err != nil {
					return nil, err
				}
				t.Checkpoints = append(t.Checkpoints, *cp)
			}
		}
	case traceVersionV2:
		body := io.NewSectionReader(ra, int64(len(hdr)), size-int64(len(hdr)))
		if err := readTraceV2(body, &t); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("replay: trace version %d, want %d (or legacy %d)",
			ver, TraceVersion, traceVersionV2)
	}
	if len(t.Checkpoints) == 0 {
		return nil, fmt.Errorf("replay: trace has no checkpoints")
	}
	if err := t.validateChains(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Lazy re-encodes the trace with Write and opens the bytes through the
// seek-index reader with an unbounded cache, the form every replay runs
// on. Delta chains are validated first, since the lazy reader only
// checks a chain when a restore walks it.
func (t *Trace) Lazy() (*LazyTrace, error) { return t.lazy(math.MaxInt64) }

func (t *Trace) lazy(budget int64) (*LazyTrace, error) {
	if err := t.validateChains(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, err
	}
	return NewLazyTrace(bytes.NewReader(buf.Bytes()), int64(buf.Len()), budget)
}

// readTraceV2 is the compatibility loader for the monolithic format.
// Old checkpoints are all full snapshots (Delta decodes as false) whose
// Index already equals their position, so they drop straight into the
// v3 in-memory representation.
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
	t.Segments = nil
	return nil
}

// WriteFile saves the trace to path, propagating write and close errors
// (a short write anywhere — including at Close, where buffered bytes
// land — fails the save instead of leaving a silently truncated trace).
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	magic := make([]byte, len(traceMagic)+2)
	if _, err := io.ReadFull(f, magic); err != nil {
		return TraceMeta{}, fmt.Errorf("replay: reading trace header: %w", err)
	}
	if string(magic[:len(traceMagic)]) != traceMagic {
		return TraceMeta{}, fmt.Errorf("replay: not a trace file")
	}
	ver := int(magic[len(traceMagic)]) | int(magic[len(traceMagic)+1])<<8
	switch ver {
	case TraceVersion:
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
	case traceVersionV2:
		var t Trace
		if err := readTraceV2(f, &t); err != nil {
			return TraceMeta{}, err
		}
		return t.Meta, nil
	}
	return TraceMeta{}, fmt.Errorf("replay: trace version %d, want %d (or legacy %d)",
		ver, TraceVersion, traceVersionV2)
}
