package replay

import (
	"io"

	"lvmm/internal/hw"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// Options parameterizes a recording.
type Options struct {
	// SnapshotInterval is the virtual-cycle spacing of periodic snapshots;
	// 0 selects DefaultSnapshotInterval. Smaller intervals make reverse
	// operations cheaper at the cost of trace size.
	SnapshotInterval uint64
	// MaxSnapshots caps the periodic snapshots taken (the initial
	// checkpoint is always present); 0 selects DefaultMaxSnapshots.
	MaxSnapshots int
	// KeyframeEvery makes every Nth checkpoint a full keyframe; the
	// checkpoints between are delta snapshots holding only the RAM pages
	// dirtied since their predecessor, which keeps long recordings small
	// while bounding a reverse seek's restore chain to N-1 delta
	// applications. 1 disables deltas (every checkpoint full); 0 selects
	// DefaultKeyframeEvery.
	KeyframeEvery int
	// EventBatch is the event count per streamed event segment; 0 selects
	// DefaultEventBatch. It is the recorder's resident-memory unit: the
	// streaming recorder never holds more than one batch of events.
	EventBatch int
}

// DefaultSnapshotInterval is ~79 ms of virtual time at 1.26 GHz.
const DefaultSnapshotInterval = 100_000_000

// DefaultMaxSnapshots bounds the checkpoint count for long runs.
const DefaultMaxSnapshots = 64

// DefaultKeyframeEvery is the keyframe cadence: checkpoint 0 and every
// 8th after it are full; the rest are delta snapshots.
const DefaultKeyframeEvery = 8

// DefaultEventBatch is the streamed event-segment size.
const DefaultEventBatch = 4096

// StreamStats summarizes a sealed streamed recording.
type StreamStats struct {
	// Segments is the data segment count (meta, events, snapshots, end);
	// the seek-index footer is framing and not counted, matching the
	// length of the index SegmentReader.Segments returns.
	Segments int
	// EventSegments / Keyframes / Deltas break the stream down.
	EventSegments int
	Keyframes     int
	Deltas        int
	// Events is the total recorded event count.
	Events int
	// BytesWritten is the sealed container's size.
	BytesWritten int64
	// MaxPendingEvents is the high-water mark of events resident in the
	// recorder between flushes — the O(segment) memory bound.
	MaxPendingEvents int
	// EndCycle/EndInstr/EndDigest mirror the end segment.
	EndCycle  uint64
	EndInstr  uint64
	EndDigest uint64
}

// Recorder captures a deterministic trace of a running machine. Create
// it with NewStreamRecorder with the machine in the state the trace
// should begin at (normally right after target construction, before the
// first Run), Start it, run the workload, then FinishStream.
//
// A recording streams the v3 container through the async segment
// pipeline to the caller's writer: each event batch and snapshot is
// handed to the pipeline as recording proceeds, so the recorder itself
// holds O(one event batch + one snapshot) however long the run is. To
// keep a trace in memory, record into a bytes.Buffer and open the bytes
// with NewLazyTrace.
//
// Recording is only deterministic when all external input is injected
// from the machine's own goroutine (batch runs, or debug sessions over
// the in-process deterministic transports). Recording a live TCP target,
// where a socket-reader goroutine injects UART bytes concurrently with
// execution, is not supported.
type Recorder struct {
	m    *machine.Machine
	v    *vmm.VMM         // nil on bare metal
	recv *netsim.Receiver // nil when no validating receiver is wired

	sw       *segWriter      // owned by aw until sealed
	aw       *asyncSegWriter // the segment pipeline; latches the stream error
	pend     []Event         // the current event batch
	batchLen int
	// held are copies of the frames whose EvFrame events in pend still
	// lack their digest; the fourth frame hashes all four in one pass
	// (see frame).
	held  [3]heldFrame
	nheld int

	interval  uint64
	maxSnaps  int
	keyEvery  int
	active    bool
	trackOwn  bool // this recorder enabled dirty tracking and must disable it
	cpCount   int  // checkpoints taken (stable Index source)
	evCount   int  // events recorded (EventIndex source)
	sinceKey  int  // checkpoints since the last keyframe
	lastIndex int  // stable Index of the previous checkpoint (delta base)

	stats StreamStats
}

// heldFrame is a copy of a transmitted frame waiting for its digest,
// and the pend index of its EvFrame event.
type heldFrame struct {
	at   int
	data []byte
}

// NewStreamRecorder prepares a recorder that writes the v3 segmented
// container straight to w: the header and meta segment immediately,
// event batches and snapshots as recording proceeds, and the end
// segment plus seek index at FinishStream. If w is also an io.Closer
// the caller still owns the Close (and must check its error — buffered
// short writes surface there).
//
// Serialization (gob + gzip + framing) runs on the pipelined async
// writer's encoders, which share the cores with the simulation. The
// simulation goroutine pays for the snapshot copies, the event stamps
// and the frame digests; a recording's FinishStream also waits for the
// encoders to drain the queue and hashes the end state (Digest).
func NewStreamRecorder(w io.Writer, m *machine.Machine, v *vmm.VMM, recv *netsim.Receiver, meta TraceMeta, opts Options) (*Recorder, error) {
	if opts.SnapshotInterval == 0 {
		opts.SnapshotInterval = DefaultSnapshotInterval
	}
	if opts.MaxSnapshots == 0 {
		opts.MaxSnapshots = DefaultMaxSnapshots
	}
	if opts.KeyframeEvery == 0 {
		opts.KeyframeEvery = DefaultKeyframeEvery
	}
	if opts.EventBatch == 0 {
		opts.EventBatch = DefaultEventBatch
	}
	meta.Version = TraceVersion
	sw, err := newSegWriter(w)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		m: m, v: v, recv: recv,
		sw:       sw,
		aw:       newAsyncSegWriter(sw, DefaultAsyncQueue),
		pend:     make([]Event, 0, opts.EventBatch),
		batchLen: opts.EventBatch,
		interval: opts.SnapshotInterval,
		maxSnaps: opts.MaxSnapshots,
		keyEvery: opts.KeyframeEvery,
	}
	if err := r.aw.enqueue(segMeta, meta, decoNone()); err != nil {
		return nil, err
	}
	return r, nil
}

// Start takes the initial checkpoint, installs the capture hooks,
// enables dirty-page tracking for delta snapshots, and schedules the
// periodic snapshots.
func (r *Recorder) Start() {
	r.active = true
	if r.keyEvery > 1 && !r.m.CPU.DirtyTracking() {
		r.m.CPU.SetDirtyTracking(true)
		r.trackOwn = true
	}
	r.snapshot()

	// Physical interrupt deliveries, with their exact delivery cycle.
	// Debug-channel and console-UART interrupts are the monitor's own
	// traffic — they never reach the guest timeline and may legitimately
	// differ between a recording and an interactive replay session.
	r.m.SetIRQTrace(func(line int) {
		if !r.active || line == hw.IRQDebug || line == hw.IRQCons {
			return
		}
		r.append(Event{Kind: EvIRQ, Line: uint8(line)})
	})

	// Virtual-timer firings (the monitor's emulated PIT tick).
	if r.v != nil {
		r.v.SetVTimerTrace(func() {
			if r.active {
				r.append(Event{Kind: EvTimer})
			}
		})
	}

	// Frames leaving the NIC.
	r.m.NIC.SetFrameTap(func(frame []byte, cycle uint64) {
		if r.active {
			r.frame(frame)
		}
	})

	// Injected faults firing (when a fault plan is installed).
	r.m.SetFaultTrace(func(kind, unit uint8, arg uint64) {
		if r.active {
			r.append(Event{Kind: EvFault, Line: kind, Chan: unit, Digest: arg})
		}
	})

	// External input: bytes injected into the UARTs from outside the
	// machine. These are the only true inputs of the system.
	r.m.Dbg.SetRXTap(func(data []byte) { r.input(0, data) })
	r.m.Cons.SetRXTap(func(data []byte) { r.input(1, data) })

	r.armSnapshot()
}

func (r *Recorder) input(ch uint8, data []byte) {
	if !r.active {
		return
	}
	r.append(Event{Kind: EvInput, Chan: ch, Data: append([]byte(nil), data...)})
}

// frame records an EvFrame event whose digest waits until four frames
// are in hand: the first three are copied (the tap's slice is only
// valid during the call), and the fourth hashes all four in one
// interleaved pass (fnvBytes4) and fills the three waiting digests in
// pend. flushEvents digests any frames still held before the batch
// leaves, so a batch boundary inside a group of four is exact.
func (r *Recorder) frame(frame []byte) {
	if r.nheld < len(r.held) {
		h := &r.held[r.nheld]
		h.at = len(r.pend)
		h.data = append(h.data[:0], frame...)
		r.nheld++
		r.append(Event{Kind: EvFrame})
		return
	}
	d0, d1, d2, d3 := fnvBytes4(r.held[0].data, r.held[1].data, r.held[2].data, frame)
	r.pend[r.held[0].at].Digest = d0
	r.pend[r.held[1].at].Digest = d1
	r.pend[r.held[2].at].Digest = d2
	r.nheld = 0
	r.append(Event{Kind: EvFrame, Digest: d3})
}

// append stamps an event into the pending batch, which flushes as a
// segment when full.
func (r *Recorder) append(ev Event) {
	ev.Cycle = r.m.Clock()
	ev.Instr = r.m.CPU.Stat.Instructions
	r.evCount++
	r.stats.Events++
	if r.aw.Err() != nil {
		// The stream is already broken (FinishStream will report it);
		// accumulating the rest of the run's events would turn the
		// bounded-memory recorder into an O(run) one exactly when the
		// disk failed. Frames held for a digest go too: their events
		// are never written.
		r.nheld = 0
		return
	}
	r.pend = append(r.pend, ev)
	if len(r.pend) > r.stats.MaxPendingEvents {
		r.stats.MaxPendingEvents = len(r.pend)
	}
	if len(r.pend) >= r.batchLen {
		r.flushEvents()
	}
}

// flushEvents streams the pending batch as one event segment. On a
// broken stream the batch is dropped instead of retained — the sticky
// error already condemns the trace, and memory must stay bounded.
//
// Frames still held for a group of four are digested one by one
// first. Ownership of the batch slice then transfers to the pipeline
// (it is never touched again here) and a fresh one starts.
func (r *Recorder) flushEvents() {
	if len(r.pend) == 0 {
		return
	}
	if r.aw.Err() != nil {
		r.pend = r.pend[:0]
		r.nheld = 0
		return
	}
	for _, h := range r.held[:r.nheld] {
		r.pend[h.at].Digest = FrameDigest(h.data)
	}
	r.nheld = 0
	batch := r.pend
	r.pend = make([]Event, 0, r.batchLen)
	if err := r.aw.enqueue(segEvents, batch, decoEvents(batch)); err != nil {
		return
	}
	r.stats.EventSegments++
}

// armSnapshot schedules the next periodic snapshot. The snapshot closure
// runs from the machine's event queue and captures nothing the replayed
// timeline can observe, so recorded and replayed runs stay identical.
func (r *Recorder) armSnapshot() {
	r.m.After(r.interval, func() {
		if !r.active {
			return
		}
		if r.cpCount <= r.maxSnaps {
			r.snapshot()
		}
		r.armSnapshot()
	})
}

// snapshot captures a checkpoint at the current machine state: a full
// keyframe at the KeyframeEvery cadence (and always for checkpoint 0),
// a delta of the pages dirtied since the previous checkpoint otherwise.
func (r *Recorder) snapshot() {
	cp := Checkpoint{
		Index:      r.cpCount,
		Instr:      r.m.CPU.Stat.Instructions,
		Cycle:      r.m.Clock(),
		EventIndex: r.evCount,
	}
	wantDelta := r.cpCount > 0 && r.keyEvery > 1 && r.sinceKey < r.keyEvery-1
	if wantDelta {
		snap, ok := r.m.SnapshotDelta()
		cp.Machine = snap
		if ok {
			cp.Delta = true
			cp.Base = r.lastIndex
		}
	} else {
		cp.Machine = r.m.Snapshot()
	}
	if cp.Delta {
		r.sinceKey++
	} else {
		r.sinceKey = 0
	}
	r.m.CPU.ResetDirtyPages()
	if r.v != nil {
		cp.VMM = r.v.Snapshot()
	}
	if r.recv != nil {
		cp.HasRecv = true
		cp.Recv = r.recv.State()
	}
	r.lastIndex = cp.Index
	r.cpCount++

	// The batch flushed first keeps segments in timeline order (every
	// pending event precedes the checkpoint).
	r.flushEvents()
	kind := segKeyframe
	if cp.Delta {
		kind = segDelta
	}
	// Ownership of cp (and the snapshot buffers inside it — deep copies,
	// see machine.Snapshot) transfers to the pipeline here.
	if err := r.aw.enqueue(kind, &cp, decoCheckpoint(&cp)); err != nil {
		return
	}
	if cp.Delta {
		r.stats.Deltas++
	} else {
		r.stats.Keyframes++
	}
}

// stop removes the capture hooks and captures the end-of-run seal.
func (r *Recorder) stop() traceEnd {
	r.active = false
	r.m.SetIRQTrace(nil)
	r.m.SetFaultTrace(nil)
	r.m.NIC.SetFrameTap(nil)
	r.m.Dbg.SetRXTap(nil)
	r.m.Cons.SetRXTap(nil)
	if r.v != nil {
		r.v.SetVTimerTrace(nil)
	}
	if r.trackOwn {
		r.m.CPU.SetDirtyTracking(false)
		r.trackOwn = false
	}
	return traceEnd{
		EndCycle:  r.m.Clock(),
		EndInstr:  r.m.CPU.Stat.Instructions,
		EndReason: int(r.m.LastStopReason()),
		EndDigest: Digest(r.m, r.v),
	}
}

// FinishStream stops capturing and seals the streamed container: the
// final event batch, the end segment, the seek-index footer, and the
// trailer. The first error anywhere in the stream's life — mid-run
// segment flushes included — is returned; a nil error plus a successful
// Close of the underlying file means the trace is complete on disk.
func (r *Recorder) FinishStream() (StreamStats, error) {
	if r.active {
		end := r.stop()
		r.flushEvents()
		if r.aw.Err() == nil {
			r.aw.enqueue(segEnd, end, decoNone())
		}
		r.stats.EndCycle = end.EndCycle
		r.stats.EndInstr = end.EndInstr
		r.stats.EndDigest = end.EndDigest
	}
	// seal joins the pipeline: every enqueued segment is committed (or the
	// first error latched) before it returns, then the index and trailer
	// go out. It is idempotent, and after it the segWriter is ours again.
	err := r.aw.seal()
	// Data segments only — the seek-index footer and trailer are framing,
	// and the index cannot list itself.
	r.stats.Segments = len(r.sw.index)
	r.stats.BytesWritten = r.sw.off
	return r.stats, err
}

// PendingEvents reports how many captured events are resident in the
// recorder right now (the unflushed batch). Tests use it to pin the
// bounded-memory property.
func (r *Recorder) PendingEvents() int { return len(r.pend) }

// Err returns the sticky stream error, if any. It may have latched on a
// pipeline goroutine; this is safe to poll from the machine's goroutine
// while recording.
func (r *Recorder) Err() error { return r.aw.Err() }
