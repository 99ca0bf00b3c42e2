package replay

import (
	"fmt"
	"sort"

	"lvmm/internal/gdbstub"
	"lvmm/internal/hw"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// Replayer re-executes a recorded trace on a freshly built machine of the
// same configuration. It verifies the re-executed timeline against the
// recorded one (interrupt deliveries, timer firings, frame digests), can
// seek to any instruction-count position, and implements the time-travel
// operations the debug stub exposes (gdbstub.Reverser).
//
// The trace is read through a *LazyTrace, which decodes event batches
// and snapshots on demand through a byte-budgeted LRU — forward runs,
// checkpoint restores, reverse-step, and reverse-continue all touch
// only the segments they need, so a replay session's memory is O(LRU
// budget) regardless of trace length.
type Replayer struct {
	src  *LazyTrace
	m    *machine.Machine
	v    *vmm.VMM
	recv *netsim.Receiver

	// Replay cursors into the event timeline.
	verifyCursor int // next verification event expected
	inputCursor  int // next input event to re-inject

	// nextInput caches the first EvInput index at or after verifyCursor
	// (NumEvents when none remains), so advanceCursor steps over inputs
	// without reading event payloads; below verifyCursor it is stale and
	// is refreshed from the source's memoized positions.
	nextInput int

	endCycle uint64
	endInstr uint64

	verify   bool  // verification hooks active (RunToEnd)
	salvaged bool  // trace recovered from a truncated container (relaxed end checks)
	err      error // first detected divergence (or source read failure)

	// Scan state (reverse-continue).
	scanHits []uint64

	// Undo-restore state (see undoable): the live machine descends from
	// the checkpoint whose stable Index is liveBase (-1: from none) by
	// this replayer's re-execution of the recorded timeline, the CPU's
	// dirty-page bitmap has marked every page written since — it was
	// reset at generation dirtyGen — and leftClock is the clock where the
	// replayer last stopped driving the machine.
	liveBase  int
	dirtyGen  uint64
	leftClock uint64

	// The rung the last long landing dropped one instruction behind its
	// target (see land): a live delta checkpoint taken against the
	// checkpoint the landing re-executed from, or nil.
	rung *Checkpoint

	// Landings by path and instructions re-executed, counted for the
	// package's tests.
	jumps, undos int
	reexec       uint64
}

// NewReplayerSource attaches a replayer to a machine built with the same
// configuration the trace was recorded on, and rewinds it to the trace's
// initial checkpoint. v and recv may be nil if the recording had none.
// Delta-checkpoint base chains are validated as they are materialized —
// walking every chain up front would decode every snapshot segment,
// which is exactly what the lazy reader exists to avoid.
func NewReplayerSource(src *LazyTrace, m *machine.Machine, v *vmm.VMM, recv *netsim.Receiver) (*Replayer, error) {
	if src.NumCheckpoints() == 0 {
		return nil, fmt.Errorf("replay: trace has no checkpoints")
	}
	cp0, err := src.Checkpoint(0)
	if err != nil {
		return nil, err
	}
	if cp0.Delta {
		return nil, fmt.Errorf("replay: trace's first checkpoint is a delta")
	}
	r := &Replayer{src: src, m: m, v: v, recv: recv, liveBase: -1}
	r.salvaged = src.Meta().Salvaged
	r.endCycle, r.endInstr, _, _ = src.End()
	r.installHooks()
	if err := r.restoreCheckpoint(0); err != nil {
		return nil, err
	}
	return r, nil
}

// Source returns the trace being replayed.
func (r *Replayer) Source() *LazyTrace { return r.src }

// Err returns the first divergence (or trace read failure) detected, if
// any.
func (r *Replayer) Err() error { return r.err }

// fail records the first error; later ones are dropped.
func (r *Replayer) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// installHooks mirrors the recorder's capture points with verifiers.
func (r *Replayer) installHooks() {
	r.m.SetIRQTrace(func(line int) {
		if line == hw.IRQDebug || line == hw.IRQCons {
			return
		}
		r.observe(Event{Kind: EvIRQ, Line: uint8(line)})
	})
	if r.v != nil {
		r.v.SetVTimerTrace(func() { r.observe(Event{Kind: EvTimer}) })
	}
	r.m.NIC.SetFrameTap(func(frame []byte, cycle uint64) {
		// Only a verifying replay compares the digest; seeks skip the hash.
		var d uint64
		if r.verify && r.err == nil {
			d = FrameDigest(frame)
		}
		r.observe(Event{Kind: EvFrame, Digest: d})
	})
	r.m.SetFaultTrace(func(kind, unit uint8, arg uint64) {
		r.observe(Event{Kind: EvFault, Line: kind, Chan: unit, Digest: arg})
	})
}

// observe tracks one re-executed occurrence against the recorded
// timeline. The cursor advances during every replay execution (seeks
// included) so checkpoints taken mid-session know how much of the
// timeline has been consumed; the comparison itself only runs during a
// verifying replay (RunToEnd), and only it reads the recorded event.
func (r *Replayer) observe(got Event) {
	idx := r.advanceCursor()
	if !r.verify || r.err != nil {
		return
	}
	if idx < 0 {
		// A salvaged trace's timeline ends where truncation cut it,
		// possibly before the synthesized end cycle: re-executed
		// occurrences past the recorded prefix are expected, not a
		// divergence — the prefix itself was fully verified.
		if !r.salvaged {
			r.err = fmt.Errorf("replay diverged: %v at cycle %d (instr %d) beyond the recorded timeline",
				got.Kind, r.m.Clock(), r.m.CPU.Stat.Instructions)
		}
		return
	}
	want, err := r.src.Event(idx)
	if err != nil {
		r.fail(err)
		return
	}
	got.Cycle = r.m.Clock()
	got.Instr = r.m.CPU.Stat.Instructions
	if want.Kind != got.Kind || want.Line != got.Line || want.Chan != got.Chan ||
		want.Digest != got.Digest ||
		want.Cycle != got.Cycle || want.Instr != got.Instr {
		r.err = fmt.Errorf("replay diverged at event %d: recorded %v line=%d chan=%d cycle=%d instr=%d digest=%#x, replayed %v line=%d chan=%d cycle=%d instr=%d digest=%#x",
			idx,
			want.Kind, want.Line, want.Chan, want.Cycle, want.Instr, want.Digest,
			got.Kind, got.Line, got.Chan, got.Cycle, got.Instr, got.Digest)
	}
}

// advanceCursor consumes the next verification event: it moves
// verifyCursor past it, stepping over EvInput positions, and returns its
// index, or -1 when the timeline has none left (or the source failed).
// Inputs are found through the source's memoized input index rather than
// by decoding event payloads; the source is asked again only once the
// cursor passes the cached input, so a replay costs one NextInput call
// per input crossed, not one per event.
func (r *Replayer) advanceCursor() int {
	total := r.src.NumEvents()
	for r.verifyCursor < total {
		if r.nextInput < r.verifyCursor {
			idx, err := r.src.NextInput(r.verifyCursor)
			if err != nil {
				r.fail(err)
				return -1
			}
			if idx < 0 {
				idx = total
			}
			r.nextInput = idx
		}
		r.verifyCursor++
		if r.nextInput != r.verifyCursor-1 {
			return r.verifyCursor - 1
		}
	}
	return -1
}

// consumeInput moves the cursors past input event idx once it was
// injected (or skipped). verifyCursor moves too when it rests on the
// input, which advanceCursor would step over at the next observed event
// anyway: a replay's cursors then depend only on its position, not on
// how it got there, since a restore sets both to the checkpoint's
// consumed prefix, which includes every input injected before it.
func (r *Replayer) consumeInput(idx int) {
	r.inputCursor = idx + 1
	if r.verifyCursor == idx {
		r.verifyCursor = idx + 1
	}
}

// restoreCheckpoint rewinds machine, monitor, and receiver to the
// checkpoint at slice position i and realigns the replay cursors. RAM
// is rewound by the restore walk (restoreWalk), which only needs a
// starting page set:
//
//   - Undo: when undoable says the live state descends from an earlier
//     checkpoint of the same stretch of timeline, the walk starts from
//     the pages dirtied since, so restoring the checkpoint a reverse step
//     just re-executed from costs O(pages it dirtied). A live state that
//     descends from the rung, restoring a checkpoint at or before it, is
//     first folded onto the rung's base (foldRung), so the checkpoint may
//     lie between that base and the rung.
//   - Full: otherwise the walk starts from every page. The chain length
//     is bounded by the recording's KeyframeEvery plus the rung, so this
//     costs at most one pass over covered RAM plus that many page sets.
//
// Both restore the complete non-RAM state. TestSeekPathsMatchFullRestore
// and FuzzSeekScript pin the undo path to the full one, and
// TestRestoreCoverageExact pins the walk from either start to a restore
// that clears all of RAM.
func (r *Replayer) restoreCheckpoint(i int) error {
	cp, err := r.src.Checkpoint(i)
	if err != nil {
		return err
	}
	if r.tracked() {
		r.foldRung(cp)
	}
	var dirty []uint64 // nil: every page
	if r.undoable(cp) {
		dirty = r.m.CPU.DirtyPages()
	}
	// Until the restore completes the machine descends from no
	// checkpoint: a chain member that fails to decode leaves it half
	// rewritten.
	r.liveBase = -1
	if err := r.restoreWalk(cp, dirty); err != nil {
		return err
	}
	if dirty != nil {
		r.undos++
	}
	if r.v != nil && cp.VMM != nil {
		r.v.Restore(cp.VMM)
	}
	if r.recv != nil && cp.HasRecv {
		r.recv.Restore(cp.Recv)
	}
	r.verifyCursor = cp.EventIndex
	r.inputCursor = cp.EventIndex
	r.nextInput = -1 // the cursor may have moved backwards

	// The live state is cp's now; the dirty bitmap counts from here.
	if r.m.CPU.DirtyTracking() {
		r.m.CPU.ResetDirtyPages()
	} else {
		r.m.CPU.SetDirtyTracking(true)
	}
	r.liveBase = cp.Index
	r.dirtyGen = r.m.CPU.DirtyGen()
	r.leftClock = r.m.Clock()
	return nil
}

// undoable reports whether checkpoint cp can be restored by rewriting
// only the pages dirtied since the live state's base checkpoint. That
// is exact when the live RAM differs from cp's only on dirty pages:
//
//   - the live state descends from the base by this replayer's
//     re-execution alone — the clock is where the replayer left it, so
//     no debugger ran the machine meanwhile — and the bitmap is still in
//     the generation the replayer reset (a recorder attached to the same
//     machine resets it at every checkpoint);
//   - cp is the base itself, or lies strictly between the base and the
//     live position, so the live run executed every write the recorded
//     run made between the base and cp. Strictly, because one
//     instruction count spans several moments — a checkpoint taken in an
//     idle stretch shares its count with the instruction before it — and
//     only a count executed past proves a moment passed.
//
// The base is remembered by stable Index: a live Checkpoint insert
// shifts slice positions.
func (r *Replayer) undoable(cp *Checkpoint) bool {
	if !r.tracked() {
		return false
	}
	if cp.Index == r.liveBase {
		return true
	}
	b := r.src.ByIndex(r.liveBase)
	return b >= 0 && r.src.CheckpointMeta(b).Instr < cp.Instr && cp.Instr < r.Position()
}

// tracked reports whether the live state descends from the checkpoint
// liveBase by this replayer's re-execution alone, with every page
// written since marked in the dirty bitmap: the clock is where the
// replayer left it, and the bitmap is in the generation it reset.
func (r *Replayer) tracked() bool {
	return r.liveBase >= 0 && r.m.CPU.DirtyTracking() &&
		r.m.CPU.DirtyGen() == r.dirtyGen && r.m.Clock() == r.leftClock
}

// foldRung moves a tracked live base off the rung onto the rung's base,
// unless cp is the rung or lies past it (nil cp always folds). The
// rung's pages are exactly those dirtied between its base and it, so
// ORing them into the bitmap makes it cover every write since the base:
// an undo restore from the base is as exact as from the rung. A restore
// of a checkpoint before the rung thus keeps the undo path, and so does
// a live state whose rung is discarded.
func (r *Replayer) foldRung(cp *Checkpoint) {
	c := r.rung
	if c == nil || r.liveBase != c.Index || cp != nil && (cp.Index == c.Index || cp.Instr > c.Instr) {
		return
	}
	for _, ch := range c.Machine.RAM {
		r.m.CPU.MarkDirty(ch.Addr, uint32(len(ch.Data)))
	}
	r.liveBase = c.Base
}

// restoreWalk rewinds the machine to checkpoint cp by the restore walk
// (machine.RestoreSet) over cp's chain, from the page set dirty, or from
// every page when dirty is nil. A walk from a dirty set stops once no
// page is left, so a reverse step whose pages all sit in the nearby
// deltas never touches the keyframe; a full walk visits every member
// down to the keyframe. Members decode on demand, one at a time
// (re-faulting from disk if the LRU evicted them), and the chain is
// validated as it is walked rather than at open, since walking every
// chain up front would decode every snapshot segment.
func (r *Replayer) restoreWalk(cp *Checkpoint, dirty []uint64) error {
	set := r.m.RestoreStart(dirty)
	for cur, depth := cp, 1; ; depth++ {
		if cur.Machine.RAMSize != r.m.Bus.RAMSize() {
			return fmt.Errorf("replay: checkpoint %d has RAM size %d, machine has %d",
				cur.Index, cur.Machine.RAMSize, r.m.Bus.RAMSize())
		}
		left := r.m.RestorePages(cur.Machine, set)
		if !cur.Delta || !left && dirty != nil {
			break
		}
		base, err := r.chainBase(cur, depth)
		if err != nil {
			return err
		}
		cur = base
	}
	r.m.RestoreFinish(cp.Machine, set)
	return nil
}

// chainBase materializes the checkpoint delta cur was taken against,
// checking that it exists and lies earlier on the timeline; depth is how
// many chain members were walked before cur's base, which bounds a
// cyclic chain.
func (r *Replayer) chainBase(cur *Checkpoint, depth int) (*Checkpoint, error) {
	b := r.src.ByIndex(cur.Base)
	if b < 0 {
		return nil, fmt.Errorf("replay: checkpoint %d's base %d is missing", cur.Index, cur.Base)
	}
	base, err := r.src.Checkpoint(b)
	if err != nil {
		return nil, err
	}
	if base.Instr > cur.Instr || base == cur {
		return nil, fmt.Errorf("replay: checkpoint %d's base %d is not earlier on the timeline", cur.Index, cur.Base)
	}
	if depth > r.src.NumCheckpoints() {
		return nil, fmt.Errorf("replay: delta checkpoint chain does not terminate")
	}
	return base, nil
}

// RunToEnd replays the whole trace with verification on: external inputs
// are re-injected at their recorded cycles, and every interrupt, timer
// tick, and frame is checked against the recording. It returns the first
// divergence, or nil when the run completed bit-identically (final state
// digest included).
func (r *Replayer) RunToEnd() error {
	r.verify = true
	defer func() {
		r.verify = false
		r.leftClock = r.m.Clock()
	}()

	for {
		// Next input to re-inject, if any remains before the end.
		idx, err := r.src.NextInput(r.inputCursor)
		if err != nil {
			return err
		}
		if idx < 0 {
			break
		}
		ev, err := r.src.Event(idx)
		if err != nil {
			return err
		}
		if r.m.Clock() < ev.Cycle {
			reason := r.m.Run(ev.Cycle)
			if r.err != nil {
				return r.err
			}
			if reason != machine.StopLimit && reason != machine.StopRequested {
				// The machine ended before the recorded input arrived.
				break
			}
		}
		switch ev.Chan {
		case 0:
			r.m.Dbg.InjectRX(ev.Data)
		default:
			r.m.Cons.InjectRX(ev.Data)
		}
		r.consumeInput(idx)
	}

	_, _, endReason, endDigest := r.src.End()
	reason := r.m.Run(r.endCycle)
	if r.err != nil {
		return r.err
	}
	idx := r.advanceCursor()
	if r.err != nil {
		return r.err
	}
	if idx >= 0 {
		want, err := r.src.Event(idx)
		if err != nil {
			return err
		}
		return fmt.Errorf("replay diverged: recorded %v at cycle %d (instr %d) never happened",
			want.Kind, want.Cycle, want.Instr)
	}
	if r.salvaged {
		// The end seal is synthesized (the real one was truncated away):
		// there is no recorded digest, clock, or stop reason to hold the
		// re-execution to. Every recorded event verified above — that is
		// the whole contract a salvaged prefix can offer.
		return nil
	}
	if got := Digest(r.m, r.v); got != endDigest {
		return fmt.Errorf("replay diverged: final state digest %#x, recorded %#x", got, endDigest)
	}
	if r.m.Clock() != r.endCycle {
		return fmt.Errorf("replay diverged: final clock %d, recorded %d", r.m.Clock(), r.endCycle)
	}
	if int(reason) != endReason && !externallyBounded(machine.StopReason(endReason)) {
		return fmt.Errorf("replay diverged: stop reason %v, recorded %v",
			reason, machine.StopReason(endReason))
	}
	return nil
}

// externallyBounded reports whether a recorded stop reason describes an
// external bound rather than guest behaviour: a cycle limit, an
// instruction-count target, or a cross-goroutine stop request (fleet
// cancellation). The replay reproduces all three as its own cycle limit
// at the recorded EndCycle — the state digest has already proven the
// runs identical — so the reason mismatch is not a divergence.
func externallyBounded(r machine.StopReason) bool {
	return r == machine.StopLimit || r == machine.StopInstrLimit || r == machine.StopRequested
}

// Position returns the current instruction-count position in the timeline.
func (r *Replayer) Position() uint64 { return r.m.CPU.Stat.Instructions }

// jumpMinInstr is how far ahead of the live position the nearest
// checkpoint at or before a forward seek's target must lie for the seek
// to restore it instead of re-executing up to it: one restore's worth of
// re-execution. On the timetravel benchmark workload (bench/, a 2-vCPU
// x86-64 host) a restore cost machine.snap.ms_per_restore ≈ 3.76 ms and
// the engine cpu.ns_per_instr ≈ 20.5 ns, so one restore buys
// 3.76 ms / 20.5 ns ≈ 183 k instructions. Re-execution also pays the
// bus, devices and receiver, so this errs towards re-executing.
const jumpMinInstr = 180_000

// rungMinInstr is how long a landing's forward re-execution must be for
// it to drop a rung behind its target (see land).
const rungMinInstr = 16_384

// SeekInstr moves the timeline to the given instruction count by the
// cheapest exact path, then re-executes forward to it:
//
//   - backwards, it restores the nearest earlier checkpoint — by undo
//     restore when the live state came from that stretch of the timeline
//     (see restoreCheckpoint);
//   - forwards, it jumps, restoring the nearest checkpoint at or before
//     the target, when that checkpoint lies more than jumpMinInstr ahead
//     of the live position, and otherwise re-executes from where it is.
//
// It first discards the rung the previous landing left (see land), so
// its path depends on the recorded and user checkpoints alone, and no
// later op gains from a rung dropped before it. The machine is left
// exactly as it was at that position in the recorded run:
// TestSeekPathsMatchFullRestore and FuzzSeekScript compare every path's
// landing with a full restore plus re-execution.
func (r *Replayer) SeekInstr(target uint64) error {
	if target < r.src.StartInstr() {
		target = r.src.StartInstr()
	}
	if target > r.endInstr {
		return fmt.Errorf("replay: position %d is beyond the end of the trace (%d)", target, r.endInstr)
	}
	r.discardRung()
	cur := r.Position()
	c := nearestCheckpointIdx(r.src, target)
	jump := target >= cur && r.src.CheckpointMeta(c).Instr > cur+jumpMinInstr
	if target < cur || jump {
		if jump {
			r.jumps++
		}
		if err := r.restoreCheckpoint(c); err != nil {
			return err
		}
	}
	return r.land(target)
}

// land finishes a landing by re-executing forward to target. When that
// is further than rungMinInstr, it replaces the rung: the re-execution
// stops one instruction short of target and drops a rung there
// (dropRung), so the ReverseStep(1) that usually follows restores it by
// undo restore and re-executes nothing. Only landings drop rungs: a
// reverse-continue's window scans do not.
func (r *Replayer) land(target uint64) error {
	if target <= r.Position()+rungMinInstr {
		return r.forwardTo(target)
	}
	r.discardRung()
	if err := r.forwardTo(target - 1); err != nil {
		return err
	}
	r.dropRung()
	return r.forwardTo(target)
}

// dropRung inserts the rung at the live position: a live delta
// checkpoint of the pages dirtied since the live base, taken against it,
// which then becomes the live base with a fresh bitmap. The delta
// restores exactly only while the bitmap covers every write since the
// base, so nothing is dropped unless the live state is tracked.
func (r *Replayer) dropRung() {
	if !r.tracked() {
		return
	}
	s, _ := r.m.SnapshotDelta()
	cp := r.capture(s)
	cp.Delta, cp.Base = true, r.liveBase
	r.src.InsertCheckpoint(*cp)
	r.rung = cp
	r.m.CPU.ResetDirtyPages()
	r.liveBase, r.dirtyGen = cp.Index, r.m.CPU.DirtyGen()
}

// discardRung removes the rung from the source. A live state that
// descends from it is first folded onto its base (foldRung), so it keeps
// the undo path; one that is no longer tracked descends from no
// checkpoint, since the removed rung's id may be reused.
func (r *Replayer) discardRung() {
	if r.rung == nil {
		return
	}
	if r.tracked() {
		r.foldRung(nil)
	} else {
		r.liveBase = -1
	}
	r.src.RemoveCheckpoint(r.rung.Index)
	r.rung = nil
}

// forwardTo re-executes from the current position to the target
// instruction count. Debug-stop notifications are swallowed (re-executed
// breakpoint traps must not spam the host debugger), but the stop sink
// stays installed so guest behavior — which can depend on its presence —
// matches the recording. The sink and the stop-at-instruction limit are
// put back on every exit, a failed trace read included.
func (r *Replayer) forwardTo(target uint64) error {
	if r.Position() > target {
		return fmt.Errorf("replay: cannot run backwards to %d from %d", target, r.Position())
	}
	if r.Position() == target {
		return nil
	}
	if r.v != nil {
		if oldSink := r.v.StopSink(); oldSink != nil {
			r.v.SetStopSink(func(cause, addr uint32) {})
			defer r.v.SetStopSink(oldSink)
		}
		r.v.SetFrozen(false)
	}
	limit := r.endCycle + 1
	if c := r.m.Clock(); c >= limit {
		limit = c + 1
	}
	r.m.SetStopAtInstr(target)
	from := r.Position()
	defer func() {
		r.m.SetStopAtInstr(0)
		r.leftClock = r.m.Clock()
		r.reexec += r.Position() - from
	}()
	var reason machine.StopReason
	for {
		// Re-inject recorded external input that falls inside the seek
		// range, so a trace of an input-driven run lands on recorded
		// state. Debug-channel bytes are the one exception: during
		// interactive time travel a live debugger owns that UART, and
		// replaying the recorded conversation into it would corrupt the
		// session, so they are skipped (cursor still advances). Skipping
		// one leaves the recorded timeline, so the live state no longer
		// qualifies for an undo restore.
		idx, err := r.src.NextInput(r.inputCursor)
		if err != nil {
			return err
		}
		var ev Event
		if idx >= 0 {
			if ev, err = r.src.Event(idx); err != nil {
				return err
			}
		}
		if idx >= 0 && ev.Cycle <= r.m.Clock() {
			if ev.Chan != 0 {
				r.m.Cons.InjectRX(ev.Data)
			} else {
				r.liveBase = -1
			}
			r.consumeInput(idx)
			continue
		}
		runLimit := limit
		if idx >= 0 && ev.Cycle < runLimit {
			runLimit = ev.Cycle
		}
		reason = r.m.Run(runLimit)
		if reason != machine.StopLimit || runLimit == limit || r.Position() >= target {
			break
		}
	}
	if reason != machine.StopInstrLimit && r.Position() < target {
		return fmt.Errorf("replay: position %d unreachable (stopped early: %v at instr %d, cycle %d)",
			target, reason, r.Position(), r.m.Clock())
	}
	return nil
}

// freeze stops the guest for the debugger after a time-travel landing.
func (r *Replayer) freeze() {
	if r.v != nil {
		r.v.SetFrozen(true)
	}
}

// ReverseStep implements gdbstub.Reverser: move back n instructions.
func (r *Replayer) ReverseStep(n uint64) error {
	cur := r.Position()
	target := r.src.StartInstr()
	if cur > n && cur-n > target {
		target = cur - n
	}
	if err := r.restoreCheckpoint(nearestCheckpointIdx(r.src, target)); err != nil {
		return err
	}
	if err := r.land(target); err != nil {
		return err
	}
	r.freeze()
	return nil
}

// ReverseContinue implements gdbstub.Reverser: travel back to the most
// recent point strictly before the current position where a breakpoint
// would fire or a store would land in a watch range. The scan re-executes
// checkpoint windows with non-perturbing observers (machine pre-step hook
// and CPU spy watches), newest window first.
func (r *Replayer) ReverseContinue(breaks []uint32, watches []gdbstub.WatchRange) (bool, error) {
	cur := r.Position()
	upper := cur
	ci := nearestCheckpointIdx(r.src, cur)
	for {
		// Scan [checkpoint ci, upper) for crossings.
		if err := r.restoreCheckpoint(ci); err != nil {
			return false, err
		}
		hits, err := r.scanTo(upper, breaks, watches)
		if err != nil {
			return false, err
		}
		// Keep only crossings strictly before the starting position (a
		// crossing at cur is the stop we are travelling away from).
		for len(hits) > 0 && hits[len(hits)-1] >= cur {
			hits = hits[:len(hits)-1]
		}
		if len(hits) > 0 {
			target := hits[len(hits)-1]
			if err := r.restoreCheckpoint(nearestCheckpointIdx(r.src, target)); err != nil {
				return false, err
			}
			if err := r.land(target); err != nil {
				return false, err
			}
			r.freeze()
			return true, nil
		}
		if ci == 0 {
			// No crossing anywhere before cur: land at the trace start.
			if err := r.restoreCheckpoint(0); err != nil {
				return false, err
			}
			r.freeze()
			return false, nil
		}
		upper = r.src.CheckpointMeta(ci).Instr
		ci--
	}
}

// scanTo re-executes forward to the target position, collecting the
// instruction-count positions where a breakpoint PC was about to execute
// or a watched range was stored to. The observers charge no cycles and
// raise no traps, so the scanned timeline is the recorded one.
func (r *Replayer) scanTo(target uint64, breaks []uint32, watches []gdbstub.WatchRange) ([]uint64, error) {
	r.scanHits = r.scanHits[:0]

	if len(breaks) > 0 {
		set := make(map[uint32]bool, len(breaks))
		for _, a := range breaks {
			set[a] = true
		}
		r.m.SetPreStepHook(func() {
			if set[r.m.CPU.PC] {
				r.hit(r.m.CPU.Stat.Instructions)
			}
		})
	}
	nspy := len(watches)
	if nspy > 4 {
		nspy = 4
	}
	for i := 0; i < nspy; i++ {
		_ = r.m.CPU.SetSpyWatch(i, watches[i].Addr, watches[i].Len, true)
	}
	if nspy > 0 {
		r.m.CPU.SpyHook = func(wa uint32) {
			// The store commits inside the current instruction; the
			// post-instruction position is one ahead of the counter.
			r.hit(r.m.CPU.Stat.Instructions + 1)
		}
	}

	err := r.forwardTo(target)

	r.m.SetPreStepHook(nil)
	r.m.CPU.ClearSpyWatches()

	hits := append([]uint64(nil), r.scanHits...)
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
	return hits, err
}

// hit records a scan crossing, deduplicating repeats at one position
// (e.g. a bulk store sweeping a watch range chunk by chunk).
func (r *Replayer) hit(pos uint64) {
	if n := len(r.scanHits); n > 0 && r.scanHits[n-1] == pos {
		return
	}
	r.scanHits = append(r.scanHits, pos)
}

// Checkpoint implements gdbstub.Reverser: snapshot the current position
// into the source's checkpoint list (kept sorted by position) so later
// reverse operations replay from here instead of a distant recorded
// snapshot.
func (r *Replayer) Checkpoint() (uint64, error) {
	r.src.InsertCheckpoint(*r.capture(r.m.Snapshot()))
	return r.Position(), nil
}

// capture wraps machine snapshot s, taken at the live position, into a
// checkpoint with a fresh Index and the monitor's and receiver's state.
func (r *Replayer) capture(s *machine.Snapshot) *Checkpoint {
	cp := &Checkpoint{
		Index: r.src.FreshIndex(),
		Instr: r.Position(),
		Cycle: r.m.Clock(),
		// Events consumed so far: verifyCursor counts observed
		// verification events (skipping inputs), inputCursor counts
		// injected inputs (skipping verification events). In a faithful
		// replay neither cursor passes an event the other still owes — a
		// verification event only fires after every earlier-cycle input
		// was injected, and vice versa — so the consumed prefix of the
		// unified list is the larger of the two. Using the smaller would
		// re-inject already-consumed input after a restore; using an index
		// past a pending input would drop it.
		EventIndex: max(r.verifyCursor, r.inputCursor),
		Machine:    s,
	}
	if r.v != nil {
		cp.VMM = r.v.Snapshot()
	}
	if r.recv != nil {
		cp.HasRecv = true
		cp.Recv = r.recv.State()
	}
	return cp
}
