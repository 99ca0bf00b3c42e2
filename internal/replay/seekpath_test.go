package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/cpu"
	"lvmm/internal/guest"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// seekInputAt are the cycles at which the seek-path recording takes
// console input, so every landing also has an input cursor to get right.
var seekInputAt = []uint64{90_000_000, 158_000_000, 211_000_000}

// A seek script is a byte string of seekOpBytes-byte ops: a kind byte
// (taken mod seekOpKinds) and a little-endian uint32 argument.
const (
	opSeekAbs         = iota // SeekInstr anywhere in the trace
	opSeekFwd                // SeekInstr up to 3×jumpMinInstr forward
	opReverseStep            // ReverseStep(1), or up to 400 k back
	opReverseContinue        // ReverseContinue to the last send_one
	opCheckpoint             // a live Checkpoint insert
	opPatch                  // WriteMem patches, then a ReverseStep
	opRecord                 // a recorder run on the machine, then a ReverseStep
	seekOpKinds

	seekOpBytes = 5
	maxSeekOps  = 16 // per fuzz input, to bound its re-execution
)

// seekHarness drives a subject replayer through a seek script and
// checks every landing against a reference replayer, on a machine of its
// own, brought to the same moment by a full restore of the nearest
// checkpoint plus forward re-execution: the one path that trusts
// nothing about the live state.
type seekHarness struct {
	t       testing.TB
	src     *LazyTrace
	rp, ref *Replayer
	m, mR   *machine.Machine
	v, vR   *vmm.VMM
	recv    *netsim.Receiver
	sendOne uint32
	record  bool     // opRecord runs a recorder (otherwise it only reverse-steps)
	trail   []string // ops so far, for failure messages
}

// streamBuilder builds a machine for a seek-path trace: buildStreamLW,
// or buildStreamLWStub.
type streamBuilder func(testing.TB) (*machine.Machine, *vmm.VMM, *netsim.Receiver)

func newSeekHarness(t testing.TB, src *LazyTrace, build streamBuilder, slow, record bool) *seekHarness {
	t.Helper()
	h := &seekHarness{t: t, src: src, record: record, sendOne: guest.Kernel().Symbols["send_one"]}
	if h.sendOne == 0 {
		t.Fatal("streaming kernel has no send_one symbol")
	}
	var recvR *netsim.Receiver
	h.m, h.v, h.recv = build(t)
	h.mR, h.vR, recvR = build(t)
	h.m.CPU.ForceSlowEngine(slow)
	h.mR.CPU.ForceSlowEngine(slow)
	// Back to the RAM pool when the test ends: a fuzz worker boots two
	// machines per input, and a pooled 64 MB RAM needs re-zeroing only
	// where it was written.
	t.Cleanup(func() {
		h.m.Release()
		h.mR.Release()
	})
	var err error
	if h.rp, err = NewReplayerSource(src, h.m, h.v, h.recv); err != nil {
		t.Fatal(err)
	}
	if h.ref, err = NewReplayerSource(src, h.mR, h.vR, recvR); err != nil {
		t.Fatal(err)
	}
	return h
}

// run executes every whole op of script, up to limit ops.
func (h *seekHarness) run(script []byte, limit int) {
	for n := 0; n+seekOpBytes <= len(script) && n < limit*seekOpBytes; n += seekOpBytes {
		h.step(script[n], binary.LittleEndian.Uint32(script[n+1:]))
	}
}

// step runs one op on the subject and checks where it landed.
func (h *seekHarness) step(kind byte, arg uint32) {
	h.t.Helper()
	rp := h.rp
	first := h.src.StartInstr()
	var err error
	reverseStep := func(n uint64) {
		h.trail = append(h.trail, fmt.Sprintf("ReverseStep(%d)", n))
		err = rp.ReverseStep(n)
	}
	switch kind % seekOpKinds {
	case opSeekAbs:
		target := first + uint64(arg)%(rp.endInstr-first+1)
		h.trail = append(h.trail, fmt.Sprintf("SeekInstr(%d)", target))
		err = rp.SeekInstr(target)
	case opSeekFwd:
		target := min(rp.Position()+uint64(arg)%(3*jumpMinInstr), rp.endInstr)
		h.trail = append(h.trail, fmt.Sprintf("SeekInstr(+%d)", target-rp.Position()))
		err = rp.SeekInstr(target)
	case opReverseStep:
		n := uint64(1)
		if arg&1 != 0 {
			n += uint64(arg>>1) % 400_000
		}
		reverseStep(n)
	case opReverseContinue:
		h.trail = append(h.trail, "ReverseContinue(send_one)")
		_, err = rp.ReverseContinue([]uint32{h.sendOne}, nil)
	case opCheckpoint:
		h.trail = append(h.trail, "Checkpoint")
		_, err = rp.Checkpoint()
	case opPatch:
		// A breakpoint-sized patch of kernel text through the debugger's
		// WriteMem, and bytes in the top page, which no checkpoint holds
		// (the undo path must zero it). The reverse step wipes both.
		h.trail = append(h.trail, "patch")
		if !h.v.DebugTarget().WriteMem(h.sendOne, []byte{0xde, 0xad, 0xbe, 0xef}) {
			h.t.Fatalf("%s: WriteMem at send_one failed", h.where())
		}
		top := h.m.Bus.RAMSize() - 64
		if !h.m.Bus.DMAWrite(top, bytes.Repeat([]byte{byte(arg) | 1}, 64)) {
			h.t.Fatalf("%s: DMAWrite at %#x failed", h.where(), top)
		}
		reverseStep(1 + uint64(arg)%1000)
	case opRecord:
		if h.record {
			// A recorder attached to the replay target resets the dirty
			// bitmap at its first checkpoint, so the reverse step after it
			// must not trust the bitmap.
			h.trail = append(h.trail, "record")
			startMem(h.t, h.m, h.v, h.recv, Options{KeyframeEvery: 3}).finish(h.t)
			// FinishStream clears the capture hooks the replayer shares.
			rp.installHooks()
			undos := rp.undos
			reverseStep(1 + uint64(arg)%1000)
			if err == nil && rp.undos != undos {
				h.t.Fatalf("%s: undo restore after a recorder reset the dirty bitmap", h.where())
			}
			break
		}
		reverseStep(1 + uint64(arg)%1000)
	}
	if err != nil {
		h.t.Fatalf("%s: %v", h.where(), err)
	}
	h.check()
}

func (h *seekHarness) where() string { return strings.Join(h.trail, ", ") }

// check brings the reference to the subject's moment by a full restore
// plus re-execution and compares position, clock, digest, every RAM
// byte, and both cursors. One instruction count can span several
// moments — a checkpoint taken in an idle stretch shares its count with
// the instruction before it — so the reference starts from a checkpoint
// at the subject's count only when it also has the subject's clock, and
// otherwise from an earlier one, which stops on the instruction. It
// never starts from a rung, whose pages are what is under test. It also
// checks the rung's lifecycle: the only live delta checkpoint in the
// source is the subject's one rung.
func (h *seekHarness) check() {
	h.t.Helper()
	for _, lc := range h.src.cps {
		if lc.live != nil && lc.meta.Delta && (h.rp.rung == nil || lc.meta.Index != h.rp.rung.Index) {
			h.t.Fatalf("%s: live delta checkpoint %d is not the replayer's rung", h.where(), lc.meta.Index)
		}
	}
	if h.rp.rung != nil && h.src.ByIndex(h.rp.rung.Index) < 0 {
		h.t.Fatalf("%s: the rung %d is not in the source", h.where(), h.rp.rung.Index)
	}
	pos, clock := h.rp.Position(), h.m.Clock()
	k := nearestCheckpointIdx(h.src, pos)
	for k > 0 {
		if cm := h.src.CheckpointMeta(k); (h.rp.rung == nil || cm.Index != h.rp.rung.Index) && (cm.Instr != pos || cm.Cycle == clock) {
			break
		}
		k--
	}
	h.ref.liveBase = -1 // the reference restores in full
	if err := h.ref.restoreCheckpoint(k); err != nil {
		h.t.Fatalf("%s: reference restore: %v", h.where(), err)
	}
	if err := h.ref.forwardTo(pos); err != nil {
		h.t.Fatalf("%s: reference re-execution: %v", h.where(), err)
	}
	if err := h.rp.Err(); err != nil {
		h.t.Fatalf("%s: replayer reported %v", h.where(), err)
	}
	if h.ref.Position() != pos || h.mR.Clock() != clock {
		h.t.Fatalf("%s: landed at instr %d cycle %d, full restore at instr %d cycle %d",
			h.where(), pos, clock, h.ref.Position(), h.mR.Clock())
	}
	if i, ok := ramEqual(h.m, h.mR); !ok {
		h.t.Fatalf("%s: RAM differs from a full restore at %#x: %#x, want %#x",
			h.where(), i, h.m.Bus.RAM()[i], h.mR.Bus.RAM()[i])
	}
	// RAM is equal byte for byte, so Digest's RAM part is too: compare the
	// rest of the state it covers.
	if d, dR := stateDigest(h.m, h.v), stateDigest(h.mR, h.vR); d != dR {
		h.t.Fatalf("%s: state digest %#x, full restore %#x", h.where(), d, dR)
	}
	// inputCursor is exact up to the events between it and the next
	// input: a restore sets it to the checkpoint's event index, and
	// re-execution moves it only past inputs it injects. What it decides
	// is the next input injected and, through Checkpoint, the consumed
	// prefix max(verifyCursor, inputCursor); those must match.
	if h.rp.verifyCursor != h.ref.verifyCursor ||
		h.nextInput(h.rp) != h.nextInput(h.ref) ||
		max(h.rp.verifyCursor, h.rp.inputCursor) != max(h.ref.verifyCursor, h.ref.inputCursor) {
		h.t.Fatalf("%s: cursors verify=%d input=%d, full restore verify=%d input=%d", h.where(),
			h.rp.verifyCursor, h.rp.inputCursor, h.ref.verifyCursor, h.ref.inputCursor)
	}
}

// ramEqual compares two machines' RAM and returns the first differing
// offset. It reads only the 1 MB blocks either coverage map marks as
// written: a block clear in both maps is zero in both.
func ramEqual(a, b *machine.Machine) (int, bool) {
	ram, ramB := a.Bus.RAM(), b.Bus.RAM()
	cov := a.CPU.WriteCoverage() | b.CPU.WriteCoverage()
	for off := 0; off < len(ram); off += 1 << cpu.CovShift {
		if cov&(1<<min(off>>cpu.CovShift, 63)) == 0 {
			continue
		}
		end := min(off+1<<cpu.CovShift, len(ram))
		if !bytes.Equal(ram[off:end], ramB[off:end]) {
			i := off
			for ram[i] == ramB[i] {
				i++
			}
			return i, false
		}
	}
	return 0, true
}

// stateDigest is Digest without its RAM part.
func stateDigest(m *machine.Machine, v *vmm.VMM) uint64 {
	h := newFNVDigest()
	digestState(h, m, v)
	return h.Sum64()
}

// nextInput is the input event r's forward re-execution injects next.
func (h *seekHarness) nextInput(r *Replayer) int {
	idx, err := h.src.NextInput(r.inputCursor)
	if err != nil {
		h.t.Fatalf("%s: %v", h.where(), err)
	}
	return idx
}

// seekPathData caches the seek-path trace's container bytes: every
// test that reads it opens its own LazyTrace, since live checkpoints
// accumulate in a source.
var seekPathData []byte

// seekPathTrace records the seek-path trace on first use and returns its
// container bytes.
func seekPathTrace(t testing.TB) []byte {
	t.Helper()
	if seekPathData == nil {
		seekPathData = recordStreamLW(t, seekInputAt)
	}
	return seekPathData
}

// TestSeekPathsMatchFullRestore is the differential for SeekInstr's
// forward jump and restoreCheckpoint's undo restore: a fixed prologue
// and seeded random scripts of forward and backward seeks, reverse steps and continues,
// live checkpoint inserts (which shift slice positions), and debugger
// patches must land, after every op, exactly where a full restore plus
// re-execution lands — on both engines, on an unbounded and a
// default-budget source, and in one case with recorders attached to the
// replay target between ops. Each case must take both fast paths, so the
// test cannot pass without exercising them.
func TestSeekPathsMatchFullRestore(t *testing.T) {
	data := seekPathTrace(t)
	cases := []struct {
		name         string
		slow, record bool
		budget       int64
	}{
		{"fast/unbounded", false, false, math.MaxInt64},
		{"fast/budget0/record", false, true, 0},
		{"slow/unbounded", true, false, math.MaxInt64},
		{"slow/budget0", true, false, 0},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newSeekHarness(t, lazyOpen(t, data, c.budget), buildStreamLW, c.slow, c.record)
			// A fixed prologue takes each fast path: a long forward seek
			// from the trace start jumps, and a reverse step undoes back
			// into the checkpoint it restored. Then a live checkpoint
			// inserted early shifts every later checkpoint's position, so
			// seeking back to it after a jump to the last checkpoint
			// catches a base remembered by position instead of id. Then
			// every op kind once in a seeded order, then seeded draws.
			span := uint32(h.rp.endInstr - h.src.StartInstr())
			for _, op := range []struct {
				kind byte
				arg  uint32
			}{
				{opSeekAbs, span * 3 / 4}, {opReverseStep, 0},
				{opSeekAbs, span / 4}, {opCheckpoint, 0}, {opSeekAbs, span}, {opSeekAbs, span / 4},
			} {
				h.step(op.kind, op.arg)
			}
			rng := rand.New(rand.NewSource(int64(i + 1)))
			kinds := rng.Perm(seekOpKinds)
			for len(kinds) < 20 {
				kinds = append(kinds, rng.Intn(seekOpKinds))
			}
			for _, k := range kinds {
				h.step(byte(k), rng.Uint32())
			}
			if h.rp.jumps == 0 || h.rp.undos == 0 {
				t.Fatalf("script took %d forward jumps and %d undo restores; both paths must run", h.rp.jumps, h.rp.undos)
			}
		})
	}
}

// FuzzSeekScript is TestSeekPathsMatchFullRestore's property over
// arbitrary scripts. The first byte picks the case: bit 0 the slow
// engine, bit 1 the default-budget source instead of the unbounded one,
// bit 2 recorders between ops. The rest is up to maxSeekOps ops.
func FuzzSeekScript(f *testing.F) {
	data := seekPathTrace(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		budget := int64(math.MaxInt64)
		if script[0]&2 != 0 {
			budget = 0
		}
		h := newSeekHarness(t, lazyOpen(t, data, budget), buildStreamLW, script[0]&1 != 0, script[0]&4 != 0)
		h.run(script[1:], maxSeekOps)
	})
}

// TestForwardToRestoresStopSinkOnReadError pins forwardTo's exits: a
// seek that fails reading the event segment holding an EvInput must put
// the monitor's stop sink back and clear the stop-at-instruction limit,
// or a debugger attached after the failed seek never hears about a stop.
func TestForwardToRestoresStopSinkOnReadError(t *testing.T) {
	data := seekPathTrace(t)
	lt := lazyOpen(t, data, 0)
	in, err := lt.NextInput(0)
	if err != nil || in < 0 {
		t.Fatalf("recording has no input event (%v)", err)
	}
	input, err := lt.Event(in)
	if err != nil {
		t.Fatal(err)
	}
	seg := lt.Reader().Segments()[lt.evSegs[lt.eventSeg(in)]]
	bad := append([]byte(nil), data...)
	for i := seg.Offset + seg.Bytes/2; i < seg.Offset+seg.Bytes/2+16; i++ {
		bad[i] ^= 0xff // inside the segment's gzip payload
	}

	rp, m, v := newStreamReplayer(t, lazyOpen(t, bad, 0))
	stops := 0
	v.SetStopSink(func(cause, addr uint32) { stops++ })
	target := input.Instr + 1
	if err := rp.SeekInstr(target); err == nil {
		t.Fatal("seek across a corrupt input segment succeeded")
	}
	v.StopSink()(0, 0)
	if stops != 1 {
		t.Fatal("the failed seek left its no-op stop sink installed")
	}
	if rp.Position() >= target {
		t.Fatalf("the failed seek reached %d, its target %d", rp.Position(), target)
	}
	if reason := m.Run(m.Clock() + 50_000_000); reason == machine.StopInstrLimit {
		t.Fatalf("the failed seek left its stop at instruction %d armed (stopped at %d)", target, rp.Position())
	}
}

// undoBaseLanding lands the harness's subject just past checkpoint k by
// a backward seek, so k is the undo base, and checks the landing.
func undoBaseLanding(h *seekHarness, k int) {
	h.t.Helper()
	h.step(opSeekAbs, uint32(h.rp.endInstr-h.src.StartInstr()))
	h.trail = append(h.trail, "SeekInstr(checkpoint+10)")
	if err := h.rp.SeekInstr(h.src.CheckpointMeta(k).Instr + 10); err != nil {
		h.t.Fatal(err)
	}
	h.check()
	if h.rp.liveBase != h.src.CheckpointMeta(k).Index {
		h.t.Fatalf("landing descends from checkpoint %d, want %d", h.rp.liveBase, h.src.CheckpointMeta(k).Index)
	}
}

// TestUndoRestoreDistrustsOutsideRuns: when a debugger runs the machine
// itself, the live state may leave the recorded timeline, so a later
// reverse step must restore in full. Here the debugger parks the guest
// in a spin loop and runs it past the next checkpoint: the spinning
// guest skips every write the recorded run made there, which an undo
// restore of that checkpoint would leave stale.
func TestUndoRestoreDistrustsOutsideRuns(t *testing.T) {
	h := newSeekHarness(t, lazyOpen(t, seekPathTrace(t), 0), buildStreamLW, false, false)
	k := h.src.NumCheckpoints() / 2
	undoBaseLanding(h, k)
	next := h.src.CheckpointMeta(k + 1).Instr

	spin, err := asm.Assemble("spin: beq r0, r0, spin\n")
	if err != nil {
		t.Fatal(err)
	}
	dt := h.v.DebugTarget()
	pc := h.m.CPU.PC
	orig, ok := dt.ReadMem(pc, 4)
	if !ok || !dt.WriteMem(pc, spin.Data) {
		t.Fatalf("cannot patch the guest at pc %#x", pc)
	}
	h.m.SetStopAtInstr(next + 2_000)
	if reason := h.m.Run(h.m.Clock() + 100_000_000); reason != machine.StopInstrLimit {
		t.Fatalf("the spinning guest stopped %v at instr %d, before instr %d", reason, h.rp.Position(), next+2_000)
	}
	h.m.SetStopAtInstr(0)
	if !dt.WriteMem(pc, orig) {
		t.Fatalf("cannot restore the guest's text at pc %#x", pc)
	}

	undos := h.rp.undos
	h.trail = append(h.trail, "debugger spin run", "ReverseStep(1000)")
	if err := h.rp.ReverseStep(1_000); err != nil {
		t.Fatal(err)
	}
	if h.rp.undos != undos {
		t.Fatal("undo restore after the debugger ran the machine")
	}
	h.check()
}

// buildStreamLWStub is buildStreamLW with the monitor's debug stub on
// the debug UART, so debug-channel input reaches guest memory.
func buildStreamLWStub(t testing.TB) (*machine.Machine, *vmm.VMM, *netsim.Receiver) {
	m, v, recv := buildStreamLW(t)
	v.EnableDebugStub()
	return m, v, recv
}

// TestUndoRestoreAfterSkippedDebugInput: seeks skip recorded
// debug-channel input (a live debugger owns that UART), which leaves the
// recorded timeline, so a reverse step behind the skipped input must
// restore in full. The recording holds an RSP memory write into a page
// the streaming guest never writes: the re-execution that skipped it
// leaves that page clean, and an undo restore of a checkpoint taken
// after the write would keep it unwritten.
func TestUndoRestoreAfterSkippedDebugInput(t *testing.T) {
	m, v, recv := buildStreamLWStub(t)
	rec := startMem(t, m, v, recv, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3})
	const inputAt = 150_000_000
	if reason := m.Run(inputAt); reason != machine.StopLimit {
		t.Fatalf("record: stopped %v before the debug input", reason)
	}
	const addr = 0x3000 // past the kernel image, below its buffers; the guest runs unpaged
	payload := fmt.Sprintf("M%x,4:c0ffee01", addr)
	sum := 0
	for _, c := range []byte(payload) {
		sum += int(c)
	}
	m.Dbg.InjectRX([]byte(fmt.Sprintf("$%s#%02x", payload, sum&0xff)))
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("record: stop %v pc=%08x", reason, m.CPU.PC)
	}
	if got := m.Bus.RAM()[addr : addr+4]; !bytes.Equal(got, []byte{0xc0, 0xff, 0xee, 0x01}) {
		t.Fatalf("the recorded RSP write did not land: % x", got)
	}
	data := rec.finish(t)
	tr := readBack(t, data)

	h := newSeekHarness(t, lazyOpen(t, data, 0), buildStreamLWStub, false, false)
	k := nearestCheckpointIdx(h.src, tr.Events[len(tr.Events)-1].Instr)
	for i, ev := range tr.Events {
		if ev.Kind == EvInput {
			k = nearestCheckpointIdx(h.src, tr.Events[i].Instr)
			break
		}
	}
	if k+1 >= h.src.NumCheckpoints() {
		t.Fatal("no checkpoint follows the debug input")
	}
	undoBaseLanding(h, k)
	next := h.src.CheckpointMeta(k + 1).Instr
	h.trail = append(h.trail, "SeekInstr(past the next checkpoint)")
	if err := h.rp.SeekInstr(next + 2_000); err != nil {
		t.Fatal(err)
	}
	if h.rp.liveBase >= 0 {
		t.Fatal("skipping the debug input left the live state an undo base")
	}
	h.step(opReverseStep, 1|1_000<<1)
}
