package replay

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lvmm/internal/guest"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
	"lvmm/internal/vmm"
)

// buildStreamLW boots a short run of the streaming guest under the
// lightweight monitor with a validating receiver: the frame-producing
// counterpart of buildTrapDense.
func buildStreamLW(t testing.TB) (*machine.Machine, *vmm.VMM, *netsim.Receiver) {
	t.Helper()
	p := guest.DefaultParams(100)
	p.DurationTicks = 20
	recv := netsim.NewReceiver()
	m := machine.NewStreaming(p.BlockBytes, recv, guest.KernelBase)
	entry, err := guest.Prepare(m, p)
	if err != nil {
		t.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(entry); err != nil {
		t.Fatal(err)
	}
	return m, v, recv
}

// recordStreamLW records buildStreamLW's run in memory, injecting one
// console-UART byte at each of the given cycles, and returns the
// container bytes.
func recordStreamLW(t testing.TB, inputAt []uint64) []byte {
	t.Helper()
	m, v, recv := buildStreamLW(t)
	rec := startMem(t, m, v, recv, Options{SnapshotInterval: 20_000_000, KeyframeEvery: 3})
	for i, c := range inputAt {
		if reason := m.Run(c); reason != machine.StopLimit {
			t.Fatalf("record: stopped %v before input %d", reason, i)
		}
		m.Cons.InjectRX([]byte{'0' + byte(i)})
	}
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("record: stop %v pc=%08x", reason, m.CPU.PC)
	}
	return rec.finish(t)
}

// bothSources opens trace bytes twice: with an unbounded cache, which
// never evicts, and with the default budget a trace file opens with.
func bothSources(t *testing.T, data []byte) []*LazyTrace {
	t.Helper()
	return []*LazyTrace{lazyOpen(t, data, math.MaxInt64), lazyOpen(t, data, 0)}
}

// newStreamReplayer attaches a replayer for a recordStreamLW trace to a
// freshly built machine.
func newStreamReplayer(t *testing.T, src *LazyTrace) (*Replayer, *machine.Machine, *vmm.VMM) {
	t.Helper()
	m, v, recv := buildStreamLW(t)
	rp, err := NewReplayerSource(src, m, v, recv)
	if err != nil {
		t.Fatal(err)
	}
	return rp, m, v
}

// TestFrameDigestDivergence pins frame verification: seeks skip the
// frame hash, so a tampered EvFrame digest must still be caught by
// RunToEnd at exactly that event, while seeks across it land on the
// same state as on the clean trace — opened with an unbounded cache and
// as a trace file opens.
func TestFrameDigestDivergence(t *testing.T) {
	data := recordStreamLW(t, nil)
	clean := readBack(t, data)
	cleanSrcs := bothSources(t, data)
	cleanSrc := cleanSrcs[0]

	// A frame past the first whose seek landing 1000 instructions later
	// still restores from a checkpoint before it, so every op below
	// re-executes across it: "seek before" lands 500 instructions short
	// of it (by re-execution from the trace start, or by a forward jump
	// to a checkpoint before it), "seek across" re-executes on from
	// there (1500 instructions, far below a forward jump's jumpMinInstr),
	// and the reverse step restores that checkpoint before it. The first
	// frame would also catch a tap that never hashes.
	var frames []int
	for i, ev := range clean.Events {
		if ev.Kind == EvFrame {
			frames = append(frames, i)
		}
	}
	k := -1
	for _, i := range frames[min(1, len(frames)):] {
		ins := clean.Events[i].Instr
		if ins+1000 <= clean.EndInstr &&
			cleanSrc.CheckpointMeta(nearestCheckpointIdx(cleanSrc, ins+1000)).Instr < ins {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("recording has no suitable frame event")
	}
	pos := clean.Events[k].Instr

	tampered := *clean
	tampered.Events = append([]Event(nil), clean.Events...)
	tampered.Events[k].Digest ^= 1
	tampered.Checkpoints = append([]Checkpoint(nil), clean.Checkpoints...)

	tamperedSrcs := bothSources(t, encode(t, &tampered))
	for j, name := range []string{"unbounded", "lazy"} {
		rp, _, _ := newStreamReplayer(t, cleanSrcs[j])
		if err := rp.RunToEnd(); err != nil {
			t.Fatalf("%s: clean trace diverged: %v", name, err)
		}
		rp, _, _ = newStreamReplayer(t, tamperedSrcs[j])
		err := rp.RunToEnd()
		if want := fmt.Sprintf("diverged at event %d:", k); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: tampered frame %d: RunToEnd returned %v, want a divergence at that event", name, k, err)
		}

		rpC, mC, vC := newStreamReplayer(t, cleanSrcs[j])
		rpT, mT, vT := newStreamReplayer(t, tamperedSrcs[j])
		ops := []struct {
			name string
			do   func(*Replayer) error
		}{
			{"seek before", func(r *Replayer) error { return r.SeekInstr(pos - 500) }},
			{"seek across", func(r *Replayer) error { return r.SeekInstr(pos + 1000) }},
			{"reverse-step across", func(r *Replayer) error { return r.ReverseStep(100) }},
		}
		for _, op := range ops {
			if err := op.do(rpC); err != nil {
				t.Fatalf("%s: clean %s: %v", name, op.name, err)
			}
			jumps := rpT.jumps
			if err := op.do(rpT); err != nil {
				t.Fatalf("%s: tampered %s: %v", name, op.name, err)
			}
			if op.name == "seek across" && rpT.jumps != jumps {
				t.Fatalf("%s: seek across jumped to a checkpoint instead of re-executing on", name)
			}
			if rpC.Position() != rpT.Position() || Digest(mC, vC) != Digest(mT, vT) ||
				rpC.verifyCursor != rpT.verifyCursor {
				t.Fatalf("%s: %s: tampered trace landed at %d digest %#x cursor %d, clean at %d digest %#x cursor %d",
					name, op.name, rpT.Position(), Digest(mT, vT), rpT.verifyCursor,
					rpC.Position(), Digest(mC, vC), rpC.verifyCursor)
			}
			if rpT.Err() != nil {
				t.Fatalf("%s: %s: a seek reported %v", name, op.name, rpT.Err())
			}
		}
	}
}

// TestSeekCursorExactWithInputs pins the payload-free timeline cursor:
// after non-verifying seeks over a trace with console input, the cursor
// must equal what a verifying walk from the trace start reaches at the
// same position, and a live checkpoint taken there must replay to the
// end bit-identically. The verifying walk compares every event it
// consumes with the recording, so a cursor that steps once per observed
// event without skipping inputs fails it, and a stale input cache after
// a backward restore leaves the seek's cursor off the walk's.
func TestSeekCursorExactWithInputs(t *testing.T) {
	inputAt := []uint64{90_000_000, 123_000_000, 124_000_000, 158_000_000, 182_000_000, 211_000_000}
	data := recordStreamLW(t, inputAt)
	var inputs []Event
	for _, ev := range readBack(t, data).Events {
		if ev.Kind == EvInput {
			inputs = append(inputs, ev)
		}
	}
	if len(inputs) != len(inputAt) {
		t.Fatalf("recorded %d input events, injected %d", len(inputs), len(inputAt))
	}
	sendOne := guest.Kernel().Symbols["send_one"]
	if sendOne == 0 {
		t.Fatal("streaming kernel has no send_one symbol")
	}

	for j, src := range bothSources(t, data) {
		name := []string{"unbounded", "lazy"}[j]
		rp, _, _ := newStreamReplayer(t, src)

		// The reference is a verifying walk run from the trace start to
		// the same position: each event it consumes is checked against
		// the recording, so its cursor is proven exact. It re-executes
		// from checkpoint 0 through forwardTo, since SeekInstr would jump
		// to a checkpoint near the target.
		check := func(stage string) {
			t.Helper()
			ref, _, _ := newStreamReplayer(t, src)
			ref.verify = true
			err := ref.forwardTo(rp.Position())
			ref.verify = false
			if err == nil {
				err = ref.Err()
			}
			if err != nil {
				t.Fatalf("%s: %s: reference walk: %v", name, stage, err)
			}
			if rp.verifyCursor != ref.verifyCursor {
				t.Fatalf("%s: %s at %d: cursor %d, the verifying walk gives %d",
					name, stage, rp.Position(), rp.verifyCursor, ref.verifyCursor)
			}
		}

		if err := rp.SeekInstr(inputs[len(inputs)-1].Instr + 20_000); err != nil {
			t.Fatal(err)
		}
		check("forward seek")
		if err := rp.ReverseStep(5_000); err != nil {
			t.Fatal(err)
		}
		check("reverse-step")
		if hit, err := rp.ReverseContinue([]uint32{sendOne}, nil); err != nil || !hit {
			t.Fatalf("%s: reverse-continue: hit=%v err=%v", name, hit, err)
		}
		check("reverse-continue")

		// A backward seek whose re-execution from the restored checkpoint
		// crosses an input before landing.
		target := uint64(0)
		for _, in := range inputs {
			p := in.Instr + 2_000
			if p < rp.Position() && src.CheckpointMeta(nearestCheckpointIdx(src, p)).Instr < in.Instr {
				target = p
			}
		}
		if target == 0 {
			t.Fatalf("%s: no input lies between a checkpoint and a reachable landing", name)
		}
		if err := rp.SeekInstr(target); err != nil {
			t.Fatal(err)
		}
		check("backward seek")

		if _, err := rp.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		live := nearestCheckpointIdx(src, target)
		if src.CheckpointMeta(live).Instr != target {
			t.Fatalf("%s: live checkpoint not found at %d", name, target)
		}
		fresh, _, _ := newStreamReplayer(t, src)
		if err := fresh.restoreCheckpoint(live); err != nil {
			t.Fatal(err)
		}
		if err := fresh.RunToEnd(); err != nil {
			t.Fatalf("%s: replay from the live checkpoint diverged: %v", name, err)
		}
	}
}
