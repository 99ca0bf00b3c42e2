package replay

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lvmm/internal/guest"
)

// rungSeekTarget returns a target whose seek from the trace start jumps
// to a checkpoint and re-executes far enough to drop a rung: 1000
// instructions short of the checkpoint that ends the widest gap.
func rungSeekTarget(t *testing.T, src *LazyTrace) uint64 {
	t.Helper()
	var from, to uint64
	for i := 1; i+1 < src.NumCheckpoints(); i++ {
		if a, b := src.CheckpointMeta(i).Instr, src.CheckpointMeta(i+1).Instr; b-a > to-from {
			from, to = a, b
		}
	}
	if to-from <= 1000+rungMinInstr+16 || from <= src.StartInstr()+jumpMinInstr {
		t.Fatalf("no checkpoint gap fits a rung behind a forward jump (widest %d..%d)", from, to)
	}
	return to - 1000
}

// TestReverseStepLadder: after a seek that re-executes past
// rungMinInstr, each of ten consecutive ReverseStep(1)s must land where
// a full restore plus re-execution lands, restore the nearest checkpoint
// at or before its target by undo restore, and re-execute exactly the
// distance from it, on both engines and both source kinds. The steps
// alternate: one restores the rung the last landing dropped and
// re-executes nothing, the next restores a recorded checkpoint — folding
// the rung it stands on — and drops a new rung one instruction short of
// its own target.
func TestReverseStepLadder(t *testing.T) {
	data := seekPathTrace(t)
	for _, c := range []struct {
		name   string
		slow   bool
		budget int64
	}{
		{"fast/unbounded", false, math.MaxInt64},
		{"fast/budget0", false, 0},
		{"slow/unbounded", true, math.MaxInt64},
		{"slow/budget0", true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newSeekHarness(t, lazyOpen(t, data, c.budget), buildStreamLW, c.slow, false)
			target := rungSeekTarget(t, h.src)
			h.trail = append(h.trail, fmt.Sprintf("SeekInstr(%d)", target))
			if err := h.rp.SeekInstr(target); err != nil {
				t.Fatal(err)
			}
			h.check()
			for i := 0; i < 10; i++ {
				// Even steps stand one past the rung, odd ones on it.
				pos := h.rp.Position()
				want := pos - 1
				if h.rp.rung == nil || h.rp.rung.Instr != pos-uint64(1-i%2) {
					t.Fatalf("%s: no rung at %d before step %d", h.where(), pos-uint64(1-i%2), i)
				}
				from := h.src.CheckpointMeta(nearestCheckpointIdx(h.src, want))
				if onRung := from.Index == h.rp.rung.Index; onRung != (i%2 == 0) {
					t.Fatalf("%s: step %d restores the rung: %v", h.where(), i, onRung)
				}
				undos, reexec, bt := h.rp.undos, h.rp.reexec, h.m.CPU.BurstTicks()
				h.step(opReverseStep, 0)
				if h.rp.undos != undos+1 {
					t.Fatalf("%s: checkpoint %d was not restored by undo restore", h.where(), from.Index)
				}
				if n, nb := h.rp.reexec-reexec, h.m.CPU.BurstTicks()-bt; n != want-from.Instr || nb > n {
					t.Fatalf("%s: re-executed %d instructions (%d in bursts), %d from checkpoint %d",
						h.where(), n, nb, want-from.Instr, from.Index)
				}
			}
		})
	}
}

// TestRungLifecycle pins what a rung discard keeps: a user checkpoint
// taken while a rung stands survives the next seek's discard, and a seek
// back to a recorded checkpoint between the rung's base and the live
// position — which the live state passed before the rung was dropped —
// still takes the undo path after the discard folds the rung back into
// the dirty bitmap. (check asserts after every op that at most the one
// rung is resident.)
func TestRungLifecycle(t *testing.T) {
	h := newSeekHarness(t, lazyOpen(t, seekPathTrace(t), 0), buildStreamLW, false, false)

	// A user checkpoint beside a rung.
	h.step(opSeekAbs, uint32(rungSeekTarget(t, h.src)-h.src.StartInstr()))
	if h.rp.rung == nil {
		t.Fatalf("%s: the long seek dropped no rung", h.where())
	}
	h.step(opReverseStep, 0)
	id := h.src.FreshIndex()
	h.step(opCheckpoint, 0)
	h.step(opSeekAbs, 0) // re-executes nothing, so drops no rung
	if h.rp.rung != nil {
		t.Fatalf("%s: the rung outlived the seek", h.where())
	}
	if i := h.src.ByIndex(id); i < 0 || h.src.CheckpointMeta(i).Delta {
		t.Fatalf("%s: the user checkpoint did not survive the rung discard", h.where())
	}

	// A landing just past checkpoint k, so k is the undo base, then a
	// forward seek that re-executes past k+1 — too close to jump —
	// dropping a rung based on k; then a reverse step onto the rung.
	k := -1
	for i := 1; i+2 < h.src.NumCheckpoints(); i++ {
		a, b, c := h.src.CheckpointMeta(i).Instr, h.src.CheckpointMeta(i+1).Instr, h.src.CheckpointMeta(i+2).Instr
		if b+20_000 < c && b+20_000-a > rungMinInstr+10 && b <= a+10+jumpMinInstr {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("no recorded checkpoint pair suits a rung across a checkpoint")
	}
	undoBaseLanding(h, k)
	root, next := h.src.CheckpointMeta(k), h.src.CheckpointMeta(k+1)
	h.step(opSeekFwd, uint32(next.Instr+20_000-h.rp.Position()))
	if h.rp.rung == nil || h.rp.rung.Base != root.Index {
		t.Fatalf("%s: no rung based on checkpoint %d", h.where(), root.Index)
	}
	h.step(opReverseStep, 0)
	if h.rp.liveBase != h.rp.rung.Index {
		t.Fatalf("%s: the reverse step did not land on the rung", h.where())
	}
	undos := h.rp.undos
	h.trail = append(h.trail, "SeekInstr(checkpoint+5)")
	if err := h.rp.SeekInstr(next.Instr + 5); err != nil {
		t.Fatal(err)
	}
	h.check()
	if h.rp.undos != undos+1 || h.rp.liveBase != next.Index {
		t.Fatalf("%s: seek back to checkpoint %d after the discard took %d undo restores (base %d)",
			h.where(), next.Index, h.rp.undos-undos, h.rp.liveBase)
	}
}

// TestLadderNoRepeatVisitGain: a rung never outlives the next seek, so a
// script run twice from the same start re-executes exactly the same
// instructions op for op. The script ends with a rung dropped just
// behind its first seek's target, and each pass starts with a seek to
// the trace start, which needs no re-execution and so drops no rung of
// its own: a rung that outlived that seek would let the second pass's
// first seek jump to it instead of a recorded checkpoint.
func TestLadderNoRepeatVisitGain(t *testing.T) {
	src := lazyOpen(t, seekPathTrace(t), 0)
	rp, _, _ := newStreamReplayer(t, src)
	_, last, _, _ := src.End()
	first := src.StartInstr()
	sendOne := []uint32{guest.Kernel().Symbols["send_one"]}

	const (
		seek = iota
		reverseStep
		reverseContinue
	)
	type op struct {
		kind int
		arg  uint64
	}
	far := rungSeekTarget(t, src)
	script := []op{{seek, far}, {reverseStep, 1}}
	rng := rand.New(rand.NewSource(7))
	for range 10 {
		script = append(script, op{seek, first + uint64(rng.Int63n(int64(last-first)))}, op{reverseStep, 1})
		if rng.Intn(3) == 0 {
			script = append(script, op{reverseStep, 1 + uint64(rng.Intn(5_000))}, op{reverseContinue, 0})
		}
	}
	script = append(script, op{seek, first}, op{seek, far - 1_000}, op{reverseStep, 1})

	pass := func() []uint64 {
		if err := rp.SeekInstr(first); err != nil {
			t.Fatal(err)
		}
		var work []uint64
		for _, o := range script {
			before := rp.reexec
			var err error
			switch o.kind {
			case seek:
				err = rp.SeekInstr(o.arg)
			case reverseStep:
				err = rp.ReverseStep(o.arg)
			case reverseContinue:
				_, err = rp.ReverseContinue(sendOne, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			work = append(work, rp.reexec-before)
		}
		return work
	}
	one := pass()
	if one[1] != 0 || one[len(one)-1] != 0 {
		t.Fatalf("a reverse step after a long seek re-executed %d and %d instructions; the rung behind the target needs none",
			one[1], one[len(one)-1])
	}
	if two := pass(); !slices.Equal(one, two) {
		t.Fatalf("re-executed instructions per op differ between passes:\n first %v\nsecond %v", one, two)
	}
}

// TestRungAfterInput: a rung dropped after a recorded input is injected
// but before the next verification event recurs holds a consumed prefix
// that includes the input, and a reverse step that restores it must
// leave the cursors where re-execution leaves them (consumeInput). Each
// landing lands 20 instructions past an input, so its rung falls in
// that window when the input's handler runs that long.
func TestRungAfterInput(t *testing.T) {
	h := newSeekHarness(t, lazyOpen(t, seekPathTrace(t), math.MaxInt64), buildStreamLW, false, false)
	windows := 0
	for idx, err := h.src.NextInput(0); idx >= 0; idx, err = h.src.NextInput(idx + 1) {
		if err != nil {
			t.Fatal(err)
		}
		in, err := h.src.Event(idx)
		if err != nil {
			t.Fatal(err)
		}
		next, err := h.src.Event(idx + 1)
		if err != nil {
			t.Fatal(err)
		}
		h.step(opSeekAbs, 0)
		h.step(opSeekAbs, uint32(in.Instr+20-h.src.StartInstr()))
		if h.rp.rung != nil && in.Instr+20 < next.Instr {
			windows++
		}
		h.step(opReverseStep, 0)
		h.step(opReverseStep, 0)
	}
	if windows == 0 {
		t.Fatal("no landing dropped a rung between an input and the next verification event")
	}
}

// TestNoRungWhenUntracked: a rung is a delta against the live base, so
// a landing whose live state the dirty bitmap no longer covers since
// that base — here a recorder run reset the bitmap — must drop none, and
// the reverse steps after it must still land exactly.
func TestNoRungWhenUntracked(t *testing.T) {
	h := newSeekHarness(t, lazyOpen(t, seekPathTrace(t), 0), buildStreamLW, false, true)
	undoBaseLanding(h, h.src.NumCheckpoints()/2)
	startMem(t, h.m, h.v, h.recv, Options{KeyframeEvery: 3}).finish(t)
	h.rp.installHooks() // FinishStream clears the capture hooks the replayer shares
	h.trail = append(h.trail, "record")
	h.step(opSeekFwd, 2*rungMinInstr)
	if h.rp.rung != nil {
		t.Fatalf("%s: dropped a rung with the dirty bitmap reset since its base", h.where())
	}
	h.step(opReverseStep, 0)
	h.step(opReverseStep, 0)
}
