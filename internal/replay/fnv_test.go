package replay

import (
	"bytes"
	"hash/fnv"
	"testing"
	"time"

	"lvmm/internal/machine"
)

// TestFNVZeroSkipMatchesStdlib pins the digest's fast paths to
// hash/fnv: digests are recorded inside traces, so fnvSparse,
// fnvSkipZeros, and the fnvDigest accumulator must reproduce the
// stdlib's FNV-64a bit-for-bit on every input shape — dense data, long
// zero runs, zero runs at every alignment, and interleavings of both.
func TestFNVZeroSkipMatchesStdlib(t *testing.T) {
	ref := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}

	var cases [][]byte
	// Sizes around every stride boundary in fnvSparse (8 and 64 bytes).
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 1000, 4096} {
		zero := make([]byte, n)
		cases = append(cases, zero)
		dense := make([]byte, n)
		x := uint64(0x9E3779B97F4A7C15)
		for i := range dense {
			dense[i] = byte(x >> 56)
			x = x*6364136223846793005 + 1442695040888963407
		}
		cases = append(cases, dense)
		// A zero run at every offset inside dense data.
		for off := 0; off+16 <= n; off += 7 {
			mixed := append([]byte(nil), dense...)
			for i := off; i < off+16 && i < n; i++ {
				mixed[i] = 0
			}
			cases = append(cases, mixed)
		}
	}
	// One sparse-RAM shape: a few dense islands in a sea of zeros.
	big := make([]byte, 1<<18)
	for _, isle := range []int{0, 5_000, 77_777, 1<<18 - 200} {
		for i := 0; i < 150 && isle+i < len(big); i++ {
			big[isle+i] = byte(isle + i)
		}
	}
	cases = append(cases, big)

	for i, b := range cases {
		want := ref(b)
		if got := fnvSparse(fnvOffset64, b); got != want {
			t.Fatalf("case %d (len %d): fnvSparse %#x, stdlib %#x", i, len(b), got, want)
		}
		if got := fnvBytes(fnvOffset64, b); got != want {
			t.Fatalf("case %d (len %d): fnvBytes %#x, stdlib %#x", i, len(b), got, want)
		}
	}

	// WriteZeros is exactly hashing n zero bytes, from any start state.
	for _, n := range []int{0, 1, 8, 63, 1 << 10, 1 << 20, 63 << 20} {
		d := newFNVDigest()
		d.Write([]byte("seed state"))
		h := d.Sum64()
		d.WriteZeros(n)
		if got, want := d.Sum64(), fnvBytes(h, make([]byte, n)); got != want {
			t.Fatalf("WriteZeros(%d): %#x, want %#x", n, got, want)
		}
	}
}

// TestFrameDigestMatchesStdlib pins FrameDigest to hash/fnv's New64a
// on frame-sized inputs: EvFrame digests are recorded inside traces, so
// switching their hash implementation must not change a byte.
func TestFrameDigestMatchesStdlib(t *testing.T) {
	x := uint64(0x2545F4914F6CDD1D)
	for _, n := range []int{0, 1, 14, 42, 60, 64, 590, 1500, 1514, 1518, 9018} {
		frame := make([]byte, n)
		for i := range frame {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			frame[i] = byte(x)
		}
		for _, b := range [][]byte{frame, make([]byte, n)} {
			h := fnv.New64a()
			h.Write(b)
			if got, want := FrameDigest(b), h.Sum64(); got != want {
				t.Fatalf("%d-byte frame: FrameDigest %#x, hash/fnv %#x", n, got, want)
			}
		}
	}
}

// TestFrameDigestGroups pins the recorder's grouped frame digests: the
// frame tap holds up to three frame copies and hashes every fourth
// frame's group in one pass, and flushEvents digests the frames still
// held. Frames of every awkward length, a count that is not a multiple
// of four, timer events shifting the groups, and a batch size (5) that
// cuts through groups must all record FrameDigest of the frame as
// transmitted, even though the tap's slice is overwritten after each
// call. A broken stream drops held frames instead of keeping them.
func TestFrameDigestGroups(t *testing.T) {
	m, v := buildTrapDense(t, false)
	rec := startMem(t, m, v, nil, Options{EventBatch: 5})
	lens := []int{0, 1, 7, 8, 1066, 1514}
	x := uint64(0x9E3779B97F4A7C15)
	var want []uint64
	for i := 0; i < 23; i++ {
		frame := make([]byte, lens[i%len(lens)])
		for j := range frame {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			frame[j] = byte(x)
		}
		want = append(want, FrameDigest(frame))
		rec.frame(frame)
		for j := range frame {
			frame[j] = ^frame[j]
		}
		if rec.nheld > len(rec.held) || rec.nheld > rec.PendingEvents() {
			t.Fatalf("frame %d: %d frame copies held, %d events pending", i, rec.nheld, rec.PendingEvents())
		}
		if i%5 == 2 {
			rec.append(Event{Kind: EvTimer})
		}
	}
	var got []uint64
	for _, ev := range readBack(t, rec.finish(t)).Events {
		if ev.Kind == EvFrame {
			got = append(got, ev.Digest)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d frame events, tapped %d frames", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d (%d bytes): recorded digest %#x, FrameDigest %#x",
				i, lens[i%len(lens)], got[i], want[i])
		}
	}

	// Over a sink that fails right after the header, frames held when
	// the error latches are dropped with their events.
	m2, v2 := buildTrapDense(t, false)
	broken, err := NewStreamRecorder(&failWriter{limit: int64(headerLen)}, m2, v2, nil, TraceMeta{Custom: true}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	broken.Start()
	for deadline := time.Now().Add(10 * time.Second); broken.Err() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sink never failed")
		}
	}
	frame := bytes.Repeat([]byte{0xA5}, 64)
	for i := 0; i < 3; i++ {
		broken.frame(frame)
	}
	if broken.nheld != 0 || broken.PendingEvents() != 0 {
		t.Fatalf("broken stream holds %d frames and %d events", broken.nheld, broken.PendingEvents())
	}
	if _, err := broken.FinishStream(); err == nil {
		t.Fatal("FinishStream over a failing sink reported success")
	}
}

// TestDigestCoverageExact pins the write-coverage fast path end to end:
// after a real recorded run, Digest — which skips every 1 MB block the
// CPU's coverage map proves untouched — must equal the digest of the
// same machine with coverage forced to "everything written" (a full
// sparse scan of installed RAM).
func TestDigestCoverageExact(t *testing.T) {
	m, v := buildTrapDense(t, false)
	if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
		t.Fatalf("run: stop %v", reason)
	}
	fast := Digest(m, v)
	cov := m.CPU.WriteCoverage()
	if cov == 0 {
		t.Fatal("run left no write coverage; the fast path was never exercised")
	}
	m.CPU.SetWriteCoverage(^uint64(0))
	full := Digest(m, v)
	if fast != full {
		t.Fatalf("coverage-pruned digest %#x, full-scan digest %#x (coverage %#x)", fast, full, cov)
	}

	// Restore recomputes coverage from the snapshot's chunks; the digest
	// must survive a snapshot/restore round trip with pruning active.
	m.CPU.SetWriteCoverage(cov)
	snap := m.Snapshot()
	vs := v.Snapshot()
	m2, v2 := buildTrapDense(t, false)
	m2.Restore(snap)
	v2.Restore(vs)
	if got := Digest(m2, v2); got != full {
		t.Fatalf("digest after restore %#x, want %#x", got, full)
	}
}
