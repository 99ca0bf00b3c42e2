package netsim

import (
	"math/rand"
	"testing"
)

// The data-path kernels (FillPatternSeeded, CheckPatternSeeded, SumBytes)
// work a 64-bit word per step. These tests hold them to the byte-at-a-time
// definitions written out below.

// refFill is the pattern by its definition, one PatternByteSeeded per byte.
func refFill(n int, off, seed uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = PatternByteSeeded(off+uint64(i), seed)
	}
	return b
}

// refCheck is the first index where buf differs from the pattern, or -1.
func refCheck(buf []byte, off, seed uint64) int {
	for i, c := range buf {
		if c != PatternByteSeeded(off+uint64(i), seed) {
			return i
		}
	}
	return -1
}

// refSum adds data as pairwise big-endian 16-bit words, the odd tail byte
// zero-padded, to init in 64 bits: the exact sum, which cannot overflow at
// any length a test uses.
func refSum(init uint64, data []byte) uint64 {
	for i := 0; i < len(data); i += 2 {
		w := uint64(data[i]) << 8
		if i+1 < len(data) {
			w |= uint64(data[i+1])
		}
		init += w
	}
	return init
}

// refFinish folds an exact sum to 16 bits with end-around carry and
// complements it.
func refFinish(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// checkKernels asserts every kernel against its reference on one input:
// data is both a buffer to check as is and a corruption mask XORed over a
// clean pattern buffer.
func checkKernels(t *testing.T, data []byte, off, seed uint64, init uint32) {
	t.Helper()
	want := refFill(len(data), off, seed)
	got := make([]byte, len(data))
	FillPatternSeeded(got, off, seed)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("fill len=%d off=%#x seed=%#x: byte %d = %#02x, want %#02x", len(data), off, seed, i, got[i], want[i])
	}
	if i := CheckPatternSeeded(want, off, seed); i != -1 {
		t.Fatalf("check len=%d off=%#x seed=%#x: clean buffer mismatch at %d", len(data), off, seed, i)
	}
	if got, want := CheckPatternSeeded(data, off, seed), refCheck(data, off, seed); got != want {
		t.Fatalf("check len=%d off=%#x seed=%#x on raw data: %d, want %d", len(data), off, seed, got, want)
	}
	corrupt := append([]byte(nil), want...)
	wantIdx := -1
	for i, m := range data {
		corrupt[i] ^= m
		if m != 0 && wantIdx < 0 {
			wantIdx = i
		}
	}
	if got := CheckPatternSeeded(corrupt, off, seed); got != wantIdx {
		t.Fatalf("check len=%d off=%#x seed=%#x on corrupted pattern: %d, want %d", len(data), off, seed, got, wantIdx)
	}
	exact := refSum(uint64(init), data)
	s := SumBytes(init, data)
	if got, want := FinishChecksum(s), refFinish(exact); got != want {
		t.Fatalf("sum len=%d init=%#x: checksum %#04x, want %#04x", len(data), init, got, want)
	}
	if uint64(s)%0xFFFF != exact%0xFFFF || (s == 0) != (exact == 0) {
		t.Fatalf("sum len=%d init=%#x: running sum %#x not congruent to exact %#x", len(data), init, s, exact)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

var kernelSeeds = []uint64{0, 1, ^uint64(0)}

func TestKernelsEveryShortLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range kernelSeeds {
		for n := 0; n <= 64; n++ {
			checkKernels(t, randBytes(rng, n), rng.Uint64(), seed, 0)
			checkKernels(t, make([]byte, n), uint64(n), seed, rng.Uint32())
		}
	}
}

func TestKernelsLengthSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, seed := range kernelSeeds {
		for n := 65; n <= 2100; n += 1 + n/64 {
			checkKernels(t, randBytes(rng, n), rng.Uint64(), seed, rng.Uint32())
		}
	}
}

func TestKernelsUnalignedSubslices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 1024, 1031} {
		for k := 1; k <= 7; k++ {
			off, seed := rng.Uint64(), rng.Uint64()
			backing := make([]byte, n+k)
			buf := backing[k:]
			FillPatternSeeded(buf, off, seed)
			if i := firstDiff(buf, refFill(n, off, seed)); i >= 0 {
				t.Fatalf("fill buf[%d:] len=%d: byte %d wrong", k, n, i)
			}
			if i := CheckPatternSeeded(buf, off, seed); i != -1 {
				t.Fatalf("check buf[%d:] len=%d: clean mismatch at %d", k, n, i)
			}
			copy(backing[k:], randBytes(rng, n))
			checkKernels(t, buf, off, seed, rng.Uint32())
		}
	}
}

func TestKernelsOffsetWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, seed := range kernelSeeds {
		for back := uint64(0); back <= 40; back++ {
			off := -back // the buffer crosses 2⁶⁴ unless back is 0
			checkKernels(t, randBytes(rng, 48), off, seed, 0)
		}
	}
}

func TestCheckPatternFirstOfSeveralInWord(t *testing.T) {
	for _, seed := range kernelSeeds {
		for first := 0; first < 64; first++ {
			buf := make([]byte, 72)
			FillPatternSeeded(buf, 1000, seed)
			// Corrupt the first byte and up to two later ones in the
			// same word; the masks differ pairwise, so no combination
			// of them cancels where positions coincide.
			buf[first] ^= 0x01
			buf[first|5] ^= 0x5A
			buf[first|7] ^= 0xC3
			if got := CheckPatternSeeded(buf, 1000, seed); got != first {
				t.Fatalf("seed=%#x: first mismatch %d, want %d", seed, got, first)
			}
		}
	}
}

func TestSumBytesOddLengthsAndInitialSums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inits := []uint32{0, 1, 0xFFFF, 0x10000, 0xFFFFFFFF, 0xFFFF0000}
	for n := 1; n <= 257; n += 2 {
		for _, init := range inits {
			checkKernels(t, randBytes(rng, n), 0, 0, init)
		}
	}
}

// Regression: a 32-bit accumulator wraps after 65 537 words of 0xFFFF,
// dropping a carry, so 131 076 bytes of 0xFF checksummed to 0x0001.
func TestSumBytesNoOverflowPast128KiB(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{131076, 262144} {
		ones := make([]byte, n)
		for i := range ones {
			ones[i] = 0xFF
		}
		for _, data := range [][]byte{ones, randBytes(rng, n)} {
			exact := refSum(0, data)
			if got, want := Checksum(data), refFinish(exact); got != want {
				t.Fatalf("len=%d: checksum %#04x, want %#04x", n, got, want)
			}
		}
		if got := Checksum(ones); got != 0 {
			t.Fatalf("len=%d of 0xFF: checksum %#04x, want 0", n, got)
		}
	}
}

func FuzzNetsimKernels(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint32(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, ^uint64(0)-1, uint64(1), uint32(0xFFFFFFFF))
	f.Add([]byte("0123456789abcdef0123"), uint64(1<<63), ^uint64(0), uint32(0xFFFF))
	f.Fuzz(func(t *testing.T, data []byte, off, seed uint64, init uint32) {
		checkKernels(t, data, off, seed, init)
	})
}

var benchSizes = []struct {
	name string
	n    int
}{{"1KiB", 1 << 10}, {"4KiB", 4 << 10}}

var benchSink int

func BenchmarkFillPattern(b *testing.B) {
	for _, s := range benchSizes {
		b.Run(s.name, func(b *testing.B) {
			buf := make([]byte, s.n)
			b.SetBytes(int64(s.n))
			for i := 0; i < b.N; i++ {
				FillPatternSeeded(buf, uint64(i)*uint64(s.n), 1)
			}
		})
	}
}

func BenchmarkCheckPattern(b *testing.B) {
	for _, s := range benchSizes {
		b.Run(s.name, func(b *testing.B) {
			buf := make([]byte, s.n)
			FillPatternSeeded(buf, 4096, 1)
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += CheckPatternSeeded(buf, 4096, 1)
			}
		})
	}
}

func BenchmarkSumBytes(b *testing.B) {
	for _, s := range benchSizes {
		b.Run(s.name, func(b *testing.B) {
			buf := make([]byte, s.n)
			FillPatternSeeded(buf, 0, 1)
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += int(SumBytes(uint32(i), buf))
			}
		})
	}
}
