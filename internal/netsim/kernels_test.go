package netsim

import (
	"math/rand"
	"testing"
)

// The data-path kernels (FillPatternSeeded, checkPatternSum behind
// CheckPatternSeeded, SumBytes) take whole 32-byte blocks through the
// AVX2 kernels where the CPU has them and the rest a 64-bit word per
// step. These tests hold both paths to the byte-at-a-time definitions
// written out below: eachPath runs an input through the generic word
// loops alone, then, on an AVX2 host, through the block kernels.

// kernelPaths are the settings of useAVX2 this host can run.
var kernelPaths = func() []bool {
	if useAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}()

// eachPath runs f once per kernel path, useAVX2 set to match, and
// restores useAVX2 after.
func eachPath(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, p := range kernelPaths {
		useAVX2 = p
		f()
	}
}

// path names the kernel path in use, for failure messages.
func path() string {
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

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

// checkKernels asserts every kernel on every path against its reference
// on one input: data is both a buffer to check as is and a corruption
// mask XORed over a clean pattern buffer.
func checkKernels(t *testing.T, data []byte, off, seed uint64, init uint32) {
	t.Helper()
	want := refFill(len(data), off, seed)
	corrupt := append([]byte(nil), want...)
	for i, m := range data {
		corrupt[i] ^= m
	}
	got := make([]byte, len(data))
	eachPath(func() {
		FillPatternSeeded(got, off, seed)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%s fill len=%d off=%#x seed=%#x: byte %d = %#02x, want %#02x", path(), len(data), off, seed, i, got[i], want[i])
		}
		for _, buf := range [][]byte{want, data, corrupt} {
			checkCheckSum(t, buf, off, seed, init)
		}
		checkSum(t, data, init)
	})
}

// checkCheckSum asserts the fused pattern check and checksum, and
// CheckPatternSeeded on top of it, against refCheck and refSum.
func checkCheckSum(t *testing.T, buf []byte, off, seed uint64, init uint32) {
	t.Helper()
	wantIdx := refCheck(buf, off, seed)
	if got := CheckPatternSeeded(buf, off, seed); got != wantIdx {
		t.Fatalf("%s check len=%d off=%#x seed=%#x: %d, want %d", path(), len(buf), off, seed, got, wantIdx)
	}
	i, s := checkPatternSum(buf, off, seed, init)
	if i != wantIdx {
		t.Fatalf("%s check+sum len=%d off=%#x seed=%#x: mismatch %d, want %d", path(), len(buf), off, seed, i, wantIdx)
	}
	assertSum(t, "check+sum", buf, init, s)
}

// checkSum asserts SumBytes against refSum.
func checkSum(t *testing.T, data []byte, init uint32) {
	t.Helper()
	assertSum(t, "sum", data, init, SumBytes(init, data))
}

// assertSum asserts that s, a running sum of data from init, is what the
// SumBytes contract says: congruent to the exact sum modulo 0xFFFF, zero
// only when it is, and so finishing to the same checksum.
func assertSum(t *testing.T, what string, data []byte, init, s uint32) {
	t.Helper()
	exact := refSum(uint64(init), data)
	if got, want := FinishChecksum(s), refFinish(exact); got != want {
		t.Fatalf("%s %s len=%d init=%#x: checksum %#04x, want %#04x", path(), what, len(data), init, got, want)
	}
	if uint64(s)%0xFFFF != exact%0xFFFF || (s == 0) != (exact == 0) {
		t.Fatalf("%s %s len=%d init=%#x: running sum %#x not congruent to exact %#x", path(), what, len(data), init, s, exact)
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
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1024, 1031} {
		for k := 1; k <= 7; k++ {
			off, seed := rng.Uint64(), rng.Uint64()
			backing := make([]byte, n+k)
			buf := backing[k:]
			eachPath(func() {
				FillPatternSeeded(buf, off, seed)
				if i := firstDiff(buf, refFill(n, off, seed)); i >= 0 {
					t.Fatalf("%s fill buf[%d:] len=%d: byte %d wrong", path(), k, n, i)
				}
				if i := CheckPatternSeeded(buf, off, seed); i != -1 {
					t.Fatalf("%s check buf[%d:] len=%d: clean mismatch at %d", path(), k, n, i)
				}
			})
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

// The block kernels hand over to the word loops at a block edge, and on
// a mismatch the word loop re-walks the block the kernel stopped at: a
// single wrong byte anywhere in a short buffer, and anywhere in the first
// and the last full block of a payload-sized one, must be the one found.
func TestKernelsBlockEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{31, 32, 33, 63, 64, 65, 1031} {
		for p := 0; p < n; p++ {
			if n > 100 && p >= 32 && p < n&^31-32 {
				continue // between the first and the last full block
			}
			mask := make([]byte, n)
			mask[p] = byte(1 << (p % 8))
			checkKernels(t, mask, rng.Uint64(), kernelSeeds[p%3], rng.Uint32())
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
			eachPath(func() {
				if got := CheckPatternSeeded(buf, 1000, seed); got != first {
					t.Fatalf("%s seed=%#x: first mismatch %d, want %d", path(), seed, got, first)
				}
			})
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

// The carry table must agree with the pattern on both sides of every
// bucket edge and every carry threshold, for top bytes that do and do not
// wrap when the table's vector is added.
func TestPatternCarryTableEdges(t *testing.T) {
	// patMul is odd, so it has an inverse modulo 2⁶⁴ (Newton's iteration
	// doubles the correct low bits each step), and the offset whose
	// pattern word starts at a chosen x is (x − patAdd)·patMul⁻¹.
	inv := uint64(patMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - patMul*inv
	}
	var xls []uint64
	for b := uint64(0); b <= 256; b++ {
		xls = append(xls, b<<48-1, b<<48, b<<48+1)
	}
	for k := uint64(1); k < 8; k++ {
		th := 1<<56 - k*patMul&(1<<56-1)
		xls = append(xls, th-1, th, th+1)
	}
	for _, xl := range xls {
		xl &= 1<<56 - 1
		for _, xh := range []uint64{0, 1, 0x7F, 0x80, 0xC3, 0xFF} {
			off := (xh<<56 | xl - patAdd) * inv
			if off*patMul+patAdd != xh<<56|xl {
				t.Fatalf("no offset found for x=%#x", xh<<56|xl)
			}
			checkKernels(t, make([]byte, 8), off, 0, 0)
		}
	}
}

func FuzzNetsimKernels(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint32(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, ^uint64(0)-1, uint64(1), uint32(0xFFFFFFFF))
	f.Add([]byte("0123456789abcdef0123"), uint64(1<<63), ^uint64(0), uint32(0xFFFF))
	f.Fuzz(func(t *testing.T, data []byte, off, seed uint64, init uint32) {
		checkKernels(t, data, off, seed, init)
		// SumBytes pairs bytes from the start of its slice: sum from odd
		// and even starts, at every alignment of the backing array.
		eachPath(func() {
			for o := 1; o <= 3 && o <= len(data); o++ {
				checkSum(t, data[o:], init)
			}
			for k := 1; k < 8; k++ {
				backing := make([]byte, len(data)+k)
				copy(backing[k:], data)
				checkSum(t, backing[k:], init)
			}
		})
	})
}

var benchSizes = []struct {
	name string
	n    int
}{{"1KiB", 1 << 10}, {"4KiB", 4 << 10}, {"64KiB", 64 << 10}}

var benchSink int

// benchPaths runs f as one sub-benchmark per kernel path and buffer size,
// so the output shows the block kernels' ratio to the word loops.
func benchPaths(b *testing.B, f func(b *testing.B, n int)) {
	eachPath(func() {
		for _, s := range benchSizes {
			b.Run(path()+"/"+s.name, func(b *testing.B) {
				b.SetBytes(int64(s.n))
				f(b, s.n)
			})
		}
	})
}

func BenchmarkFillPattern(b *testing.B) {
	benchPaths(b, func(b *testing.B, n int) {
		buf := make([]byte, n)
		for i := 0; i < b.N; i++ {
			FillPatternSeeded(buf, uint64(i)*uint64(n), 1)
		}
	})
}

func BenchmarkCheckPattern(b *testing.B) {
	benchPaths(b, func(b *testing.B, n int) {
		buf := make([]byte, n)
		FillPatternSeeded(buf, 4096, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += CheckPatternSeeded(buf, 4096, 1)
		}
	})
}

func BenchmarkSumBytes(b *testing.B) {
	benchPaths(b, func(b *testing.B, n int) {
		buf := make([]byte, n)
		FillPatternSeeded(buf, 0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += int(SumBytes(uint32(i), buf))
		}
	})
}
