package replay

import "encoding/binary"

// FNV-1a parameters, matching hash/fnv's 64-bit variant. Digest values
// are recorded inside traces (end seals, frame events), so the hash
// function is part of the trace format and can never change — the fast
// paths below are exact reimplementations, pinned against hash/fnv by
// TestFNVZeroSkipMatchesStdlib and end-to-end by the v2 golden replay.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvPow[k] = fnvPrime64^(2^k) mod 2^64, so a run of n zero bytes —
// each contributing h = (h XOR 0) * prime — collapses to one modular
// exponentiation: h *= prime^n.
var fnvPow = func() [64]uint64 {
	var p [64]uint64
	p[0] = fnvPrime64
	for k := 1; k < 64; k++ {
		p[k] = p[k-1] * p[k-1]
	}
	return p
}()

// fnvSkipZeros advances h over n zero bytes in O(log n) multiplies.
func fnvSkipZeros(h uint64, n int) uint64 {
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			h *= fnvPow[k]
		}
	}
	return h
}

// fnvBytes folds b into h one byte at a time (the definition).
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fnvSparse folds b into h, skipping runs of zero bytes via
// fnvSkipZeros. Guest RAM is mostly zero (the kernel and its working
// set occupy a few MB of a 64 MB machine), so hashing it byte-by-byte
// is the recorder's single largest cost; this alternates between
// counting zero words (collapsed to modular exponentiation) and
// hashing maximal nonzero spans in one pass each. Output is identical
// to fnvBytes for every input — a zero word inside a data region takes
// the skip path, which is the same math.
func fnvSparse(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		// Zero run: count word-wise (64-byte strides, slice-advanced so
		// the bounds checks vanish), collapse to one exponentiation.
		z := b
		for len(z) >= 64 {
			x := binary.LittleEndian.Uint64(z) |
				binary.LittleEndian.Uint64(z[8:]) |
				binary.LittleEndian.Uint64(z[16:]) |
				binary.LittleEndian.Uint64(z[24:]) |
				binary.LittleEndian.Uint64(z[32:]) |
				binary.LittleEndian.Uint64(z[40:]) |
				binary.LittleEndian.Uint64(z[48:]) |
				binary.LittleEndian.Uint64(z[56:])
			if x != 0 {
				break
			}
			z = z[64:]
		}
		for len(z) >= 8 && binary.LittleEndian.Uint64(z) == 0 {
			z = z[8:]
		}
		if n := len(b) - len(z); n > 0 {
			h = fnvSkipZeros(h, n)
			b = z
			continue
		}
		// Nonzero span: extend to the next zero word, hash it whole.
		n := 8
		for len(b)-n >= 8 && binary.LittleEndian.Uint64(b[n:]) != 0 {
			n += 8
		}
		h = fnvBytes(h, b[:n])
		b = b[n:]
	}
	return fnvBytes(h, b)
}

// fnvDigest is a drop-in accumulator replacing hash/fnv for Digest:
// identical output, plus the sparse fast path for RAM.
type fnvDigest struct{ h uint64 }

func newFNVDigest() *fnvDigest { return &fnvDigest{h: fnvOffset64} }

func (d *fnvDigest) Write(b []byte)       { d.h = fnvBytes(d.h, b) }
func (d *fnvDigest) WriteSparse(b []byte) { d.h = fnvSparse(d.h, b) }

// WriteZeros folds n zero bytes into the digest without reading any
// memory — for regions the caller proves are zero (RAM blocks the
// CPU's write-coverage map says were never written).
func (d *fnvDigest) WriteZeros(n int) { d.h = fnvSkipZeros(d.h, n) }

func (d *fnvDigest) Sum64() uint64 { return d.h }

// fnvBytes4 is four independent fnvBytes chains from the offset basis,
// one per input, run in one interleaved pass. FNV-1a is a serial chain
// of multiplies, so one chain waits out the multiply latency on every
// byte; four chains fill those stalls with each other's work and hash
// about four times the bytes per second. Output equals FrameDigest of
// each input.
func fnvBytes4(a, b, c, d []byte) (uint64, uint64, uint64, uint64) {
	ha, hb, hc, hd := fnvOffset64, fnvOffset64, fnvOffset64, fnvOffset64
	n := min(len(a), len(b), len(c), len(d))
	a4, b4, c4, d4 := a[:n], b[:n], c[:n], d[:n]
	for i := range a4 {
		ha = (ha ^ uint64(a4[i])) * fnvPrime64
		hb = (hb ^ uint64(b4[i])) * fnvPrime64
		hc = (hc ^ uint64(c4[i])) * fnvPrime64
		hd = (hd ^ uint64(d4[i])) * fnvPrime64
	}
	return fnvBytes(ha, a[n:]), fnvBytes(hb, b[n:]), fnvBytes(hc, c[n:]), fnvBytes(hd, d[n:])
}
