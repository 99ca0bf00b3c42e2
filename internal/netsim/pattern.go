package netsim

import (
	"encoding/binary"
	"math/bits"
)

// The streaming workload reads from a striped "media volume". Its contents
// are a deterministic pattern of the absolute volume offset, so the
// receiver can verify end-to-end data integrity (disk DMA → guest copy →
// NIC DMA → wire) without any side channel: a corrupted byte anywhere in
// the pipeline shows up as a pattern mismatch.

// Pattern constants: byte i of a seeded volume is the top byte of
// (off+i + seed·patSeedMul)·patMul + patAdd. patStep is 8·patMul mod
// 2⁶⁴, the advance from one 8-byte word to the next.
const (
	patSeedMul = 0xA24BAED4963EE407
	patMul     = 0x9E3779B97F4A7C15
	patAdd     = 0xDEADBEEF
	patStep    = patMul * 8 & (1<<64 - 1)

	patLow56 = 1<<56 - 1
	bytesLo7 = 0x7F7F7F7F7F7F7F7F
	bytesOne = 0x0101010101010101
)

// The word kernels build eight pattern bytes at once from a table of
// carries. Write x = xh·2⁵⁶ + xl, with xh its top byte, and k·patMul mod
// 2⁶⁴ = mh_k·2⁵⁶ + ml_k. Byte k of the word starting at x is the top
// byte of x + k·patMul, which is (xh + mh_k + c_k) mod 256 with the
// carry c_k = [xl + ml_k ≥ 2⁵⁶] = [xl ≥ 2⁵⁶ − ml_k]. The vector of
// mh_k + c_k over k depends on xl alone and changes only where xl
// crosses one of the seven thresholds 2⁵⁶ − ml_k. Split xl into 256
// buckets by its top byte: each bucket holds at most one threshold (the
// table's construction checks it), so its vector is one of two values,
// picked by one compare. The word is then the vector plus xh broadcast
// to every byte, added bytewise without carries between bytes.

// patCarry is one bucket of the carry table.
type patCarry struct {
	t      uint64 // the threshold inside the bucket, or 2⁵⁶ if none
	lo, hi uint64 // bytewise mh_k + c_k for xl below t and at or above it
}

var patTable = buildPatTable()

func buildPatTable() [256]patCarry {
	var tab [256]patCarry
	for b := range tab {
		start, end := uint64(b)<<48, uint64(b+1)<<48
		e := patCarry{t: 1 << 56}
		for k := uint64(1); k < 8; k++ {
			m := k * patMul
			lo, hi, t := m>>56, m>>56, 1<<56-m&patLow56
			switch {
			case t <= start: // the whole bucket carries
				lo, hi = lo+1, hi+1
			case t < end: // the threshold splits the bucket
				if e.t != 1<<56 {
					panic("netsim: two pattern carry thresholds in one bucket")
				}
				e.t, hi = t, hi+1
			}
			e.lo |= lo & 0xFF << (8 * k)
			e.hi |= hi & 0xFF << (8 * k)
		}
		tab[b] = e
	}
	return tab
}

// PatternByte returns the volume content byte at absolute offset off.
func PatternByte(off uint64) byte { return PatternByteSeeded(off, 0) }

// PatternByteSeeded returns the volume content byte at absolute offset
// off for the given content seed. Fleet scenarios use distinct seeds to
// stream distinct (but equally deterministic) volume contents through
// the same pipeline: the data path cost is content-independent, so the
// simulated metrics do not depend on the seed, while end-to-end
// validation still catches any corruption.
func PatternByteSeeded(off, seed uint64) byte {
	// A cheap mix of the offset; distinct from simple counters so that
	// off-by-one and wrong-stride bugs cannot alias to a match. The
	// seed enters pre-multiply so adjacent seeds diverge everywhere.
	x := (off + seed*patSeedMul) * patMul
	return byte((x + patAdd) >> 56)
}

// FillPattern fills buf with the volume pattern starting at offset off.
func FillPattern(buf []byte, off uint64) { FillPatternSeeded(buf, off, 0) }

// FillPatternSeeded fills buf with the seeded volume pattern, bit for bit
// the PatternByteSeeded sequence, a word per step through the carry table
// (see patCarry): a lookup, a compare, a broadcast multiply and a
// carry-free bytewise add build eight bytes, stored at once, and x
// advances by patStep. Disk reads regenerate volume content through this
// on every DMA, so it is on the simulation hot path.
//
// The word expression is repeated in checkPatternSum rather than shared
// through a helper: profiles attribute an inlined helper to its own
// frame, and the benchmark's layer split tells fill from receive by the
// function name.
func FillPatternSeeded(buf []byte, off, seed uint64) {
	x := (off+seed*patSeedMul)*patMul + patAdd
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		c := &patTable[uint8(x>>48)]
		v := c.lo
		if x&patLow56 >= c.t {
			v = c.hi
		}
		h := x >> 56 * bytesOne
		binary.LittleEndian.PutUint64(buf[i:i+8], (h&bytesLo7+v&bytesLo7)^(h^v)&^bytesLo7)
		x += patStep
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> 56)
		x += patMul
	}
}

// CheckPattern verifies buf against the pattern starting at off, returning
// the index of the first mismatch or -1 if it matches.
func CheckPattern(buf []byte, off uint64) int {
	return CheckPatternSeeded(buf, off, 0)
}

// CheckPatternSeeded verifies buf against the seeded pattern, returning
// the index of the first mismatching byte or -1.
func CheckPatternSeeded(buf []byte, off, seed uint64) int {
	i, _ := checkPatternSum(buf, off, seed, 0)
	return i
}

// checkPatternSum verifies buf against the seeded pattern and adds buf
// into the running checksum sum as SumBytes would, in one pass: the
// receiver validates and checksums each payload byte with one load. It
// returns the index of the first mismatching byte, or -1, and the new
// sum. buf must start at an even offset of the checksummed data, since
// its words pair from its first byte.
//
// Each expected word is built as FillPatternSeeded builds it and compared
// with the loaded one; the lowest set byte of a nonzero difference is the
// first mismatch, since the words are little-endian. The loaded word's
// 32-bit halves go into a little-endian accumulator, as in SumBytes. Past
// a mismatch SumBytes sums the rest.
func checkPatternSum(buf []byte, off, seed uint64, sum uint32) (int, uint32) {
	x := (off+seed*patSeedMul)*patMul + patAdd
	var acc, d uint64
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		c := &patTable[uint8(x>>48)]
		v := c.lo
		if x&patLow56 >= c.t {
			v = c.hi
		}
		h := x >> 56 * bytesOne
		w := binary.LittleEndian.Uint64(buf[i : i+8])
		if d = w ^ (h&bytesLo7 + v&bytesLo7) ^ (h^v)&^bytesLo7; d != 0 {
			break
		}
		acc += w>>32 + w&0xFFFFFFFF
		x += patStep
	}
	if d != 0 {
		return i + bits.TrailingZeros64(d)/8, SumBytes(addLE(sum, acc), buf[i:])
	}
	first := -1
	for ; i < len(buf); i++ {
		if first < 0 && buf[i] != byte(x>>56) {
			first = i
		}
		acc += uint64(buf[i]) << (i & 1 * 8)
		x += patMul
	}
	return first, addLE(sum, acc)
}
