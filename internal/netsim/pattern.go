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
// (off+i + seed·patSeedMul)·patMul + patAdd. The lane constants are
// patMul·k mod 2⁶⁴, the offset of byte k of an 8-byte word from its first.
const (
	patSeedMul = 0xA24BAED4963EE407
	patMul     = 0x9E3779B97F4A7C15
	patAdd     = 0xDEADBEEF

	patLane1 = patMul * 1 & (1<<64 - 1)
	patLane2 = patMul * 2 & (1<<64 - 1)
	patLane3 = patMul * 3 & (1<<64 - 1)
	patLane4 = patMul * 4 & (1<<64 - 1)
	patLane5 = patMul * 5 & (1<<64 - 1)
	patLane6 = patMul * 6 & (1<<64 - 1)
	patLane7 = patMul * 7 & (1<<64 - 1)
	patLane8 = patMul * 8 & (1<<64 - 1)
)

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
// the PatternByteSeeded sequence. The per-byte multiply strength-reduces
// to an add — (base+i+1)·M is (base+i)·M + M — so byte i of a word is the
// top byte of x + i·M: eight independent adds build a little-endian word,
// stored at once, and x advances by 8·M. Disk reads regenerate volume
// content through this on every DMA, so it is on the simulation hot path.
//
// The word expression is repeated in CheckPatternSeeded rather than
// shared through a helper: profiles attribute an inlined helper to its
// own frame, and the benchmark's layer split tells fill from receive by
// the function name.
func FillPatternSeeded(buf []byte, off, seed uint64) {
	x := (off+seed*patSeedMul)*patMul + patAdd
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		w := x>>56 | (x+patLane1)>>56<<8 | (x+patLane2)>>56<<16 | (x+patLane3)>>56<<24 |
			(x+patLane4)>>56<<32 | (x+patLane5)>>56<<40 | (x+patLane6)>>56<<48 | (x+patLane7)>>56<<56
		binary.LittleEndian.PutUint64(buf[i:], w)
		x += patLane8
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
// the index of the first mismatching byte or -1. It builds each expected
// word as FillPatternSeeded does and XORs it with the loaded one; the
// lowest set byte of a nonzero difference is the first mismatch, since
// the words are little-endian.
func CheckPatternSeeded(buf []byte, off, seed uint64) int {
	x := (off+seed*patSeedMul)*patMul + patAdd
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		w := x>>56 | (x+patLane1)>>56<<8 | (x+patLane2)>>56<<16 | (x+patLane3)>>56<<24 |
			(x+patLane4)>>56<<32 | (x+patLane5)>>56<<40 | (x+patLane6)>>56<<48 | (x+patLane7)>>56<<56
		if d := binary.LittleEndian.Uint64(buf[i:]) ^ w; d != 0 {
			return i + bits.TrailingZeros64(d)/8
		}
		x += patLane8
	}
	for ; i < len(buf); i++ {
		if buf[i] != byte(x>>56) {
			return i
		}
		x += patMul
	}
	return -1
}
