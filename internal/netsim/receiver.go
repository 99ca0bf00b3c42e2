package netsim

import (
	"encoding/binary"
	"fmt"

	"lvmm/internal/isa"
)

// Receiver is the host at the far end of the gigabit link. It validates
// every frame the guest transmits (headers, checksums, sequence numbers,
// payload pattern) and measures the achieved transfer rate in virtual time.
//
// Each UDP payload begins with an 8-byte trailer the guest stamps:
// a 32-bit sequence number and the 32-bit volume offset of the segment;
// the remaining payload bytes must match the volume pattern.
type Receiver struct {
	// Stats.
	Frames        uint64
	PayloadBytes  uint64 // UDP payload bytes (transfer-rate numerator)
	WireBytes     uint64 // frame + wire overhead bytes
	FirstCycle    uint64
	LastCycle     uint64
	SeqErrors     uint64
	PatternErrors uint64
	ParseErrors   uint64
	ChecksumBad   uint64

	// PatternSeed selects which seeded volume pattern payloads are
	// validated against (configuration, not state: it must match the
	// seed the machine's disks were filled with). Zero is the default
	// volume.
	PatternSeed uint64

	nextSeq   uint32
	lastError string
}

// NewReceiver creates an empty receiver.
func NewReceiver() *Receiver { return &Receiver{} }

// StampLen is the per-segment metadata the guest writes at the start of
// each UDP payload: sequence number and volume offset.
const StampLen = 8

// Deliver consumes one transmitted frame at the given virtual cycle. It
// reads each payload byte once: one loop checks the pattern and sums the
// UDP checksum together (checkPatternSum), and it allocates only to
// describe a failure. Failures rank parse, checksum, short payload,
// sequence, pattern; the first one stops validation, except that a
// sequence error still checks the pattern.
func (r *Receiver) Deliver(frame []byte, cycle uint64) {
	if r.Frames == 0 {
		r.FirstCycle = cycle
	}
	r.LastCycle = cycle
	r.Frames++
	r.WireBytes += uint64(len(frame) + WireOverhead)

	ip, udp, err := parseUDP(frame)
	if err != nil {
		r.ParseErrors++
		r.lastError = err.Error()
		return
	}
	payload := udp[UDPHeaderLen:]
	sum := pseudoSum(ip, len(udp))
	mismatch := -1
	var volOff uint32
	if len(payload) < StampLen {
		sum = SumBytes(sum, udp)
	} else {
		volOff = binary.LittleEndian.Uint32(payload[4:8])
		sum = SumBytes(sum, udp[:UDPHeaderLen+StampLen])
		mismatch, sum = checkPatternSum(payload[StampLen:], uint64(volOff)+StampLen, r.PatternSeed, sum)
	}
	if !udpChecksumOK(udp, sum) {
		r.ChecksumBad++
		r.lastError = "bad UDP checksum"
		return
	}
	r.PayloadBytes += uint64(len(payload))
	if len(payload) < StampLen {
		r.ParseErrors++
		r.lastError = "payload shorter than stamp"
		return
	}
	seq := binary.LittleEndian.Uint32(payload[0:4])
	if seq != r.nextSeq {
		r.SeqErrors++
		r.lastError = fmt.Sprintf("sequence %d, expected %d", seq, r.nextSeq)
		r.nextSeq = seq
	}
	r.nextSeq++
	if mismatch >= 0 {
		r.PatternErrors++
		r.lastError = fmt.Sprintf("pattern mismatch at payload offset %d (vol 0x%x)", mismatch+StampLen, volOff)
	}
}

// ReceiverState is the serializable receiver state (record/replay
// snapshots): rewinding a replayed machine must also rewind the
// validation stream, or replayed frames would arrive out of sequence.
type ReceiverState struct {
	Frames        uint64
	PayloadBytes  uint64
	WireBytes     uint64
	FirstCycle    uint64
	LastCycle     uint64
	SeqErrors     uint64
	PatternErrors uint64
	ParseErrors   uint64
	ChecksumBad   uint64
	NextSeq       uint32
	LastError     string
}

// State captures the receiver.
func (r *Receiver) State() ReceiverState {
	return ReceiverState{
		Frames: r.Frames, PayloadBytes: r.PayloadBytes, WireBytes: r.WireBytes,
		FirstCycle: r.FirstCycle, LastCycle: r.LastCycle,
		SeqErrors: r.SeqErrors, PatternErrors: r.PatternErrors,
		ParseErrors: r.ParseErrors, ChecksumBad: r.ChecksumBad,
		NextSeq: r.nextSeq, LastError: r.lastError,
	}
}

// Restore replaces the receiver state.
func (r *Receiver) Restore(s ReceiverState) {
	r.Frames, r.PayloadBytes, r.WireBytes = s.Frames, s.PayloadBytes, s.WireBytes
	r.FirstCycle, r.LastCycle = s.FirstCycle, s.LastCycle
	r.SeqErrors, r.PatternErrors = s.SeqErrors, s.PatternErrors
	r.ParseErrors, r.ChecksumBad = s.ParseErrors, s.ChecksumBad
	r.nextSeq, r.lastError = s.NextSeq, s.LastError
}

// Clean reports whether every delivered frame validated.
func (r *Receiver) Clean() bool {
	return r.ParseErrors == 0 && r.SeqErrors == 0 && r.PatternErrors == 0 && r.ChecksumBad == 0
}

// LastError describes the most recent validation failure, if any.
func (r *Receiver) LastError() string { return r.lastError }

// RateMbps returns the achieved UDP payload rate in megabits per second
// over a measurement window of the given virtual cycles.
func (r *Receiver) RateMbps(windowCycles uint64) float64 {
	if windowCycles == 0 {
		return 0
	}
	secs := isa.CyclesToSeconds(windowCycles)
	return float64(r.PayloadBytes) * 8 / 1e6 / secs
}
