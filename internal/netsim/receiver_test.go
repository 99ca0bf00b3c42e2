package netsim

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// refDeliver is Receiver.Deliver by its definition, on the state it
// validates: header fields read one at a time, the UDP checksum from
// refSum over the pseudo-header and datagram, the payload from refCheck.
func refDeliver(s *ReceiverState, seed uint64, frame []byte, cycle uint64) {
	if s.Frames == 0 {
		s.FirstCycle = cycle
	}
	s.LastCycle = cycle
	s.Frames++
	s.WireBytes += uint64(len(frame) + WireOverhead)
	fail := func(msg string) {
		s.ParseErrors++
		s.LastError = msg
	}
	be16 := func(i int) int { return int(frame[i])<<8 | int(frame[i+1]) }
	if len(frame) < 42 {
		fail(fmt.Sprintf("netsim: frame too short (%d bytes)", len(frame)))
		return
	}
	if et := be16(12); et != 0x0800 {
		fail(fmt.Sprintf("netsim: ethertype 0x%04x not IPv4", et))
		return
	}
	if frame[14] != 0x45 {
		fail(fmt.Sprintf("netsim: unsupported IP version/IHL 0x%02x", frame[14]))
		return
	}
	if refFinish(refSum(0, frame[14:34])) != 0 {
		fail("netsim: bad IPv4 header checksum")
		return
	}
	if frame[23] != 17 {
		fail(fmt.Sprintf("netsim: protocol %d not UDP", frame[23]))
		return
	}
	total := be16(16)
	if total < 28 {
		fail(fmt.Sprintf("netsim: IP total length %d shorter than IPv4+UDP headers", total))
		return
	}
	if 14+total > len(frame) {
		fail(fmt.Sprintf("netsim: IP total length %d exceeds frame", total))
		return
	}
	udpLen := be16(38)
	if udpLen < 8 || udpLen > total-20 {
		fail(fmt.Sprintf("netsim: bad UDP length %d", udpLen))
		return
	}
	udp := frame[34 : 34+udpLen]
	if be16(40) != 0 {
		pseudo := append(append([]byte{}, frame[26:34]...), 0, 17, byte(udpLen>>8), byte(udpLen))
		if refFinish(refSum(refSum(0, pseudo), udp)) != 0 {
			s.ChecksumBad++
			s.LastError = "bad UDP checksum"
			return
		}
	}
	payload := udp[8:]
	s.PayloadBytes += uint64(len(payload))
	if len(payload) < 8 {
		fail("payload shorter than stamp")
		return
	}
	seq := binary.LittleEndian.Uint32(payload[0:4])
	vol := binary.LittleEndian.Uint32(payload[4:8])
	if seq != s.NextSeq {
		s.SeqErrors++
		s.LastError = fmt.Sprintf("sequence %d, expected %d", seq, s.NextSeq)
		s.NextSeq = seq
	}
	s.NextSeq++
	if i := refCheck(payload[8:], uint64(vol)+8, seed); i >= 0 {
		s.PatternErrors++
		s.LastError = fmt.Sprintf("pattern mismatch at payload offset %d (vol 0x%x)", i+8, vol)
	}
}

// fuzzFrame builds a frame from fuzz inputs: a stamped, pattern-filled
// payload of n%1600 bytes behind valid headers, then the edits the flags
// select, in order:
//
//	2   set the IPv4 total length to edit
//	4   set the UDP length to edit
//	1   fill the checksums as the NIC's offload does
//	8   recompute the IPv4 header checksum
//	    XOR mask over the frame from byte at, wrapping
//	16  truncate to edit%(len+1) bytes
//	32  replace the frame with mask, arbitrary bytes
//
// The result's capacity equals its length, as the NIC delivers frames.
func fuzzFrame(n uint16, seq, vol uint32, seed uint64, flags uint8, edit, at uint16, mask []byte) []byte {
	payload := make([]byte, int(n)%1600)
	FillPatternSeeded(payload, uint64(vol), seed)
	var stamp [StampLen]byte
	binary.LittleEndian.PutUint32(stamp[0:4], seq)
	binary.LittleEndian.PutUint32(stamp[4:8], vol)
	copy(payload, stamp[:])
	frame := append(BuildHeaderTemplate(DefaultFlow(), len(payload)), payload...)
	ip := frame[EthHeaderLen:]
	if flags&2 != 0 {
		binary.BigEndian.PutUint16(ip[2:4], edit)
	}
	if flags&4 != 0 {
		binary.BigEndian.PutUint16(ip[IPv4HeaderLen+4:], edit)
	}
	if flags&1 != 0 {
		OffloadChecksums(frame)
	}
	if flags&8 != 0 {
		ip[10], ip[11] = 0, 0
		binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	}
	for i, m := range mask {
		frame[(int(at)+i)%len(frame)] ^= m
	}
	if flags&16 != 0 {
		frame = frame[:int(edit)%(len(frame)+1)]
	}
	if flags&32 != 0 {
		frame = append([]byte(nil), mask...)
	}
	return frame[:len(frame):len(frame)]
}

// FuzzReceiverDeliver holds the one-pass receiver to refDeliver on valid,
// corrupted, truncated and malformed frames: every counter, the next
// sequence number and the last error must agree, and nothing may panic.
// Each frame is delivered twice, so the second copy also exercises a
// sequence error; flag bits 64 and 128 start the receiver out of
// sequence. Every frame goes through each kernel path (eachPath).
// testdata/fuzz holds a seed for each failure class, and pattern
// mismatches in the first and the last full 32-byte block of a payload
// behind a checksum the mismatch leaves valid.
func FuzzReceiverDeliver(f *testing.F) {
	f.Add(uint16(1032), uint32(0), uint32(0), uint64(0), uint8(1), uint16(0), uint16(0), []byte{})
	f.Add(uint16(0), uint32(0), uint32(0), uint64(0), uint8(32), uint16(0), uint16(0), []byte("arbitrary bytes"))
	f.Fuzz(func(t *testing.T, n uint16, seq, vol uint32, seed uint64, flags uint8, edit, at uint16, mask []byte) {
		frame := fuzzFrame(n, seq, vol, seed, flags, edit, at, mask)
		eachPath(func() {
			r := NewReceiver()
			r.PatternSeed = seed
			r.Restore(ReceiverState{NextSeq: seq ^ uint32(flags>>6)})
			want := r.State()
			for c := uint64(1); c <= 2; c++ {
				r.Deliver(frame, c)
				refDeliver(&want, seed, frame, c)
				if got := r.State(); got != want {
					t.Fatalf("%s delivery %d of %d bytes:\n got %+v\nwant %+v", path(), c, len(frame), got, want)
				}
			}
		})
	})
}
