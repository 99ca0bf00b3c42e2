package netsim

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"lvmm/internal/isa"
)

func buildTestFrame(t *testing.T, payload []byte, offloaded bool) []byte {
	t.Helper()
	hdr := BuildHeaderTemplate(DefaultFlow(), len(payload))
	frame := append(append([]byte{}, hdr...), payload...)
	if offloaded {
		OffloadChecksums(frame)
	}
	return frame
}

func TestHeaderTemplate(t *testing.T) {
	h := BuildHeaderTemplate(DefaultFlow(), 1024)
	if len(h) != HeadersLen {
		t.Fatalf("header length %d", len(h))
	}
	if binary.BigEndian.Uint16(h[12:14]) != EtherTypeIPv4 {
		t.Fatal("ethertype wrong")
	}
	ip := h[EthHeaderLen:]
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		t.Fatal("IPv4 header checksum not valid")
	}
	if got := binary.BigEndian.Uint16(ip[2:4]); got != IPv4HeaderLen+UDPHeaderLen+1024 {
		t.Fatalf("IP total length %d", got)
	}
}

func TestParseFrameRoundTrip(t *testing.T) {
	payload := make([]byte, 256)
	FillPattern(payload, 0)
	frame := buildTestFrame(t, payload, false)
	p, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UDPChecksumOK {
		t.Fatal("zero checksum should be acceptable")
	}
	if len(p.Payload) != 256 || CheckPattern(p.Payload, 0) != -1 {
		t.Fatal("payload mangled")
	}
	if p.Flow.DstPort != 5004 {
		t.Fatalf("dst port %d", p.Flow.DstPort)
	}
}

func TestOffloadChecksumsValidate(t *testing.T) {
	payload := make([]byte, 999) // odd length exercises padding
	FillPattern(payload, 12345)
	frame := buildTestFrame(t, payload, true)
	udp := frame[EthHeaderLen+IPv4HeaderLen:]
	if binary.BigEndian.Uint16(udp[6:8]) == 0 {
		t.Fatal("offload did not fill UDP checksum")
	}
	p, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UDPChecksumOK {
		t.Fatal("offloaded checksum did not verify")
	}
}

func TestCorruptedChecksumDetected(t *testing.T) {
	payload := make([]byte, 64)
	frame := buildTestFrame(t, payload, true)
	frame[len(frame)-1] ^= 0xFF
	p, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDPChecksumOK {
		t.Fatal("corruption not detected")
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame(make([]byte, 10)); err == nil {
		t.Error("short frame accepted")
	}
	frame := buildTestFrame(t, make([]byte, 32), false)
	frame[12] = 0x86 // wrong ethertype
	if _, err := ParseFrame(frame); err == nil {
		t.Error("wrong ethertype accepted")
	}
	frame2 := buildTestFrame(t, make([]byte, 32), false)
	frame2[EthHeaderLen+10] ^= 0xFF // break IP checksum
	if _, err := ParseFrame(frame2); err == nil {
		t.Error("broken IP checksum accepted")
	}
}

// A guest writes the UDP length field, so offload must survive any value
// in it: a length that does not fit the frame leaves the UDP checksum
// field as the guest wrote it, while the IPv4 header checksum is still
// filled in.
func TestOffloadChecksumsBadUDPLength(t *testing.T) {
	for _, udpLen := range []uint16{0, 7, 73, 200, 65535} {
		frame := buildTestFrame(t, make([]byte, 64), false) // 106 bytes
		udp := frame[EthHeaderLen+IPv4HeaderLen:]
		binary.BigEndian.PutUint16(udp[4:6], udpLen)
		binary.BigEndian.PutUint16(udp[6:8], 0xBEEF)
		frame[EthHeaderLen+10] ^= 0xFF // stale IPv4 header checksum
		OffloadChecksums(frame)
		if Checksum(frame[EthHeaderLen:HeadersLen-UDPHeaderLen]) != 0 {
			t.Errorf("UDP length %d: IPv4 header checksum not filled", udpLen)
		}
		if got := binary.BigEndian.Uint16(udp[6:8]); got != 0xBEEF {
			t.Errorf("UDP length %d: UDP checksum field %#04x, want the guest's 0xbeef", udpLen, got)
		}
		if _, ok := UDPChecksum(frame); ok {
			t.Errorf("UDP length %d: UDPChecksum reported a checksum", udpLen)
		}
	}
	// The largest length that fits still gets a checksum.
	frame := buildTestFrame(t, make([]byte, 64), false)
	binary.BigEndian.PutUint16(frame[EthHeaderLen+IPv4HeaderLen+4:], 72)
	OffloadChecksums(frame)
	if binary.BigEndian.Uint16(frame[EthHeaderLen+IPv4HeaderLen+6:]) == 0 {
		t.Error("UDP length 72 of 72: checksum not filled")
	}
}

// An IPv4 total length below the IPv4 and UDP headers is refused. Below
// 20 it used to panic; from 20 to 27 the UDP length was read from bytes
// past the datagram. The frame's capacity equals its length, as the NIC
// delivers it, so any read past the end panics.
func TestParseFrameShortIPTotalLength(t *testing.T) {
	for _, total := range []uint16{0, 1, 19, 20, 21, 25, 27} {
		frame := buildTestFrame(t, make([]byte, 0), false) // 42 bytes
		ip := frame[EthHeaderLen:]
		binary.BigEndian.PutUint16(ip[2:4], total)
		ip[10], ip[11] = 0, 0
		binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
		frame = frame[:len(frame):len(frame)]
		if _, err := ParseFrame(frame); err == nil {
			t.Errorf("IP total length %d accepted", total)
		}
		r := NewReceiver()
		r.Deliver(frame, 0)
		if r.ParseErrors != 1 {
			t.Errorf("IP total length %d: receiver ParseErrors = %d", total, r.ParseErrors)
		}
	}
	frame := buildTestFrame(t, make([]byte, 0), false)
	if p, err := ParseFrame(frame[:len(frame):len(frame)]); err != nil || len(p.Payload) != 0 {
		t.Fatalf("IP total length 28: %v", err)
	}
}

// Property: the checksum of any buffer with its own checksum appended
// verifies to zero (ones'-complement identity).
func TestChecksumProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		c := Checksum(data)
		withSum := append(append([]byte{}, data...), byte(c>>8), byte(c))
		return Checksum(withSum) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternDeterministicAndVarying(t *testing.T) {
	if PatternByte(42) != PatternByte(42) {
		t.Fatal("pattern not deterministic")
	}
	same := 0
	for i := uint64(0); i < 256; i++ {
		if PatternByte(i) == PatternByte(i+1) {
			same++
		}
	}
	if same > 32 {
		t.Fatalf("pattern too repetitive: %d/256 adjacent equal", same)
	}
	buf := make([]byte, 128)
	FillPattern(buf, 1000)
	if CheckPattern(buf, 1000) != -1 {
		t.Fatal("self check failed")
	}
	buf[77] ^= 1
	if CheckPattern(buf, 1000) != 77 {
		t.Fatal("mismatch index wrong")
	}
}

func TestReceiverHappyPath(t *testing.T) {
	r := NewReceiver()
	volOff := uint32(0)
	for seq := uint32(0); seq < 5; seq++ {
		payload := make([]byte, 1024)
		FillPattern(payload, uint64(volOff))
		binary.LittleEndian.PutUint32(payload[0:4], seq)
		binary.LittleEndian.PutUint32(payload[4:8], volOff)
		frame := buildTestFrame(t, payload, true)
		r.Deliver(frame, uint64(seq)*1000)
		volOff += 1024
	}
	if !r.Clean() {
		t.Fatalf("receiver unhappy: %s", r.LastError())
	}
	if r.Frames != 5 || r.PayloadBytes != 5*1024 {
		t.Fatalf("frames=%d payload=%d", r.Frames, r.PayloadBytes)
	}
}

func TestReceiverDetectsSequenceGap(t *testing.T) {
	r := NewReceiver()
	for _, seq := range []uint32{0, 2} {
		payload := make([]byte, 64)
		FillPattern(payload, 0)
		binary.LittleEndian.PutUint32(payload[0:4], seq)
		binary.LittleEndian.PutUint32(payload[4:8], 0)
		r.Deliver(buildTestFrame(t, payload, true), 0)
	}
	if r.SeqErrors != 1 {
		t.Fatalf("SeqErrors = %d", r.SeqErrors)
	}
}

func TestReceiverDetectsPatternCorruption(t *testing.T) {
	r := NewReceiver()
	payload := make([]byte, 64)
	FillPattern(payload, 0)
	binary.LittleEndian.PutUint32(payload[0:4], 0)
	binary.LittleEndian.PutUint32(payload[4:8], 0)
	payload[32] ^= 0xFF
	r.Deliver(buildTestFrame(t, payload, false), 0)
	if r.PatternErrors != 1 {
		t.Fatalf("PatternErrors = %d", r.PatternErrors)
	}
}

func TestReceiverRate(t *testing.T) {
	r := NewReceiver()
	payload := make([]byte, 1024+StampLen)
	FillPattern(payload, 0)
	binary.LittleEndian.PutUint32(payload[0:4], 0)
	binary.LittleEndian.PutUint32(payload[4:8], 0)
	r.Deliver(buildTestFrame(t, payload, true), 0)
	// One 1032-byte payload over 1 ms = ~8.26 Mb/s.
	rate := r.RateMbps(isa.ClockHz / 1000)
	if rate < 8 || rate > 9 {
		t.Fatalf("rate = %v", rate)
	}
}
