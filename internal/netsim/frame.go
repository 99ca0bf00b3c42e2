// Package netsim provides the network side of the reproduction: Ethernet/
// IPv4/UDP frame construction and parsing, Internet checksums, the
// deterministic "disk" data pattern, and a receiving sink that validates
// the guest's transmit stream and measures achieved throughput.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Header sizes.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	HeadersLen    = EthHeaderLen + IPv4HeaderLen + UDPHeaderLen

	// EtherTypeIPv4 is the only ethertype the reproduction uses.
	EtherTypeIPv4 = 0x0800
	// ProtoUDP is the IPv4 protocol number for UDP.
	ProtoUDP = 17

	// WireOverhead is per-frame bytes on the wire beyond the frame itself:
	// preamble+SFD (8), FCS (4), and inter-frame gap (12).
	WireOverhead = 24
)

// FlowParams identifies the UDP flow the guest transmits.
type FlowParams struct {
	SrcMAC, DstMAC   [6]byte
	SrcIP, DstIP     [4]byte
	SrcPort, DstPort uint16
}

// DefaultFlow is the flow used by the streaming workload.
func DefaultFlow() FlowParams {
	return FlowParams{
		SrcMAC:  [6]byte{0x02, 0x48, 0x58, 0x00, 0x00, 0x01},
		DstMAC:  [6]byte{0x02, 0x48, 0x58, 0x00, 0x00, 0x02},
		SrcIP:   [4]byte{10, 0, 0, 1},
		DstIP:   [4]byte{10, 0, 0, 2},
		SrcPort: 5004,
		DstPort: 5004,
	}
}

// BuildHeaderTemplate builds the 42-byte Ethernet+IPv4+UDP header for a
// fixed payload length. The IPv4 header checksum is filled in; the UDP
// checksum is left zero (legal for UDP over IPv4, or filled later by
// software or NIC offload).
func BuildHeaderTemplate(f FlowParams, payloadLen int) []byte {
	h := make([]byte, HeadersLen)
	copy(h[0:6], f.DstMAC[:])
	copy(h[6:12], f.SrcMAC[:])
	binary.BigEndian.PutUint16(h[12:14], EtherTypeIPv4)

	ip := h[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	totalLen := IPv4HeaderLen + UDPHeaderLen + payloadLen
	binary.BigEndian.PutUint16(ip[2:4], uint16(totalLen))
	ip[8] = 64 // TTL
	ip[9] = ProtoUDP
	copy(ip[12:16], f.SrcIP[:])
	copy(ip[16:20], f.DstIP[:])
	csum := Checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:12], csum)

	udp := h[EthHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(udp[2:4], f.DstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+payloadLen))
	return h
}

// Checksum computes the Internet ones'-complement checksum over data.
func Checksum(data []byte) uint16 {
	return FinishChecksum(SumBytes(0, data))
}

// SumBytes accumulates data, as big-endian 16-bit words with an odd tail
// byte zero-padded, into a running ones'-complement sum. The result is
// partially folded: it is congruent to the exact sum modulo 0xFFFF and is
// zero only when the exact sum is, so FinishChecksum of it is the
// checksum of the exact sum, but it is not the exact sum itself.
//
// The bulk loads little-endian 64-bit words, with no byte swap, and adds
// their 32-bit halves (2¹⁶ ≡ 1 mod 0xFFFF, so a half stands for its two
// 16-bit words) into a 64-bit accumulator, which cannot overflow below
// 16 GiB of data. addLE turns that little-endian sum into the big-endian
// one with a single byte swap at the end.
func SumBytes(sum uint32, data []byte) uint32 {
	var acc uint64
	n := len(data)
	i := 0
	for ; i+16 <= n; i += 16 {
		w0 := binary.LittleEndian.Uint64(data[i:])
		w1 := binary.LittleEndian.Uint64(data[i+8:])
		acc += w0>>32 + w0&0xFFFFFFFF + w1>>32 + w1&0xFFFFFFFF
	}
	for ; i+1 < n; i += 2 {
		acc += uint64(data[i]) | uint64(data[i+1])<<8
	}
	if n%2 == 1 {
		acc += uint64(data[n-1])
	}
	return addLE(sum, acc)
}

// addLE adds acc, a sum of little-endian 16-bit words, into the running
// big-endian sum. Swapping the bytes of every word swaps the bytes of
// their ones'-complement sum (RFC 1071 §2(B)): acc folded to 16 bits is
// congruent to 2⁸ times the big-endian sum modulo 0xFFFF, so one swap
// of the folded value — a further 2⁸, and 2¹⁶ ≡ 1 — gives the
// big-endian sum. Folding keeps a nonzero sum nonzero, so the result is
// zero only when sum and acc both are.
func addLE(sum uint32, acc uint64) uint32 {
	for acc>>16 != 0 {
		acc = acc&0xFFFF + acc>>16
	}
	s := uint64(sum) + uint64(bits.ReverseBytes16(uint16(acc)))
	return uint32(s&0xFFFFFFFF + s>>32)
}

// FinishChecksum folds and complements a running sum.
func FinishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// pseudoSum is the running sum of the IPv4 pseudo-header of a UDP
// datagram of udpLen bytes carried in the IPv4 header ip.
func pseudoSum(ip []byte, udpLen int) uint32 {
	return SumBytes(ProtoUDP+uint32(udpLen), ip[12:20])
}

// UDPChecksum computes the UDP checksum (with IPv4 pseudo-header) for a
// complete frame: the value to store at the UDP checksum field. It
// reports false when the frame is shorter than its headers or the UDP
// length field does not lie between the UDP header and the end of the
// frame, since the datagram it describes does not exist.
func UDPChecksum(frame []byte) (uint16, bool) {
	if len(frame) < HeadersLen {
		return 0, false
	}
	ip := frame[EthHeaderLen:]
	udp := ip[IPv4HeaderLen:]
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return 0, false
	}
	// UDP header without its checksum field, then the payload.
	sum := SumBytes(pseudoSum(ip, udpLen), udp[:6])
	c := FinishChecksum(SumBytes(sum, udp[UDPHeaderLen:udpLen]))
	if c == 0 {
		c = 0xFFFF // UDP: transmitted zero means "no checksum"
	}
	return c, true
}

// OffloadChecksums performs what the NIC's checksum-offload engine does:
// recompute the IPv4 header checksum and fill in the UDP checksum, in
// place. A frame is the guest's to get wrong: when its UDP length does
// not fit the frame, the UDP checksum field is left as the guest wrote
// it.
func OffloadChecksums(frame []byte) {
	if len(frame) < HeadersLen {
		return
	}
	ip := frame[EthHeaderLen:]
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	if u, ok := UDPChecksum(frame); ok {
		binary.BigEndian.PutUint16(ip[IPv4HeaderLen+6:], u)
	}
}

// Packet is a parsed UDP datagram.
type Packet struct {
	Flow    FlowParams
	Payload []byte
	// UDPChecksumOK is true if the checksum was present and valid, or
	// absent (zero, which UDP/IPv4 permits).
	UDPChecksumOK bool
}

// ParseFrame parses and validates an Ethernet+IPv4+UDP frame.
func ParseFrame(frame []byte) (*Packet, error) {
	ip, udp, err := parseUDP(frame)
	if err != nil {
		return nil, err
	}
	p := &Packet{Payload: udp[UDPHeaderLen:]}
	copy(p.Flow.DstMAC[:], frame[0:6])
	copy(p.Flow.SrcMAC[:], frame[6:12])
	copy(p.Flow.SrcIP[:], ip[12:16])
	copy(p.Flow.DstIP[:], ip[16:20])
	p.Flow.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.Flow.DstPort = binary.BigEndian.Uint16(udp[2:4])
	p.UDPChecksumOK = udpChecksumOK(udp, SumBytes(pseudoSum(ip, len(udp)), udp))
	return p, nil
}

// udpChecksumOK reports whether the datagram udp passes its checksum,
// given sum, the running sum of its pseudo-header and every byte of it:
// a zero checksum field means the sender did not use one.
func udpChecksumOK(udp []byte, sum uint32) bool {
	return binary.BigEndian.Uint16(udp[6:8]) == 0 || FinishChecksum(sum) == 0
}

// parseUDP validates the Ethernet, IPv4 and UDP headers of frame and
// returns the IPv4 header and the UDP datagram, header and payload, cut
// to the UDP length. It allocates only to report an error.
func parseUDP(frame []byte) (ip, udp []byte, err error) {
	if len(frame) < HeadersLen {
		return nil, nil, fmt.Errorf("netsim: frame too short (%d bytes)", len(frame))
	}
	if et := binary.BigEndian.Uint16(frame[12:14]); et != EtherTypeIPv4 {
		return nil, nil, fmt.Errorf("netsim: ethertype 0x%04x not IPv4", et)
	}
	ip = frame[EthHeaderLen:]
	if ip[0] != 0x45 {
		return nil, nil, fmt.Errorf("netsim: unsupported IP version/IHL 0x%02x", ip[0])
	}
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		return nil, nil, fmt.Errorf("netsim: bad IPv4 header checksum")
	}
	if ip[9] != ProtoUDP {
		return nil, nil, fmt.Errorf("netsim: protocol %d not UDP", ip[9])
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen < IPv4HeaderLen+UDPHeaderLen {
		return nil, nil, fmt.Errorf("netsim: IP total length %d shorter than IPv4+UDP headers", totalLen)
	}
	if totalLen+EthHeaderLen > len(frame) {
		return nil, nil, fmt.Errorf("netsim: IP total length %d exceeds frame", totalLen)
	}
	udp = ip[IPv4HeaderLen:totalLen]
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return nil, nil, fmt.Errorf("netsim: bad UDP length %d", udpLen)
	}
	return ip[:IPv4HeaderLen], udp[:udpLen], nil
}
