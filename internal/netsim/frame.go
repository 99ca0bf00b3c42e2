// Package netsim provides the network side of the reproduction: Ethernet/
// IPv4/UDP frame construction and parsing, Internet checksums, the
// deterministic "disk" data pattern, and a receiving sink that validates
// the guest's transmit stream and measures achieved throughput.
package netsim

import (
	"encoding/binary"
	"fmt"
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
// The bulk loads big-endian 64-bit words and adds their 32-bit halves
// (2¹⁶ ≡ 1 mod 0xFFFF, so a half stands for its two 16-bit words) into a
// 64-bit accumulator, which cannot overflow below 16 GiB of data. The
// accumulator folds back to 32 bits with end-around carry on return.
func SumBytes(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	n := len(data)
	i := 0
	for ; i+16 <= n; i += 16 {
		w0 := binary.BigEndian.Uint64(data[i:])
		w1 := binary.BigEndian.Uint64(data[i+8:])
		acc += w0>>32 + w0&0xFFFFFFFF + w1>>32 + w1&0xFFFFFFFF
	}
	for ; i+1 < n; i += 2 {
		acc += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if n%2 == 1 {
		acc += uint64(data[n-1]) << 8
	}
	acc = acc&0xFFFFFFFF + acc>>32
	acc = acc&0xFFFFFFFF + acc>>32
	return uint32(acc)
}

// FinishChecksum folds and complements a running sum.
func FinishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// UDPChecksum computes the UDP checksum (with IPv4 pseudo-header) for a
// complete frame. Returns the value to store at the UDP checksum field.
func UDPChecksum(frame []byte) uint16 {
	ip := frame[EthHeaderLen:]
	udp := ip[IPv4HeaderLen:]
	udpLen := binary.BigEndian.Uint16(udp[4:6])

	var sum uint32
	sum = SumBytes(sum, ip[12:20]) // src+dst IP
	sum += ProtoUDP
	sum += uint32(udpLen)
	// UDP header with checksum field zeroed, plus payload.
	sum += uint32(udp[0])<<8 | uint32(udp[1])
	sum += uint32(udp[2])<<8 | uint32(udp[3])
	sum += uint32(udp[4])<<8 | uint32(udp[5])
	sum = SumBytes(sum, udp[8:udpLen])
	c := FinishChecksum(sum)
	if c == 0 {
		c = 0xFFFF // UDP: transmitted zero means "no checksum"
	}
	return c
}

// OffloadChecksums performs what the NIC's checksum-offload engine does:
// recompute the IPv4 header checksum and fill in the UDP checksum, in
// place.
func OffloadChecksums(frame []byte) {
	if len(frame) < HeadersLen {
		return
	}
	ip := frame[EthHeaderLen:]
	ip[10], ip[11] = 0, 0
	c := Checksum(ip[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(ip[10:12], c)
	udp := ip[IPv4HeaderLen:]
	udp[6], udp[7] = 0, 0
	u := UDPChecksum(frame)
	binary.BigEndian.PutUint16(udp[6:8], u)
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
	if len(frame) < HeadersLen {
		return nil, fmt.Errorf("netsim: frame too short (%d bytes)", len(frame))
	}
	if et := binary.BigEndian.Uint16(frame[12:14]); et != EtherTypeIPv4 {
		return nil, fmt.Errorf("netsim: ethertype 0x%04x not IPv4", et)
	}
	ip := frame[EthHeaderLen:]
	if ip[0] != 0x45 {
		return nil, fmt.Errorf("netsim: unsupported IP version/IHL 0x%02x", ip[0])
	}
	if Checksum(ip[:IPv4HeaderLen]) != 0 {
		return nil, fmt.Errorf("netsim: bad IPv4 header checksum")
	}
	if ip[9] != ProtoUDP {
		return nil, fmt.Errorf("netsim: protocol %d not UDP", ip[9])
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen+EthHeaderLen > len(frame) {
		return nil, fmt.Errorf("netsim: IP total length %d exceeds frame", totalLen)
	}
	udp := ip[IPv4HeaderLen:totalLen]
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen < UDPHeaderLen || udpLen > len(udp) {
		return nil, fmt.Errorf("netsim: bad UDP length %d", udpLen)
	}
	p := &Packet{Payload: udp[UDPHeaderLen:udpLen]}
	copy(p.Flow.DstMAC[:], frame[0:6])
	copy(p.Flow.SrcMAC[:], frame[6:12])
	copy(p.Flow.SrcIP[:], ip[12:16])
	copy(p.Flow.DstIP[:], ip[16:20])
	p.Flow.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	p.Flow.DstPort = binary.BigEndian.Uint16(udp[2:4])
	if binary.BigEndian.Uint16(udp[6:8]) == 0 {
		p.UDPChecksumOK = true // checksum not used
	} else {
		full := frame[:EthHeaderLen+totalLen]
		p.UDPChecksumOK = verifyUDP(full)
	}
	return p, nil
}

func verifyUDP(frame []byte) bool {
	ip := frame[EthHeaderLen:]
	udp := ip[IPv4HeaderLen:]
	udpLen := binary.BigEndian.Uint16(udp[4:6])
	var sum uint32
	sum = SumBytes(sum, ip[12:20])
	sum += ProtoUDP
	sum += uint32(udpLen)
	sum = SumBytes(sum, udp[:udpLen])
	return FinishChecksum(sum) == 0
}
