// Package nic models a gigabit Ethernet controller of the descriptor-ring
// school (Intel 8254x flavour): the driver fills a TX ring in guest memory,
// writes a tail doorbell, and the device DMAs frames onto the wire at line
// rate, optionally offloading IP/UDP checksums and coalescing completion
// interrupts.
//
// Checksum offload and interrupt coalescing exist so the three platforms
// of Figure 3.1 can be configured authentically: the pass-through
// configurations use them; the hosted full-emulation VMM exposes an
// era-accurate virtual NIC with neither (VMware Workstation 4's vlance),
// so its guest computes checksums in software and takes an interrupt per
// frame.
package nic

import (
	"encoding/binary"

	"lvmm/internal/bus"
	"lvmm/internal/hw"
	"lvmm/internal/isa"
	"lvmm/internal/netsim"
)

// Register offsets from the device's port base.
const (
	RegCtrl     = 0 // bit0: enable
	RegTxBase   = 1 // physical address of the TX descriptor ring
	RegTxCount  = 2 // number of descriptors in the ring
	RegTxTail   = 3 // write: producer index (doorbell)
	RegTxHead   = 4 // read: consumer index (device progress)
	RegICR      = 5 // read: interrupt cause, read-to-clear; bit0 = TX done
	RegCoalesce = 6 // interrupts per N completed frames (0 or 1 = every frame)
	RegMACLo    = 7
	RegMACHi    = 8
	RegFrames   = 9 // read: total frames transmitted
)

// Ctrl bits.
const CtrlEnable = 1

// ICR bits.
const ICRTxDone = 1

// Descriptor layout (16 bytes, little-endian):
//
//	+0 buffer physical address
//	+4 frame length in bytes
//	+8 flags: bit0 end-of-packet (always set), bit1 checksum offload
//	+12 status: bit0 done (written by device)
const (
	DescSize    = 16
	DescFlagEOP = 1 << 0
	// DescFlagCsum asks the device to fill the IPv4 header checksum and
	// UDP checksum before transmission.
	DescFlagCsum = 1 << 1
	DescStatDone = 1 << 0
)

// WireBytesPerSec is gigabit Ethernet line rate.
const WireBytesPerSec = 125_000_000

// FrameSink receives each transmitted frame with its completion cycle.
// The frame is valid only for the duration of the call: the device
// reuses its buffer for the next frame, so a sink that keeps the bytes
// must copy them. Its capacity equals its length, so no parser can read
// past the frame into a previous one's bytes — host state that no
// snapshot captures.
type FrameSink func(frame []byte, cycle uint64)

// NIC is the gigabit Ethernet controller.
type NIC struct {
	sched hw.Scheduler
	irq   hw.IRQFunc
	mem   *bus.Bus
	sink  FrameSink

	enabled  bool
	txBase   uint32
	txCount  uint32
	txTail   uint32
	txHead   uint32
	icr      uint32
	coalesce uint32
	mac      [2]uint32

	busyUntil    uint64 // wire busy horizon, in cycles
	inFlight     bool   // a transmit completion event is scheduled
	sinceIRQ     uint32 // frames completed since last interrupt
	itrArmed     bool   // interrupt-throttle timer pending
	itrAt        uint64 // absolute cycle of the pending throttle timer
	csumDisabled bool   // device-level override (hosted VMM virtual NIC)
	FramesTx     uint64
	BytesTx      uint64
	DescErrors   uint64
	OnTransmit   func(frameLen uint32) // hosted-VMM cost hook
	frameTap     FrameSink             // record/replay observer
	epoch        uint32

	// The frame buffer, reused across frames. Every byte a frame exposes
	// is overwritten by its DMA first, so it carries nothing from one
	// frame to the next and stays out of State.
	frame []byte

	// In-flight descriptor, latched when transmission starts (fields
	// rather than closure captures so snapshots can re-arm completion).
	curDescAddr, curBufAddr uint32
	curLen, curFlags        uint32
	curDoneAt               uint64
}

// SetFrameTap installs an observer called with every transmitted frame
// before it reaches the sink (nil to remove). Record/replay uses it. As
// for a FrameSink, the frame is valid only for the duration of the call.
func (n *NIC) SetFrameTap(tap FrameSink) { n.frameTap = tap }

// Sink returns the downstream frame sink.
func (n *NIC) Sink() FrameSink { return n.sink }

// SetSink replaces the downstream frame sink. Fault injection wraps the
// original sink through this; the frame tap is unaffected, so recorded
// frame digests always describe the clean frame as transmitted.
func (n *NIC) SetSink(sink FrameSink) { n.sink = sink }

// ITRCyclesPerUnit scales the interrupt-throttle timer: with coalescing
// factor N, a completion that does not fill the batch is signalled at
// most N×20 µs later (Intel ITR style), so drivers never stall waiting
// for a batch that will not fill.
const ITRCyclesPerUnit = 25_200 // 20 µs at 1.26 GHz

// New creates a NIC delivering transmitted frames to sink.
func New(sched hw.Scheduler, irq hw.IRQFunc, mem *bus.Bus, sink FrameSink) *NIC {
	return &NIC{sched: sched, irq: irq, mem: mem, sink: sink}
}

// SetCsumOffloadDisabled force-disables the checksum engine (the hosted
// VMM's virtual NIC has none; descriptor flags are then ignored).
func (n *NIC) SetCsumOffloadDisabled(d bool) { n.csumDisabled = d }

// PortRead implements bus.PortHandler.
func (n *NIC) PortRead(port uint16) uint32 {
	switch port {
	case RegCtrl:
		if n.enabled {
			return CtrlEnable
		}
		return 0
	case RegTxBase:
		return n.txBase
	case RegTxCount:
		return n.txCount
	case RegTxTail:
		return n.txTail
	case RegTxHead:
		return n.txHead
	case RegICR:
		v := n.icr
		n.icr = 0
		return v
	case RegCoalesce:
		return n.coalesce
	case RegMACLo:
		return n.mac[0]
	case RegMACHi:
		return n.mac[1]
	case RegFrames:
		return uint32(n.FramesTx)
	}
	return 0
}

// PortWrite implements bus.PortHandler.
func (n *NIC) PortWrite(port uint16, v uint32) {
	switch port {
	case RegCtrl:
		was := n.enabled
		n.enabled = v&CtrlEnable != 0
		if !n.enabled && was {
			n.epoch++
			n.inFlight = false
			n.txHead, n.txTail, n.sinceIRQ = 0, 0, 0
		}
	case RegTxBase:
		n.txBase = v
	case RegTxCount:
		n.txCount = v
	case RegTxTail:
		n.txTail = v % n.ringSize()
		n.pump()
	case RegCoalesce:
		n.coalesce = v
	case RegMACLo:
		n.mac[0] = v
	case RegMACHi:
		n.mac[1] = v
	}
}

func (n *NIC) ringSize() uint32 {
	if n.txCount == 0 {
		return 1
	}
	return n.txCount
}

// wireCycles is the time a frame occupies the wire, including preamble,
// FCS and inter-frame gap.
func wireCycles(frameLen int) uint64 {
	return uint64(frameLen+netsim.WireOverhead) * isa.ClockHz / WireBytesPerSec
}

// pump starts transmission of the next pending descriptor if the device
// is idle. Completion is serialized at wire rate.
func (n *NIC) pump() {
	if !n.enabled || n.inFlight || n.txHead == n.txTail {
		return
	}
	dAddr := n.txBase + n.txHead*DescSize
	var desc [DescSize]byte
	if !n.mem.DMARead(dAddr, desc[:]) {
		n.DescErrors++
		n.txHead = (n.txHead + 1) % n.ringSize()
		n.pump()
		return
	}
	bufAddr := binary.LittleEndian.Uint32(desc[0:4])
	length := binary.LittleEndian.Uint32(desc[4:8])
	flags := binary.LittleEndian.Uint32(desc[8:12])

	now := n.sched.Now()
	start := now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	done := start + wireCycles(int(length))
	n.busyUntil = done
	n.inFlight = true
	n.curDescAddr, n.curBufAddr = dAddr, bufAddr
	n.curLen, n.curFlags = length, flags
	n.curDoneAt = done
	n.armCompletion(done - now)
}

// armCompletion schedules the in-flight frame's transmit completion delay
// cycles from now.
func (n *NIC) armCompletion(delay uint64) {
	epoch := n.epoch
	n.sched.After(delay, func() {
		if epoch != n.epoch {
			return
		}
		n.inFlight = false
		n.complete(n.curDescAddr, n.curBufAddr, n.curLen, n.curFlags)
		n.pump()
	})
}

// complete finishes one frame: DMA it out of guest memory, apply offloads,
// deliver to the wire, write back descriptor status, raise the (possibly
// coalesced) completion interrupt.
func (n *NIC) complete(descAddr, bufAddr, length, flags uint32) {
	// Bound the guest's length by RAM before the buffer grows to it.
	if !n.mem.InRAM(bufAddr, length) {
		n.DescErrors++
	} else {
		if uint32(cap(n.frame)) < length {
			n.frame = make([]byte, length)
		}
		frame := n.frame[:length:length]
		n.mem.DMARead(bufAddr, frame)
		if flags&DescFlagCsum != 0 && !n.csumDisabled {
			netsim.OffloadChecksums(frame)
		}
		n.FramesTx++
		n.BytesTx += uint64(length)
		if n.OnTransmit != nil {
			n.OnTransmit(length)
		}
		if n.frameTap != nil {
			n.frameTap(frame, n.sched.Now())
		}
		if n.sink != nil {
			n.sink(frame, n.sched.Now())
		}
	}
	// Write back the done bit.
	var status [4]byte
	binary.LittleEndian.PutUint32(status[:], DescStatDone)
	n.mem.DMAWrite(descAddr+12, status[:])
	n.txHead = (n.txHead + 1) % n.ringSize()

	n.sinceIRQ++
	threshold := n.coalesce
	if threshold == 0 {
		threshold = 1
	}
	switch {
	case n.sinceIRQ >= threshold:
		n.sinceIRQ = 0
		n.icr |= ICRTxDone
		n.irq()
	case !n.itrArmed:
		// Partial batch: signal via the throttle timer instead, bounding
		// completion latency without an interrupt per frame.
		n.itrArmed = true
		n.itrAt = n.sched.Now() + uint64(threshold)*ITRCyclesPerUnit
		n.armITR(uint64(threshold) * ITRCyclesPerUnit)
	}
}

// armITR schedules the interrupt-throttle timer delay cycles from now.
func (n *NIC) armITR(delay uint64) {
	epoch := n.epoch
	n.sched.After(delay, func() {
		n.itrArmed = false
		if epoch != n.epoch || n.sinceIRQ == 0 {
			return
		}
		n.sinceIRQ = 0
		n.icr |= ICRTxDone
		n.irq()
	})
}

// State is the serializable controller state (record/replay snapshots).
type State struct {
	Enabled                 bool
	TxBase, TxCount         uint32
	TxTail, TxHead          uint32
	ICR, Coalesce           uint32
	MAC                     [2]uint32
	BusyUntil               uint64
	InFlight                bool
	CurDescAddr, CurBufAddr uint32
	CurLen, CurFlags        uint32
	CurDoneAt               uint64
	SinceIRQ                uint32
	ITRArmed                bool
	ITRAt                   uint64
	FramesTx, BytesTx       uint64
	DescErrors              uint64
}

// State captures the controller registers and in-flight transmission.
func (n *NIC) State() State {
	return State{
		Enabled: n.enabled, TxBase: n.txBase, TxCount: n.txCount,
		TxTail: n.txTail, TxHead: n.txHead, ICR: n.icr, Coalesce: n.coalesce,
		MAC: n.mac, BusyUntil: n.busyUntil, InFlight: n.inFlight,
		CurDescAddr: n.curDescAddr, CurBufAddr: n.curBufAddr,
		CurLen: n.curLen, CurFlags: n.curFlags, CurDoneAt: n.curDoneAt,
		SinceIRQ: n.sinceIRQ, ITRArmed: n.itrArmed, ITRAt: n.itrAt,
		FramesTx: n.FramesTx, BytesTx: n.BytesTx, DescErrors: n.DescErrors,
	}
}

// Restore replaces the controller state, invalidating scheduled events and
// re-arming the in-flight transmission and throttle timer (if pending) at
// their original absolute cycles. Call only after the machine clock has
// been rewound to the snapshot.
func (n *NIC) Restore(s State) {
	n.epoch++
	n.enabled, n.txBase, n.txCount = s.Enabled, s.TxBase, s.TxCount
	n.txTail, n.txHead, n.icr, n.coalesce = s.TxTail, s.TxHead, s.ICR, s.Coalesce
	n.mac, n.busyUntil, n.inFlight = s.MAC, s.BusyUntil, s.InFlight
	n.curDescAddr, n.curBufAddr = s.CurDescAddr, s.CurBufAddr
	n.curLen, n.curFlags, n.curDoneAt = s.CurLen, s.CurFlags, s.CurDoneAt
	n.sinceIRQ, n.itrArmed, n.itrAt = s.SinceIRQ, s.ITRArmed, s.ITRAt
	n.FramesTx, n.BytesTx, n.DescErrors = s.FramesTx, s.BytesTx, s.DescErrors
	now := n.sched.Now()
	if n.inFlight {
		delay := uint64(0)
		if n.curDoneAt > now {
			delay = n.curDoneAt - now
		}
		n.armCompletion(delay)
	}
	if n.itrArmed {
		delay := uint64(0)
		if n.itrAt > now {
			delay = n.itrAt - now
		}
		n.armITR(delay)
	}
}
