package nic

import (
	"encoding/binary"
	"testing"

	"lvmm/internal/bus"
	"lvmm/internal/hw/hwtest"
	"lvmm/internal/isa"
	"lvmm/internal/netsim"
)

const (
	ringBase  = 0x8000
	ringLen   = 8
	frameBase = 0x10000
)

type rig struct {
	n      *NIC
	s      *hwtest.Sched
	b      *bus.Bus
	irqs   int
	frames [][]byte
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{s: &hwtest.Sched{}, b: bus.New(1 << 20)}
	r.n = New(r.s, func() { r.irqs++ }, r.b, func(f []byte, c uint64) {
		r.frames = append(r.frames, append([]byte{}, f...))
	})
	r.n.PortWrite(RegTxBase, ringBase)
	r.n.PortWrite(RegTxCount, ringLen)
	r.n.PortWrite(RegCtrl, CtrlEnable)
	return r
}

// queue writes descriptor idx for a frame of n bytes and returns the
// frame contents.
func (r *rig) queue(idx, n int, flags uint32) []byte {
	payload := make([]byte, n-netsim.HeadersLen)
	netsim.FillPattern(payload, uint64(idx)*1000)
	frame := append(netsim.BuildHeaderTemplate(netsim.DefaultFlow(), len(payload)), payload...)
	addr := uint32(frameBase + idx*2048)
	r.b.DMAWrite(addr, frame)
	d := ringBase + idx*DescSize
	r.b.Write32(uint32(d), addr)
	r.b.Write32(uint32(d+4), uint32(len(frame)))
	r.b.Write32(uint32(d+8), flags)
	r.b.Write32(uint32(d+12), 0)
	return frame
}

func TestTransmitSingleFrame(t *testing.T) {
	r := newRig(t)
	frame := r.queue(0, 200, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 1000)
	if len(r.frames) != 1 {
		t.Fatalf("frames %d", len(r.frames))
	}
	if string(r.frames[0]) != string(frame) {
		t.Fatal("frame bytes mangled")
	}
	if r.irqs != 1 {
		t.Fatalf("irqs %d", r.irqs)
	}
	if st, _ := r.b.Read32(ringBase + 12); st&DescStatDone == 0 {
		t.Fatal("done bit not written back")
	}
	if r.n.PortRead(RegTxHead) != 1 {
		t.Fatal("head not advanced")
	}
	if r.n.PortRead(RegICR)&ICRTxDone == 0 {
		t.Fatal("ICR bit missing")
	}
	if r.n.PortRead(RegICR) != 0 {
		t.Fatal("ICR not read-to-clear")
	}
}

func TestChecksumOffload(t *testing.T) {
	r := newRig(t)
	r.queue(0, 128, DescFlagEOP|DescFlagCsum)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 1000)
	p, err := netsim.ParseFrame(r.frames[0])
	if err != nil {
		t.Fatal(err)
	}
	udp := r.frames[0][netsim.EthHeaderLen+netsim.IPv4HeaderLen:]
	if binary.BigEndian.Uint16(udp[6:8]) == 0 {
		t.Fatal("UDP checksum not filled by offload")
	}
	if !p.UDPChecksumOK {
		t.Fatal("offloaded checksum invalid")
	}
}

func TestChecksumOffloadDisabled(t *testing.T) {
	r := newRig(t)
	r.n.SetCsumOffloadDisabled(true)
	r.queue(0, 128, DescFlagEOP|DescFlagCsum)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 1000)
	udp := r.frames[0][netsim.EthHeaderLen+netsim.IPv4HeaderLen:]
	if binary.BigEndian.Uint16(udp[6:8]) != 0 {
		t.Fatal("disabled engine still filled the checksum")
	}
}

func TestWireRateSerialization(t *testing.T) {
	r := newRig(t)
	const n = 4
	for i := 0; i < n; i++ {
		r.queue(i, 1066, DescFlagEOP)
	}
	r.n.PortWrite(RegTxTail, n)
	perFrame := wireCycles(1066)
	// After 2.5 frame times, exactly 2 frames are on the wire.
	r.s.Advance(perFrame*5/2 + 1)
	if len(r.frames) != 2 {
		t.Fatalf("frames after 2.5 wire times: %d", len(r.frames))
	}
	r.s.Advance(perFrame * 10)
	if len(r.frames) != n {
		t.Fatalf("total frames %d", len(r.frames))
	}
}

func TestCoalescingBatches(t *testing.T) {
	r := newRig(t)
	r.n.PortWrite(RegCoalesce, 4)
	for i := 0; i < 4; i++ {
		r.queue(i, 500, DescFlagEOP)
	}
	r.n.PortWrite(RegTxTail, 4)
	r.s.Advance(isa.ClockHz / 100)
	if len(r.frames) != 4 {
		t.Fatalf("frames %d", len(r.frames))
	}
	if r.irqs != 1 {
		t.Fatalf("coalesce=4 should give one IRQ for four frames, got %d", r.irqs)
	}
}

func TestITRTimerFlushesPartialBatch(t *testing.T) {
	r := newRig(t)
	r.n.PortWrite(RegCoalesce, 8)
	r.queue(0, 500, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(wireCycles(500) + 10)
	if r.irqs != 0 {
		t.Fatal("partial batch signalled immediately despite coalescing")
	}
	// The throttle timer delivers it within 8×20 µs.
	r.s.Advance(r.s.Now() + 8*ITRCyclesPerUnit + 1000)
	if r.irqs != 1 {
		t.Fatalf("ITR did not flush the partial batch: irqs=%d", r.irqs)
	}
}

func TestRingWrapAround(t *testing.T) {
	r := newRig(t)
	// Send ringLen+2 frames in two bursts to force wrap.
	for i := 0; i < ringLen-1; i++ {
		r.queue(i, 200, DescFlagEOP)
	}
	r.n.PortWrite(RegTxTail, ringLen-1)
	r.s.Advance(isa.ClockHz / 100)
	if len(r.frames) != ringLen-1 {
		t.Fatalf("first burst %d", len(r.frames))
	}
	// Next burst wraps: slots 7, 0.
	r.queue(ringLen-1, 200, DescFlagEOP)
	r.queue(0, 200, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1) // tail wraps to 1
	r.s.Advance(r.s.Now() + isa.ClockHz/100)
	if len(r.frames) != ringLen+1 {
		t.Fatalf("after wrap %d", len(r.frames))
	}
	if r.n.PortRead(RegTxHead) != 1 {
		t.Fatalf("head %d after wrap", r.n.PortRead(RegTxHead))
	}
}

func TestDisableResetsRing(t *testing.T) {
	r := newRig(t)
	r.queue(0, 200, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.n.PortWrite(RegCtrl, 0) // disable with frame in flight
	r.s.Advance(isa.ClockHz / 100)
	if len(r.frames) != 0 {
		t.Fatal("frame transmitted after disable")
	}
	if r.n.PortRead(RegTxHead) != 0 || r.n.PortRead(RegTxTail) != 0 {
		t.Fatal("ring indices not reset")
	}
}

func TestBadDescriptorAddressCounted(t *testing.T) {
	r := newRig(t)
	d := ringBase
	r.b.Write32(uint32(d), 0xFFFFFF00) // bogus buffer address
	r.b.Write32(uint32(d+4), 64)
	r.b.Write32(uint32(d+8), DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 100)
	if r.n.DescErrors == 0 {
		t.Fatal("descriptor error not counted")
	}
	if len(r.frames) != 0 {
		t.Fatal("bogus frame delivered")
	}
}

// DMA success comes from the bounds check, not from the buffer: a
// zero-length descriptor in RAM, even one ending exactly at the top of
// RAM, transmits an empty frame, while one past RAM is a descriptor error.
func TestZeroLengthDescriptor(t *testing.T) {
	r := newRig(t)
	for i, addr := range []uint32{frameBase, 1 << 20, 1<<20 + 1} {
		d := uint32(ringBase + i*DescSize)
		r.b.Write32(d, addr)
		r.b.Write32(d+4, 0)
		r.b.Write32(d+8, DescFlagEOP|DescFlagCsum)
	}
	r.n.PortWrite(RegTxTail, 3)
	r.s.Advance(isa.ClockHz / 100)
	if r.n.FramesTx != 2 || len(r.frames) != 2 || len(r.frames[0]) != 0 || len(r.frames[1]) != 0 {
		t.Fatalf("FramesTx %d, %d frames delivered; want 2 empty frames", r.n.FramesTx, len(r.frames))
	}
	if r.n.DescErrors != 1 {
		t.Fatalf("DescErrors %d, want 1 for the descriptor past RAM", r.n.DescErrors)
	}
}

// A transmit reuses the device's DMA buffers: a descriptor pumped through
// completion, checksum offload and a validating receiver allocates only
// the completion event it schedules, whatever the frame length. A frame
// allocation would add one per transmit.
func TestTransmitAllocatesNoFrame(t *testing.T) {
	for _, size := range []int{64, 1514} {
		s := &hwtest.Sched{}
		b := bus.New(1 << 20)
		recv := netsim.NewReceiver()
		n := New(s, func() {}, b, recv.Deliver)
		n.PortWrite(RegTxBase, ringBase)
		n.PortWrite(RegTxCount, ringLen)
		n.PortWrite(RegCtrl, CtrlEnable)
		payload := make([]byte, size-netsim.HeadersLen)
		netsim.FillPattern(payload[netsim.StampLen:], netsim.StampLen) // stamp: sequence, volume offset 0
		b.DMAWrite(frameBase, append(netsim.BuildHeaderTemplate(netsim.DefaultFlow(), len(payload)), payload...))
		var seq uint32
		transmit := func() {
			tail := n.PortRead(RegTxTail)
			b.Write32(frameBase+netsim.HeadersLen, seq) // the stamp's sequence number
			seq++
			d := ringBase + tail*DescSize
			b.Write32(d, frameBase)
			b.Write32(d+4, uint32(size))
			b.Write32(d+8, DescFlagEOP|DescFlagCsum)
			n.PortWrite(RegTxTail, (tail+1)%ringLen)
			s.Advance(s.Now() + isa.ClockHz/1000)
		}
		if allocs := testing.AllocsPerRun(100, transmit); allocs > 1 {
			t.Errorf("%d-byte frame: %.1f allocations per transmit, want at most the completion event's 1", size, allocs)
		}
		if !recv.Clean() || recv.Frames != 101 {
			t.Fatalf("%d-byte frame: receiver saw %d frames, clean=%v: %s", size, recv.Frames, recv.Clean(), recv.LastError())
		}
	}
}

func TestOnTransmitHook(t *testing.T) {
	r := newRig(t)
	var seen uint32
	r.n.OnTransmit = func(n uint32) { seen = n }
	r.queue(0, 300, DescFlagEOP)
	r.n.PortWrite(RegTxTail, 1)
	r.s.Advance(isa.ClockHz / 100)
	if seen != 300 {
		t.Fatalf("hook saw %d", seen)
	}
}

func TestMACRegisters(t *testing.T) {
	r := newRig(t)
	r.n.PortWrite(RegMACLo, 0x12345678)
	r.n.PortWrite(RegMACHi, 0x9ABC)
	if r.n.PortRead(RegMACLo) != 0x12345678 || r.n.PortRead(RegMACHi) != 0x9ABC {
		t.Fatal("MAC readback failed")
	}
	if r.n.PortRead(RegFrames) != 0 {
		t.Fatal("frame counter should be 0")
	}
}
