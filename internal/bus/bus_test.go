package bus

import (
	"testing"
	"testing/quick"
)

type echoDev struct {
	lastPort  uint16
	lastValue uint32
	readVal   uint32
}

func (d *echoDev) PortRead(p uint16) uint32 {
	d.lastPort = p
	return d.readVal
}
func (d *echoDev) PortWrite(p uint16, v uint32) { d.lastPort, d.lastValue = p, v }

func TestMemoryAccessors(t *testing.T) {
	b := New(4096)
	if !b.Write32(0x100, 0xA1B2C3D4) {
		t.Fatal("write failed")
	}
	if v, ok := b.Read32(0x100); !ok || v != 0xA1B2C3D4 {
		t.Fatalf("read32 %x %v", v, ok)
	}
	if v, ok := b.Read16(0x100); !ok || v != 0xC3D4 {
		t.Fatalf("read16 %x", v)
	}
	if v, ok := b.Read8(0x103); !ok || v != 0xA1 {
		t.Fatalf("read8 %x", v)
	}
	b.Write16(0x200, 0xBEEF)
	b.Write8(0x202, 0x7F)
	if v, _ := b.Read32(0x200); v != 0x7FBEEF {
		t.Fatalf("mixed width %x", v)
	}
}

func TestBoundsChecking(t *testing.T) {
	b := New(4096)
	if _, ok := b.Read32(4093); ok {
		t.Fatal("straddling read allowed")
	}
	if b.Write8(4096, 1) {
		t.Fatal("oob write allowed")
	}
	if b.InRAM(4092, 4) != true || b.InRAM(4093, 4) != false {
		t.Fatal("InRAM boundary wrong")
	}
	// Overflow: addr+n wrapping must not pass.
	if b.InRAM(0xFFFFFFFF, 2) {
		t.Fatal("wrapping range allowed")
	}
}

func TestPortRelativeDecoding(t *testing.T) {
	b := New(64)
	d := &echoDev{readVal: 42}
	b.MapPorts(0x3F8, 8, d)
	if v := b.ReadPort(0x3F9); v != 42 {
		t.Fatalf("read %d", v)
	}
	if d.lastPort != 1 {
		t.Fatalf("device saw absolute port %d, want relative 1", d.lastPort)
	}
	b.WritePort(0x3FF, 7)
	if d.lastPort != 7 || d.lastValue != 7 {
		t.Fatalf("relative write port=%d val=%d", d.lastPort, d.lastValue)
	}
}

func TestUnmappedPortsFloat(t *testing.T) {
	b := New(64)
	if v := b.ReadPort(0x9999); v != 0xFFFFFFFF {
		t.Fatalf("unmapped read %x", v)
	}
	b.WritePort(0x9999, 1) // must not panic
}

func TestPortTap(t *testing.T) {
	b := New(64)
	d := &echoDev{readVal: 5}
	b.MapPorts(0x300, 4, d)
	var taps []uint16
	b.SetPortTap(func(port uint16, v uint32, write bool) { taps = append(taps, port) })
	b.ReadPort(0x301)
	b.WritePort(0x302, 9)
	if len(taps) != 2 || taps[0] != 0x301 || taps[1] != 0x302 {
		t.Fatalf("taps %v", taps)
	}
	b.SetPortTap(nil)
	b.ReadPort(0x301)
	if len(taps) != 2 {
		t.Fatal("tap not removed")
	}
}

func TestDMA(t *testing.T) {
	b := New(1024)
	data := []byte{9, 8, 7, 6}
	if !b.DMAWrite(100, data) {
		t.Fatal("dma write")
	}
	got := make([]byte, 4)
	if !b.DMARead(100, got) || string(got) != string(data) {
		t.Fatalf("dma read % x", got)
	}
	if b.DMARead(1022, got) {
		t.Fatal("oob dma read allowed")
	}
	if !b.DMARead(1024, nil) {
		t.Fatal("empty dma read at the end of RAM refused")
	}
	if b.DMAWrite(1022, data) {
		t.Fatal("oob dma write allowed")
	}
}

// Property: 32-bit write/read round-trips at any aligned in-range address.
func TestWord32RoundTripProperty(t *testing.T) {
	b := New(1 << 16)
	f := func(addr, v uint32) bool {
		a := addr % (1<<16 - 4)
		if !b.Write32(a, v) {
			return false
		}
		got, ok := b.Read32(a)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: little-endian byte order — Read8 of each byte recomposes the
// word.
func TestLittleEndianProperty(t *testing.T) {
	b := New(4096)
	f := func(v uint32) bool {
		b.Write32(0, v)
		b0, _ := b.Read8(0)
		b1, _ := b.Read8(1)
		b2, _ := b.Read8(2)
		b3, _ := b.Read8(3)
		return uint32(b0)|uint32(b1)<<8|uint32(b2)<<16|uint32(b3)<<24 == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
