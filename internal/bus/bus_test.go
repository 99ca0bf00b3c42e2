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

// TestOverlappingMapPorts: a port mapped twice goes to the latest
// handler, relative to that handler's base; ports only the earlier call
// covered keep the earlier handler and base, across a 256-port page edge
// too.
func TestOverlappingMapPorts(t *testing.T) {
	b := New(64)
	first := &echoDev{readVal: 1}
	second := &echoDev{readVal: 2}
	b.MapPorts(0x0F8, 16, first)  // 0x0F8..0x107, straddling a page edge
	b.MapPorts(0x100, 4, second)  // 0x100..0x103 re-mapped
	b.MapPorts(0xFFFE, 4, second) // wraps: 0xFFFE, 0xFFFF, 0x0000, 0x0001
	cases := []struct {
		port uint16
		dev  *echoDev
		rel  uint16
	}{
		{0x0F8, first, 0}, {0x0FF, first, 7}, {0x100, second, 0},
		{0x103, second, 3}, {0x104, first, 12}, {0x107, first, 15},
		{0xFFFF, second, 1}, {0x0000, second, 2}, {0x0001, second, 3},
	}
	for _, c := range cases {
		if v := b.ReadPort(c.port); v != c.dev.readVal || c.dev.lastPort != c.rel {
			t.Fatalf("port %#x: read %d at relative %d, want %d at %d", c.port, v, c.dev.lastPort, c.dev.readVal, c.rel)
		}
		b.WritePort(c.port, uint32(c.port))
		if c.dev.lastPort != c.rel || c.dev.lastValue != uint32(c.port) {
			t.Fatalf("port %#x: write went to relative %d", c.port, c.dev.lastPort)
		}
	}
	for _, p := range []uint16{0x0F7, 0x108, 0x0002, 0xFFFD} {
		if v := b.ReadPort(p); v != 0xFFFFFFFF {
			t.Fatalf("port %#x mapped: read %x", p, v)
		}
	}
}

func TestPortLookupAllocationFree(t *testing.T) {
	b := New(64)
	b.MapPorts(0x3F8, 8, &echoDev{})
	if n := testing.AllocsPerRun(100, func() {
		b.WritePort(0x3F9, b.ReadPort(0x3F8))
		b.ReadPort(0x1234)
	}); n != 0 {
		t.Fatalf("%v allocations per port access", n)
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
