// Package bus models the physical side of the target machine: flat RAM and
// a 16-bit port-I/O space, shared by the CPU and DMA-capable devices.
//
// HX32 devices are programmed exclusively through port I/O (the PC/AT
// heritage the paper assumes: PIC at 0x20, PIT at 0x40, UARTs at 0x2F8/0x3F8)
// which keeps the lightweight VMM's selective-trapping story identical to
// the x86 TSS I/O-permission-bitmap mechanism.
package bus

import (
	"encoding/binary"
	"runtime"
	"sync"
)

// PortHandler is implemented by devices that respond to port I/O. All
// device registers are 32 bits wide. The port passed to the handler is
// relative to the base the device was mapped at.
type PortHandler interface {
	PortRead(port uint16) uint32
	PortWrite(port uint16, v uint32)
}

// PortTap observes every port access after it completes; the hosted VMM
// uses taps to charge device-emulation costs without perturbing behaviour.
type PortTap func(port uint16, v uint32, write bool)

// WriteNotify observes every completed write into RAM — CPU stores,
// page-walk A/D updates, DMA, image loads. The CPU installs one to
// invalidate predecoded instructions covering the written range; it must
// not touch RAM itself.
type WriteNotify func(addr, n uint32)

// Bus is the physical memory and I/O interconnect.
type Bus struct {
	ram         []byte
	ports       map[uint16]portEntry
	tap         PortTap
	writeNotify WriteNotify
}

type portEntry struct {
	h    PortHandler
	base uint16
}

// ramFree recycles physical-memory slices across machine lifetimes.
// Allocating tens of megabytes of zeroed RAM per machine is a real cost
// for callers that build machines in a loop (the fleet runner, the
// trace farm, benchmarks): the allocator must clear the whole reused
// span even though a released machine knows — via the CPU's
// write-coverage map — that only a few blocks were ever dirtied. Every
// slice in the list is fully zero; ReclaimRAM is the only producer and
// its callers re-zero exactly the covered blocks before handing the
// slice back.
//
// It is one process-wide list, not a sync.Pool: a pool's Put lands in
// the releasing P's private slot, which a Get on another P never takes,
// and GC empties the pool, so a machine built on another P or after a
// collection would allocate a second RAM slice. The list holds at most
// GOMAXPROCS slices, one per machine that can run at once.
var ramFree struct {
	sync.Mutex
	list [][]byte
}

// New creates a bus with ramSize bytes of RAM (all zero).
func New(ramSize int) *Bus {
	return &Bus{
		ram:   acquireRAM(ramSize),
		ports: make(map[uint16]portEntry),
	}
}

func acquireRAM(n int) []byte {
	var ram []byte
	ramFree.Lock()
	if k := len(ramFree.list); k > 0 {
		ram = ramFree.list[k-1]
		ramFree.list[k-1] = nil
		ramFree.list = ramFree.list[:k-1]
	}
	ramFree.Unlock()
	if len(ram) == n {
		return ram
	}
	// None free, or the wrong size: drop it. In practice every machine
	// of a process uses one RAM size, so the list is homogeneous.
	return make([]byte, n)
}

// ReclaimRAM puts a fully re-zeroed RAM slice on the free list for the
// next New to reuse. The caller (machine.Release) must have zeroed
// every byte the machine ever wrote and must not touch the slice again.
func ReclaimRAM(ram []byte) {
	ramFree.Lock()
	if len(ramFree.list) < runtime.GOMAXPROCS(0) {
		ramFree.list = append(ramFree.list, ram)
	}
	ramFree.Unlock()
}

// RAMSize returns the installed physical memory size.
func (b *Bus) RAMSize() uint32 { return uint32(len(b.ram)) }

// RAM exposes physical memory for loaders and DMA engines. Devices must
// bound-check with InRAM before writing.
func (b *Bus) RAM() []byte { return b.ram }

// InRAM reports whether [addr, addr+n) lies inside physical memory.
func (b *Bus) InRAM(addr, n uint32) bool {
	end := uint64(addr) + uint64(n)
	return end <= uint64(len(b.ram))
}

// MapPorts registers a handler for count consecutive ports starting at
// base. The handler sees ports relative to base.
func (b *Bus) MapPorts(base uint16, count int, h PortHandler) {
	for i := 0; i < count; i++ {
		b.ports[base+uint16(i)] = portEntry{h: h, base: base}
	}
}

// SetPortTap installs an observer for all port traffic (nil to remove).
func (b *Bus) SetPortTap(t PortTap) { b.tap = t }

// SetWriteNotify installs the RAM-write observer (nil to remove).
func (b *Bus) SetWriteNotify(f WriteNotify) { b.writeNotify = f }

// NotifyWrite reports an out-of-band write of n bytes at addr performed
// through a slice obtained from RAM() (in-place DMA fills). Devices that
// bypass Write*/DMAWrite must call it after mutating memory.
func (b *Bus) NotifyWrite(addr, n uint32) {
	if b.writeNotify != nil {
		b.writeNotify(addr, n)
	}
}

// ReadPort performs a port read. Unmapped ports float high (0xFFFFFFFF),
// as on a real ISA/PCI bus; no fault is raised.
func (b *Bus) ReadPort(port uint16) uint32 {
	v := uint32(0xFFFFFFFF)
	if e, ok := b.ports[port]; ok {
		v = e.h.PortRead(port - e.base)
	}
	if b.tap != nil {
		b.tap(port, v, false)
	}
	return v
}

// WritePort performs a port write; writes to unmapped ports are dropped.
func (b *Bus) WritePort(port uint16, v uint32) {
	if e, ok := b.ports[port]; ok {
		e.h.PortWrite(port-e.base, v)
	}
	if b.tap != nil {
		b.tap(port, v, true)
	}
}

// Read8 reads one byte of physical memory.
func (b *Bus) Read8(addr uint32) (byte, bool) {
	if !b.InRAM(addr, 1) {
		return 0, false
	}
	return b.ram[addr], true
}

// Read16 reads a little-endian halfword.
func (b *Bus) Read16(addr uint32) (uint16, bool) {
	if !b.InRAM(addr, 2) {
		return 0, false
	}
	return binary.LittleEndian.Uint16(b.ram[addr:]), true
}

// Read32 reads a little-endian word.
func (b *Bus) Read32(addr uint32) (uint32, bool) {
	if !b.InRAM(addr, 4) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b.ram[addr:]), true
}

// Write8 writes one byte.
func (b *Bus) Write8(addr uint32, v byte) bool {
	if !b.InRAM(addr, 1) {
		return false
	}
	b.ram[addr] = v
	if b.writeNotify != nil {
		b.writeNotify(addr, 1)
	}
	return true
}

// Write16 writes a little-endian halfword.
func (b *Bus) Write16(addr uint32, v uint16) bool {
	if !b.InRAM(addr, 2) {
		return false
	}
	binary.LittleEndian.PutUint16(b.ram[addr:], v)
	if b.writeNotify != nil {
		b.writeNotify(addr, 2)
	}
	return true
}

// Write32 writes a little-endian word.
func (b *Bus) Write32(addr uint32, v uint32) bool {
	if !b.InRAM(addr, 4) {
		return false
	}
	binary.LittleEndian.PutUint32(b.ram[addr:], v)
	if b.writeNotify != nil {
		b.writeNotify(addr, 4)
	}
	return true
}

// DMARead copies len(dst) bytes of physical memory at addr into dst
// (device → host direction). Reports success; dst is untouched when the
// range is not in RAM.
func (b *Bus) DMARead(addr uint32, dst []byte) bool {
	if !b.InRAM(addr, uint32(len(dst))) {
		return false
	}
	copy(dst, b.ram[addr:])
	return true
}

// DMAWrite copies data into physical memory at addr. Reports success.
func (b *Bus) DMAWrite(addr uint32, data []byte) bool {
	if !b.InRAM(addr, uint32(len(data))) {
		return false
	}
	copy(b.ram[addr:], data)
	if b.writeNotify != nil {
		b.writeNotify(addr, uint32(len(data)))
	}
	return true
}

// LoadImage copies a program image into RAM at its start address.
func (b *Bus) LoadImage(start uint32, data []byte) bool {
	return b.DMAWrite(start, data)
}
