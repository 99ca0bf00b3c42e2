package guest

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"lvmm/internal/asm"
	"lvmm/internal/hw/pit"
	"lvmm/internal/isa"
	"lvmm/internal/machine"
	"lvmm/internal/netsim"
)

// Memory-map constants shared between the loader and the kernel source.
const (
	BootInfoAddr  = 0x800
	HdrTmplAddr   = 0x900
	KernelBase    = 0x1000
	DiskBufBase   = 0x1000000
	PageTableBase = 0x2000000 // guest page tables (loader-built)
	AppBase       = 0x2400000 // user application region
	DefaultMemTop = 0x3C00000 // 60 MB: guest ceiling on the 64 MB machine
)

// Boot-info field offsets (see kernel.go's .equ block).
const (
	biMagic   = 0
	biMemTop  = 4
	biTickHz  = 8
	biBPT     = 12
	biSeg     = 16
	biBlk     = 20
	biDisks   = 24
	biDur     = 28
	biFlags   = 32
	biCoal    = 36
	biPtbr    = 40
	biApp     = 44
	biPseudo  = 48
	biSegSh   = 52
	biBlkSh   = 56
	biPitDiv  = 60
	biAppCmd  = 64
	biAppArg  = 68
	bootMagic = 0x48585447 // "HXTG"
)

// Flags in the boot-info flags word.
const (
	FlagCsumOffload = 1 << 0
	FlagRunApp      = 1 << 2
)

// Params configures a streaming run.
type Params struct {
	// RateMbps is the target transfer rate in megabits of UDP payload
	// per second (the paper's x-axis).
	RateMbps float64
	// SegmentBytes is the UDP payload size (paper: "1024KB segments",
	// which we read as 1024-byte segments; see DESIGN.md). Power of two.
	SegmentBytes uint32
	// BlockBytes is the disk read size (paper: 2 MB). Power of two.
	BlockBytes uint32
	// DurationTicks is the run length in pacing ticks.
	DurationTicks uint32
	// TickHz is the pacing tick rate (default 100).
	TickHz uint32
	// CsumOffload advertises a NIC checksum engine to the guest.
	CsumOffload bool
	// Coalesce is the NIC interrupt-coalescing factor (0/1 = per frame).
	Coalesce uint32
	// UsePaging makes the loader build identity page tables which the
	// kernel installs at boot.
	UsePaging bool
	// MemTop is the guest's memory ceiling; 0 selects DefaultMemTop.
	MemTop uint32
}

// DefaultParams returns the paper's §3 workload at the given target rate.
func DefaultParams(rateMbps float64) Params {
	return Params{
		RateMbps:      rateMbps,
		SegmentBytes:  1024,
		BlockBytes:    2 << 20,
		DurationTicks: 50, // 0.5 s at 100 Hz
		TickHz:        100,
		CsumOffload:   true,
		Coalesce:      1,
		UsePaging:     true,
	}
}

var (
	kernelOnce sync.Once
	kernelImg  *asm.Image
)

// Kernel returns the assembled streaming kernel (cached).
func Kernel() *asm.Image {
	kernelOnce.Do(func() { kernelImg = asm.MustAssemble(StreamKernelSource) })
	return kernelImg
}

// pseudoSumLE computes the constant part of the UDP checksum — pseudo
// header plus static UDP header fields — summed in little-endian byte
// pairs, matching the guest's lhu-based loop. (RFC 1071: the Internet
// checksum is byte-order independent, so a consistently swapped sum
// yields the byte-swapped checksum, which the guest stores with a
// little-endian halfword store to produce network byte order.)
func pseudoSumLE(f netsim.FlowParams, payloadLen int) uint32 {
	udpLen := uint16(netsim.UDPHeaderLen + payloadLen)
	b := make([]byte, 0, 20)
	b = append(b, f.SrcIP[:]...)
	b = append(b, f.DstIP[:]...)
	b = append(b, 0, netsim.ProtoUDP)
	b = append(b, byte(udpLen>>8), byte(udpLen))
	// UDP header: ports, length, zero checksum.
	b = append(b, byte(f.SrcPort>>8), byte(f.SrcPort))
	b = append(b, byte(f.DstPort>>8), byte(f.DstPort))
	b = append(b, byte(udpLen>>8), byte(udpLen))
	b = append(b, 0, 0)
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i]) | uint32(b[i+1])<<8
	}
	return sum
}

// Prepare loads the streaming kernel and boot parameters into the
// machine. The caller resets the CPU (bare metal) or launches a VMM at
// the returned entry point afterwards.
func Prepare(m *machine.Machine, p Params) (entry uint32, err error) {
	if p.SegmentBytes == 0 || p.SegmentBytes&(p.SegmentBytes-1) != 0 {
		return 0, fmt.Errorf("guest: segment bytes %d not a power of two", p.SegmentBytes)
	}
	if p.BlockBytes == 0 || p.BlockBytes&(p.BlockBytes-1) != 0 {
		return 0, fmt.Errorf("guest: block bytes %d not a power of two", p.BlockBytes)
	}
	if p.SegmentBytes < 64 || p.SegmentBytes > 1400 {
		return 0, fmt.Errorf("guest: segment bytes %d outside sane UDP payload range", p.SegmentBytes)
	}
	if p.BlockBytes/p.SegmentBytes > 8192 {
		return 0, fmt.Errorf("guest: %d segments per block exceeds the kernel's queue reservation (max 8192)",
			p.BlockBytes/p.SegmentBytes)
	}
	if p.TickHz == 0 {
		p.TickHz = 100
	}
	// The boot info carries the rate as a uint32 byte count per tick; a
	// float conversion out of that range (NaN and ±Inf included) is
	// implementation-dependent, so it is refused rather than encoded.
	bpt := p.RateMbps * 1e6 / 8 / float64(p.TickHz)
	if !(bpt >= 0 && bpt <= math.MaxUint32) {
		return 0, fmt.Errorf("guest: offered rate %g Mb/s is not encodable at %d Hz", p.RateMbps, p.TickHz)
	}
	memTop := p.MemTop
	if memTop == 0 {
		memTop = DefaultMemTop
	}

	img := Kernel()
	if err := m.LoadImage(img); err != nil {
		return 0, err
	}

	// Header template for the fixed segment size.
	flow := netsim.DefaultFlow()
	hdr := netsim.BuildHeaderTemplate(flow, int(p.SegmentBytes))
	if !m.Bus.DMAWrite(HdrTmplAddr, hdr) {
		return 0, fmt.Errorf("guest: header template does not fit")
	}

	bytesPerTick := uint32(bpt)
	pitDiv := uint32(pit.InputHz) / p.TickHz
	flags := uint32(0)
	if p.CsumOffload {
		flags |= FlagCsumOffload
	}

	w := func(off int, v uint32) { m.Bus.Write32(uint32(BootInfoAddr+off), v) }
	w(biMagic, bootMagic)
	w(biMemTop, memTop)
	w(biTickHz, p.TickHz)
	w(biBPT, bytesPerTick)
	w(biSeg, p.SegmentBytes)
	w(biBlk, p.BlockBytes)
	w(biDisks, 3)
	w(biDur, p.DurationTicks)
	w(biFlags, flags)
	w(biCoal, p.Coalesce)
	w(biPseudo, pseudoSumLE(flow, int(p.SegmentBytes)))
	w(biSegSh, uint32(bits.TrailingZeros32(p.SegmentBytes)))
	w(biBlkSh, uint32(bits.TrailingZeros32(p.BlockBytes)))
	w(biPitDiv, pitDiv)

	if p.UsePaging {
		ptbr, err := BuildPageTables(m, memTop, false)
		if err != nil {
			return 0, err
		}
		w(biPtbr, ptbr|1)
	} else {
		w(biPtbr, 0)
	}
	return img.Entry, nil
}

// BuildPageTables constructs identity page tables for [0, memTop) at
// PageTableBase, exactly as a boot loader would: supervisor read-write
// everywhere, except the page-table pages themselves (mapped read-only so
// a monitor's direct paging can interpose) and, when withApp is set, the
// user-accessible application region at AppBase.
//
// Returns the page-directory physical address.
func BuildPageTables(m *machine.Machine, memTop uint32, withApp bool) (uint32, error) {
	if memTop > m.Bus.RAMSize() {
		return 0, fmt.Errorf("guest: memTop 0x%x beyond RAM", memTop)
	}
	pd := uint32(PageTableBase)
	nPT := (memTop + (1 << 22) - 1) >> 22
	ptEnd := pd + isa.PageSize + nPT*isa.PageSize
	if ptEnd > memTop {
		return 0, fmt.Errorf("guest: page tables [0x%x,0x%x) exceed guest memory", pd, ptEnd)
	}
	bus := m.Bus
	for i := uint32(0); i < 1024; i++ {
		bus.Write32(pd+i*4, 0)
	}
	for t := uint32(0); t < nPT; t++ {
		pt := pd + isa.PageSize + t*isa.PageSize
		bus.Write32(pd+t*4, pt|isa.PTEPresent|isa.PTEWritable|isa.PTEUser)
		for i := uint32(0); i < 1024; i++ {
			pa := t<<22 | i<<isa.PageShift
			var pte uint32
			switch {
			case pa >= memTop:
				// beyond the guest: unmapped
			case pa >= pd && pa < ptEnd:
				// page tables: read-only (direct-paging discipline)
				pte = pa | isa.PTEPresent
			case withApp && pa >= AppBase && pa < AppBase+(4<<20):
				pte = pa | isa.PTEPresent | isa.PTEWritable | isa.PTEUser
			default:
				pte = pa | isa.PTEPresent | isa.PTEWritable
			}
			bus.Write32(pt+i*4, pte)
		}
	}
	return pd, nil
}

// Results summarizes a finished streaming run, decoded from the guest's
// simctl counters.
type Results struct {
	SegmentsSent uint32
	Ticks        uint32
	QueueBacklog uint32
	UnspentBytes uint32
	FatalCause   uint32
	FatalVaddr   uint32
	ExitCode     uint32
}

// ReadResults decodes the guest counters after a run.
func ReadResults(m *machine.Machine) Results {
	return Results{
		SegmentsSent: m.GuestCounters[0],
		Ticks:        m.GuestCounters[1],
		QueueBacklog: m.GuestCounters[2],
		UnspentBytes: m.GuestCounters[3],
		FatalCause:   m.GuestCounters[6],
		FatalVaddr:   m.GuestCounters[7],
		ExitCode:     m.ExitCode(),
	}
}
