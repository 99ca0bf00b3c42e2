package machine

import (
	"encoding/binary"
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/hw/nic"
	"lvmm/internal/hw/scsi"
	"lvmm/internal/isa"
	"lvmm/internal/netsim"
)

// loadKernel assembles and loads src, returning machine and image.
func loadKernel(t *testing.T, m *Machine, src string) *asm.Image {
	t.Helper()
	img, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := m.LoadImage(img); err != nil {
		t.Fatal(err)
	}
	m.CPU.Reset(img.Entry)
	return img
}

// tickKernel programs the PIT for ~1 kHz, counts ticks in r9, and reports
// done after r2 ticks with the tick count in simctl counter 0.
const tickKernel = `
        .equ PIC_CMD,  0x20
        .equ PIC_MASK, 0x21
        .equ PIT_CTRL, 0x40
        .equ PIT_DIV,  0x41
        .equ SIM_DONE, 0xF0
        .equ SIM_CTR0, 0xF1
        .equ VTAB,     0x4000
        .org 0x1000
        _start:
            li   r1, VTAB
            movrc vbar, r1
            la   r2, tick
            sw   r2, 64(r1)        ; vector 16 = IRQ0 (PIT)
            li   r1, 0x8000
            movrc ksp, r1
            li   r1, PIC_MASK
            li   r2, 0xFFFE        ; unmask IRQ0 only
            out  r1, r2
            li   r1, PIT_DIV
            li   r2, 1193          ; ~1 kHz
            out  r1, r2
            li   r1, PIT_CTRL
            li   r2, 1
            out  r1, r2
            sti
        loop:
            hlt
            li   r2, 10
            blt  r9, r2, loop
            li   r1, SIM_CTR0
            out  r1, r9
            li   r1, SIM_DONE
            li   r2, 0
            out  r1, r2
        tick:
            addi r9, r9, 1
            li   r13, PIC_CMD
            li   r12, 0x20         ; EOI
            out  r13, r12
            iret
    `

func TestPITDrivesGuestTicks(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	loadKernel(t, m, tickKernel)
	reason := m.Run(isa.ClockHz) // up to 1 virtual second
	if reason != StopGuestDone {
		t.Fatalf("stop reason %v (pc=%08x)", reason, m.CPU.PC)
	}
	if m.GuestCounters[0] != 10 {
		t.Fatalf("ticks = %d", m.GuestCounters[0])
	}
	// Ten 1 kHz ticks ≈ 10 ms of virtual time.
	ms := float64(m.Clock()) / (isa.ClockHz / 1000)
	if ms < 9.5 || ms > 11.5 {
		t.Fatalf("elapsed %.2f ms, want ~10", ms)
	}
	// The guest idles in HLT between ticks: load must be tiny.
	if m.CPULoad() > 0.02 {
		t.Fatalf("idle kernel CPU load %.3f", m.CPULoad())
	}
}

func TestGuestConsoleOutput(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	loadKernel(t, m, `
        .equ CONS_DATA, 0x2F8
        .equ SIM_DONE,  0xF0
        .org 0x1000
        _start:
            la   r4, msg
        putc:
            lbu  r2, 0(r4)
            beqz r2, done
            li   r1, CONS_DATA
            out  r1, r2
            addi r4, r4, 1
            b    putc
        done:
            li   r1, SIM_DONE
            out  r1, zero
        msg: .asciz "hello from HX32"
    `)
	if reason := m.Run(10_000_000); reason != StopGuestDone {
		t.Fatalf("stop reason %v", reason)
	}
	if got := m.Console.String(); got != "hello from HX32" {
		t.Fatalf("console = %q", got)
	}
}

func TestSCSIReadDMAAndInterrupt(t *testing.T) {
	cfg := Config{ResetPC: 0x1000}
	cfg.DiskData[0] = func(lba uint32, buf []byte) {
		netsim.FillPattern(buf, uint64(lba)*scsi.SectorSize)
	}
	m := New(cfg)
	loadKernel(t, m, `
        .equ SCSI_CMD,  0x300
        .equ SCSI_LBA,  0x301
        .equ SCSI_CNT,  0x302
        .equ SCSI_DMA,  0x303
        .equ SCSI_ACK,  0x305
        .equ PIC_CMD,   0x20
        .equ PIC_MASK,  0x21
        .equ SIM_DONE,  0xF0
        .equ VTAB,      0x4000
        .org 0x1000
        _start:
            li   r1, VTAB
            movrc vbar, r1
            la   r2, disk_irq
            sw   r2, (16+9)*4(r1)  ; IRQ9 = SCSI0
            li   r1, 0x8000
            movrc ksp, r1
            li   r1, PIC_MASK
            li   r2, 0xFDFF        ; unmask IRQ9
            out  r1, r2
            ; read 4 KB from LBA 16 into 0x20000
            li   r1, SCSI_LBA
            li   r2, 16
            out  r1, r2
            li   r1, SCSI_CNT
            li   r2, 4096
            out  r1, r2
            li   r1, SCSI_DMA
            li   r2, 0x20000
            out  r1, r2
            li   r1, SCSI_CMD
            li   r2, 1
            out  r1, r2
            sti
            hlt
            b    .                 ; should not get here before irq
        disk_irq:
            li   r1, SCSI_ACK
            out  r1, zero
            li   r1, PIC_CMD
            li   r2, 0x20
            out  r1, r2
            li   r1, SIM_DONE
            out  r1, zero
            iret
    `)
	if reason := m.Run(isa.ClockHz); reason != StopGuestDone {
		t.Fatalf("stop reason %v", reason)
	}
	// Verify DMA contents match the disk pattern for LBA 16.
	got := m.Bus.RAM()[0x20000 : 0x20000+4096]
	if i := netsim.CheckPattern(got, 16*scsi.SectorSize); i != -1 {
		t.Fatalf("DMA data mismatch at %d", i)
	}
	if m.SCSI[0].ReadsCompleted != 1 || m.SCSI[0].BytesRead != 4096 {
		t.Fatalf("HBA stats: %d reads %d bytes", m.SCSI[0].ReadsCompleted, m.SCSI[0].BytesRead)
	}
	// 4 KB at 27.5 MB/s plus 0.2 ms overhead ≈ 0.35 ms.
	ms := float64(m.Clock()) / (isa.ClockHz / 1000)
	if ms < 0.3 || ms > 0.5 {
		t.Fatalf("read took %.3f ms", ms)
	}
}

func TestNICTransmitsFrame(t *testing.T) {
	recv := netsim.NewReceiver()
	var raw [][]byte
	cfg := Config{ResetPC: 0x1000, FrameSink: func(f []byte, c uint64) {
		raw = append(raw, append([]byte{}, f...))
		recv.Deliver(f, c)
	}}
	m := New(cfg)
	// Prepare a valid frame in guest memory at 0x30000 and a one-entry
	// descriptor ring at 0x38000, then let a tiny kernel ring the doorbell.
	payload := make([]byte, 128)
	netsim.FillPattern(payload, 0)
	binary.LittleEndian.PutUint32(payload[0:4], 0) // seq
	binary.LittleEndian.PutUint32(payload[4:8], 0) // voloff
	hdr := netsim.BuildHeaderTemplate(netsim.DefaultFlow(), len(payload))
	frame := append(hdr, payload...)
	copy(m.Bus.RAM()[0x30000:], frame)
	desc := m.Bus.RAM()[0x38000:]
	binary.LittleEndian.PutUint32(desc[0:], 0x30000)
	binary.LittleEndian.PutUint32(desc[4:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(desc[8:], nic.DescFlagEOP|nic.DescFlagCsum)

	loadKernel(t, m, `
        .equ NIC_CTRL, 0xC00
        .equ NIC_BASE, 0xC01
        .equ NIC_CNT,  0xC02
        .equ NIC_TAIL, 0xC03
        .equ NIC_ICR,  0xC05
        .equ PIC_CMD,  0x20
        .equ PIC_MASK, 0x21
        .equ SIM_DONE, 0xF0
        .equ VTAB,     0x4000
        .org 0x1000
        _start:
            li   r1, VTAB
            movrc vbar, r1
            la   r2, nic_irq
            sw   r2, (16+5)*4(r1)
            li   r1, 0x8000
            movrc ksp, r1
            li   r1, PIC_MASK
            li   r2, 0xFFDF        ; unmask IRQ5
            out  r1, r2
            li   r1, NIC_BASE
            li   r2, 0x38000
            out  r1, r2
            li   r1, NIC_CNT
            li   r2, 8
            out  r1, r2
            li   r1, NIC_CTRL
            li   r2, 1
            out  r1, r2
            li   r1, NIC_TAIL
            li   r2, 1
            out  r1, r2
            sti
            hlt
            b    .
        nic_irq:
            li   r1, NIC_ICR
            in   r2, r1            ; read-to-clear
            li   r1, PIC_CMD
            li   r2, 0x20
            out  r1, r2
            li   r1, SIM_DONE
            out  r1, zero
            iret
    `)
	if reason := m.Run(isa.ClockHz); reason != StopGuestDone {
		t.Fatalf("stop reason %v", reason)
	}
	if len(raw) != 1 {
		t.Fatalf("frames = %d", len(raw))
	}
	if !recv.Clean() {
		t.Fatalf("receiver: %s", recv.LastError())
	}
	// Descriptor status written back.
	st := binary.LittleEndian.Uint32(m.Bus.RAM()[0x38000+12:])
	if st&nic.DescStatDone == 0 {
		t.Fatal("descriptor done bit not set")
	}
	if m.NIC.FramesTx != 1 {
		t.Fatalf("FramesTx = %d", m.NIC.FramesTx)
	}
}

func TestSimctlCounters(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	loadKernel(t, m, `
        .org 0x1000
        _start:
            li r1, 0xF1
            li r2, 111
            out r1, r2
            li r1, 0xF8
            li r2, 888
            out r1, r2
            li r1, 0xF1
            in  r3, r1         ; read back
            li r1, 0xF0
            li r2, 42
            out r1, r2
    `)
	if reason := m.Run(10_000_000); reason != StopGuestDone {
		t.Fatalf("stop reason %v", reason)
	}
	if m.ExitCode() != 42 {
		t.Fatalf("exit code %d", m.ExitCode())
	}
	if m.GuestCounters[0] != 111 || m.GuestCounters[7] != 888 {
		t.Fatalf("counters %v", m.GuestCounters)
	}
	if m.CPU.Regs[3] != 111 {
		t.Fatalf("readback r3 = %d", m.CPU.Regs[3])
	}
}

func TestRunLimitAndIdleAccounting(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	loadKernel(t, m, `
        .org 0x1000
        _start: hlt
    `)
	// CPL0 HLT with IF=0 and no events: machine idles to the limit.
	reason := m.Run(1_000_000)
	if reason != StopLimit {
		t.Fatalf("reason %v", reason)
	}
	if m.Clock() < 1_000_000 {
		t.Fatalf("clock %d", m.Clock())
	}
	if m.CPULoad() > 0.01 {
		t.Fatalf("load %.3f for pure-idle guest", m.CPULoad())
	}
}

func TestWedgeStopsMachine(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	loadKernel(t, m, `
        .org 0x1000
        _start: syscall   ; no vector table: double fault -> wedge
    `)
	if reason := m.Run(1_000_000); reason != StopWedged {
		t.Fatalf("reason %v", reason)
	}
}

func TestDebugUARTRoundTrip(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	var sent []byte
	m.Dbg.SetTX(func(b byte) { sent = append(sent, b) })
	m.Dbg.InjectRX([]byte{0x7E})
	loadKernel(t, m, `
        .equ DBG_DATA,   0x3F8
        .equ DBG_STATUS, 0x3F9
        .org 0x1000
        _start:
            li   r1, DBG_STATUS
        wait:
            in   r2, r1
            andi r2, r2, 1
            beqz r2, wait
            li   r1, DBG_DATA
            in   r3, r1          ; read the byte
            addi r3, r3, 1
            out  r1, r3          ; echo+1
            li   r1, 0xF0
            out  r1, zero
    `)
	if reason := m.Run(10_000_000); reason != StopGuestDone {
		t.Fatalf("reason %v", reason)
	}
	if len(sent) != 1 || sent[0] != 0x7F {
		t.Fatalf("sent %v", sent)
	}
}

func TestEventOrderingFIFOWithinCycle(t *testing.T) {
	m := New(Config{ResetPC: 0x1000})
	var order []int
	m.After(100, func() { order = append(order, 1) })
	m.After(100, func() { order = append(order, 2) })
	m.After(50, func() { order = append(order, 0) })
	loadKernel(t, m, ".org 0x1000\n_start: hlt\n")
	m.Run(1000)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order %v", order)
	}
}

func TestStreamingMachineDiskStriping(t *testing.T) {
	recv := netsim.NewReceiver()
	m := NewStreaming(2<<20, recv, 0x1000)
	loadKernel(t, m, ".org 0x1000\n_start: hlt\n")
	// Disk 1 block 0 holds volume block 1: bytes at volume offset 2 MB.
	// Exercise the wiring with a synthetic device read.
	read := func(lba uint32) []byte {
		m.SCSI[1].PortWrite(1, lba)    // LBA
		m.SCSI[1].PortWrite(2, 64)     // count
		m.SCSI[1].PortWrite(3, 0x5000) // dma
		m.SCSI[1].PortWrite(0, scsi.CmdRead)
		m.Run(m.Now() + 2_000_000) // let the completion event fire
		return m.Bus.RAM()[0x5000:0x5040]
	}
	if i := netsim.CheckPattern(read(0), 2<<20); i != -1 {
		t.Fatalf("disk 1 striping wrong at %d", i)
	}
	// Disk 1 block 683 holds volume block 2050, 4 MB past 4 GiB. The
	// guest stamps 32-bit volume offsets, so the volume wraps at 2³²:
	// the receiver validates these bytes against offset 4 MB.
	if i := netsim.CheckPattern(read(683*(2<<20)/scsi.SectorSize), 4<<20); i != -1 {
		t.Fatalf("disk 1 past 4 GiB wrong at %d", i)
	}
}
