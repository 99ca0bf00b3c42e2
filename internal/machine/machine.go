// Package machine composes the target machine of the reproduction: an HX32
// CPU, physical memory, the PC/AT-style device complement (PIC, PIT, two
// UARTs, three SCSI HBAs, a gigabit NIC), and a discrete-event virtual
// clock. Everything runs in virtual cycles at 1.26 GHz, so CPU-load
// measurements are deterministic and independent of host speed.
//
// The machine is VMM-agnostic: a monitor attaches through three hooks —
// the CPU trap diverter, the interrupt sink (the monitor owns the physical
// PIC), and the idle hook (for polling the debug channel) — which is the
// same seam the paper's lightweight monitor occupies beneath an unmodified
// guest OS.
package machine

import (
	"bytes"
	"container/heap"
	"fmt"
	"sync/atomic"
	"time"

	"lvmm/internal/asm"
	"lvmm/internal/bus"
	"lvmm/internal/cpu"
	"lvmm/internal/fault"
	"lvmm/internal/hw"
	"lvmm/internal/hw/nic"
	"lvmm/internal/hw/pic"
	"lvmm/internal/hw/pit"
	"lvmm/internal/hw/scsi"
	"lvmm/internal/hw/uart"
	"lvmm/internal/netsim"
)

// DefaultRAMBytes is the installed memory of the reference machine.
const DefaultRAMBytes = 64 << 20

// Config parameterizes machine construction.
type Config struct {
	// RAMBytes is physical memory size; 0 selects DefaultRAMBytes.
	RAMBytes int
	// DiskData supplies disk contents per HBA index; nil disks read zeros.
	DiskData [3]scsi.DataFunc
	// FrameSink receives NIC transmissions; nil discards.
	FrameSink nic.FrameSink
	// ResetPC is the CPU reset vector (where the kernel image begins).
	ResetPC uint32
}

// StopReason explains why Run returned.
type StopReason int

const (
	// StopLimit: the cycle limit was reached.
	StopLimit StopReason = iota
	// StopGuestDone: the guest wrote the simctl DONE register.
	StopGuestDone
	// StopWedged: the CPU took an unrecoverable fault cascade.
	StopWedged
	// StopRequested: RequestStop was called (debugger, monitor, harness).
	StopRequested
	// StopDeadlock: CPU halted with interrupts off and no pending events.
	StopDeadlock
	// StopInstrLimit: the instruction-count target set by SetStopAtInstr
	// was reached (replay seeks).
	StopInstrLimit
)

func (r StopReason) String() string {
	switch r {
	case StopLimit:
		return "cycle limit"
	case StopGuestDone:
		return "guest done"
	case StopWedged:
		return "cpu wedged"
	case StopRequested:
		return "stop requested"
	case StopDeadlock:
		return "deadlock"
	case StopInstrLimit:
		return "instruction limit"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Machine is the composed target.
type Machine struct {
	Bus  *bus.Bus
	CPU  *cpu.CPU
	PIC  *pic.PIC
	PIT  *pit.PIT
	Dbg  *uart.UART // monitor/debug channel (paper's communication device)
	Cons *uart.UART // guest console
	SCSI [3]*scsi.HBA
	NIC  *nic.NIC

	// Console accumulates guest console output.
	Console bytes.Buffer

	clock   uint64
	idle    uint64
	monitor uint64 // cycles charged by an attached monitor
	events  eventQueue
	seq     uint64

	// Cached event horizon for the burst in progress, revalidated against
	// seq by burstResume: seq advances on every event push (fireDue never
	// pops mid-burst), so an unchanged seq proves the cached horizon can
	// only be conservative (event cancellation only moves it later). This
	// keeps the fused-resume preamble to a handful of compares instead of
	// a heap peek + recompute per crossing.
	hz    uint64
	hzSeq uint64

	irqSink   func(line int)
	idleHook  func()
	guestIdle bool
	runLimit  uint64 // cycle limit of the Run call in progress

	// Record/replay hooks (see internal/replay).
	irqTrace    func(line int)
	preStepHook func()
	stopAtInstr uint64

	// Fault injection (see faults.go / internal/fault).
	faultPlan      *fault.Plan
	irqFault       func(line int) bool
	faultTrace     func(kind, unit uint8, arg uint64)
	irqDelivered   uint64 // delivery ordinals consumed by the lost-IRQ schedule
	faultsInjected uint64

	stopped    bool
	stopReason StopReason
	exitCode   uint32

	// stopReq is the one piece of machine state shared across
	// goroutines: RequestStop latches it from any goroutine, and Run's
	// tick loop consumes it. Everything else is confined to the
	// goroutine that calls Run.
	stopReq atomic.Bool

	// GuestCounters are the simctl scratch registers the guest reports
	// results through (bytes queued, underruns, ...).
	GuestCounters [8]uint32

	// IdleSleep, when nonzero, throttles idle iterations with a real
	// sleep so an interactive target (serving a live debugger over TCP)
	// neither spins a host core nor races through virtual time faster
	// than the debugger can type. Leave zero for batch runs and tests.
	IdleSleep time.Duration

	pollCountdown int
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	ram := cfg.RAMBytes
	if ram == 0 {
		ram = DefaultRAMBytes
	}
	m := &Machine{}
	m.Bus = bus.New(ram)
	m.CPU = cpu.New(m.Bus, cfg.ResetPC)
	m.CPU.ClockFn = func() uint64 { return m.clock }

	m.PIC = pic.New()
	m.Bus.MapPorts(hw.PortPic, hw.PortWindow, m.PIC)

	m.PIT = pit.New(m, func() { m.PIC.Raise(hw.IRQPit) })
	m.Bus.MapPorts(hw.PortPit, hw.PortWindow, m.PIT)

	m.Dbg = uart.New(nil)
	m.Bus.MapPorts(hw.PortDebug, hw.PortWindow, m.Dbg)
	m.Cons = uart.New(func(b byte) { m.Console.WriteByte(b) })
	m.Bus.MapPorts(hw.PortCons, hw.PortWindow, m.Cons)

	scsiIRQ := [3]int{hw.IRQScsi0, hw.IRQScsi1, hw.IRQScsi2}
	scsiPort := [3]uint16{hw.PortScsi0, hw.PortScsi1, hw.PortScsi2}
	for i := 0; i < 3; i++ {
		data := cfg.DiskData[i]
		if data == nil {
			data = func(lba uint32, buf []byte) {
				for j := range buf {
					buf[j] = 0
				}
			}
		}
		line := scsiIRQ[i]
		m.SCSI[i] = scsi.New(m, func() { m.PIC.Raise(line) }, m.Bus, data)
		m.Bus.MapPorts(scsiPort[i], hw.PortWindow, m.SCSI[i])
	}

	sink := cfg.FrameSink
	if sink == nil {
		sink = func([]byte, uint64) {}
	}
	m.NIC = nic.New(m, func() { m.PIC.Raise(hw.IRQNic) }, m.Bus, sink)
	m.Bus.MapPorts(hw.PortNic, hw.PortWindow, m.NIC)

	m.Bus.MapPorts(hw.PortSimctl, hw.PortWindow, (*simctl)(m))
	return m
}

// Release returns the machine's physical memory to the process-wide RAM
// pool, and unmaps the CPU's native code memory, so the next New skips allocating (and the allocator skips
// clearing) tens of megabytes. Only the blocks the CPU's write-coverage
// map marks as touched are re-zeroed — everything else is still zero by
// the coverage invariant — so releasing costs O(working set), not
// O(installed RAM).
//
// The machine must not be used again after Release, and callers that
// wrote RAM directly (bypassing the bus and its write notifications)
// must not call it: such writes are invisible to the coverage map and
// would leak nonzero bytes into a "zeroed" slice. Loaders and DMA
// engines all go through the bus, so machines driven normally — built,
// booted, run — are safe to release.
func (m *Machine) Release() {
	m.CPU.ReleaseNative()
	ram := m.Bus.RAM()
	clearCovered(ram, m.CPU.WriteCoverage(), 0, len(ram))
	bus.ReclaimRAM(ram)
}

// NewStreaming builds the standard evaluation machine: three disks filled
// with the striped volume pattern for the given block size, and a
// validating receiver on the wire.
func NewStreaming(blockBytes uint32, recv *netsim.Receiver, resetPC uint32) *Machine {
	return NewStreamingSeeded(blockBytes, recv, resetPC, 0)
}

// NewStreamingSeeded is NewStreaming with a content seed selecting which
// deterministic volume pattern the disks carry (fleet scenarios stream
// distinct volumes; the receiver's PatternSeed must match).
func NewStreamingSeeded(blockBytes uint32, recv *netsim.Receiver, resetPC uint32, seed uint64) *Machine {
	cfg := Config{ResetPC: resetPC}
	for i := 0; i < 3; i++ {
		disk := uint64(i)
		cfg.DiskData[i] = func(lba uint32, buf []byte) {
			// Disk i stores volume blocks i, i+3, i+6, ... contiguously.
			// The volume wraps at 2³², the width of the offset the guest
			// stamps into each segment and the receiver validates against;
			// a power-of-two block never straddles the wrap.
			diskOff := uint64(lba) * scsi.SectorSize
			blk := diskOff / uint64(blockBytes)
			inBlk := diskOff % uint64(blockBytes)
			volOff := uint32((blk*3+disk)*uint64(blockBytes) + inBlk)
			netsim.FillPatternSeeded(buf, uint64(volOff), seed)
		}
	}
	if recv != nil {
		recv.PatternSeed = seed
		cfg.FrameSink = recv.Deliver
	}
	return New(cfg)
}

// Scheduler interface (hw.Scheduler).

// Now returns the current virtual cycle.
func (m *Machine) Now() uint64 { return m.clock }

// After schedules fn at Now()+delay.
func (m *Machine) After(delay uint64, fn func()) {
	m.seq++
	heap.Push(&m.events, &event{cycle: m.clock + delay, seq: m.seq, fn: fn})
}

// Monitor attachment hooks.

// SetIRQSink gives a monitor ownership of physical interrupts: every
// deliverable PIC line is acked and passed to sink instead of being
// vectored into the guest. Pass nil to restore architectural delivery.
func (m *Machine) SetIRQSink(sink func(line int)) { m.irqSink = sink }

// SetIdleHook installs a function called when the machine idles (guest
// halted); monitors use it to poll the debug channel.
func (m *Machine) SetIdleHook(h func()) { m.idleHook = h }

// SetGuestIdle marks the guest as idle (monitor emulating a trapped HLT).
// The machine advances virtual time to the next event, charging idle.
func (m *Machine) SetGuestIdle(v bool) { m.guestIdle = v }

// Record/replay hooks.

// SetIRQTrace installs an observer called for every physical interrupt
// delivery (to an attached monitor's sink or directly into the CPU), at
// the point of delivery. Record/replay uses it to log and verify the
// interrupt timeline. Pass nil to remove.
func (m *Machine) SetIRQTrace(f func(line int)) { m.irqTrace = f }

// SetPreStepHook installs a function called immediately before each
// instruction executes inside Run — after due events have fired and
// pending interrupts have been delivered, so CPU.PC is the instruction
// about to execute. The replay engine uses it to detect breakpoint
// crossings without perturbing the timeline. Pass nil to remove.
func (m *Machine) SetPreStepHook(f func()) { m.preStepHook = f }

// SetStopAtInstr makes Run return StopInstrLimit once the CPU's retired-
// instruction count reaches n (checked at instruction boundaries, after
// boundary events and interrupt deliveries). Zero disables the check.
// Replay seeks use it to land on an exact timeline position.
func (m *Machine) SetStopAtInstr(n uint64) { m.stopAtInstr = n }

// GuestIdle reports the monitor-emulated idle state.
func (m *Machine) GuestIdle() bool { return m.guestIdle }

// ChargeMonitor accounts cycles spent in an attached monitor (world
// switches, emulation work). Monitor time is busy time: it advances the
// clock without touching the idle counter.
func (m *Machine) ChargeMonitor(cycles uint64) {
	m.clock += cycles
	m.monitor += cycles
}

// ChargeIdle advances the clock, counting the time as idle.
func (m *Machine) ChargeIdle(cycles uint64) {
	m.clock += cycles
	m.idle += cycles
}

// Accounting.

// Clock returns total elapsed cycles.
func (m *Machine) Clock() uint64 { return m.clock }

// IdleCycles returns cycles spent with the CPU halted.
func (m *Machine) IdleCycles() uint64 { return m.idle }

// MonitorCycles returns cycles charged by an attached monitor.
func (m *Machine) MonitorCycles() uint64 { return m.monitor }

// BusyCycles returns non-idle cycles.
func (m *Machine) BusyCycles() uint64 { return m.clock - m.idle }

// CPULoad returns the busy fraction since reset (0..1).
func (m *Machine) CPULoad() float64 {
	if m.clock == 0 {
		return 0
	}
	return float64(m.BusyCycles()) / float64(m.clock)
}

// RequestStop makes Run return with StopRequested. It is the only
// Machine method that may be called from a goroutine other than the one
// running the machine: the request latches in an atomic flag which Run's
// tick loop (and the fused burst re-entry check) consumes, so an
// external coordinator — a fleet scheduler, a debugger front-end — can
// stop a running machine without a data race and with bounded latency
// (at most one poll interval of instructions, ~4096 ticks, before the
// flag is observed). A request made while the machine is not running is
// not lost: it stops the next Run call on its first tick.
func (m *Machine) RequestStop() { m.stopReq.Store(true) }

// stopRequested consumes a pending cross-goroutine stop request,
// recording StopRequested. Called only from the Run goroutine.
func (m *Machine) stopRequested() bool {
	if !m.stopReq.Load() {
		return false
	}
	m.stopReq.Store(false)
	m.stopped = true
	m.stopReason = StopRequested
	return true
}

// ExitCode returns the guest's simctl DONE value.
func (m *Machine) ExitCode() uint32 { return m.exitCode }

// LastStopReason returns why the most recent Run returned.
func (m *Machine) LastStopReason() StopReason { return m.stopReason }

// LoadImage copies an assembled image into physical memory.
func (m *Machine) LoadImage(img *asm.Image) error {
	if !m.Bus.LoadImage(img.Start, img.Data) {
		return fmt.Errorf("machine: image [0x%x,0x%x) exceeds RAM", img.Start, img.Start+uint32(len(img.Data)))
	}
	return nil
}

// pollInterval is the coarse granularity (in run-loop ticks) at which
// asynchronous external input is propagated into interrupt lines.
const pollInterval = 4096

// Run executes until the clock reaches limit or a stop condition occurs.
//
// The loop is tick-structured: every iteration fires due events, ticks the
// external-input poll countdown, and then spends the tick on exactly one of
// an interrupt delivery, an idle advance, or an instruction. Unless a
// per-instruction observer is in force (a pre-step hook, the trap flag, or
// an explicit cpu.ForceSlowEngine — see cpu.BurstSafe), the instruction arm
// hands off to runBurst, which executes predecoded straight-line bursts up
// to the event horizon while replicating this loop's tick bookkeeping
// exactly, so batched and unbatched runs are cycle- and tick-identical.
// Debug observers no longer force the slow arm: hardware breakpoints are
// page-armed inside cpu.BurstRun and watch/spy ranges gate only stores into
// armed pages, so a machine with a debugger attached still bursts.
func (m *Machine) Run(limit uint64) StopReason {
	m.stopped = false
	m.runLimit = limit
	for m.clock < limit && !m.stopped {
		if m.stopRequested() {
			break
		}
		m.fireDue()
		if m.stopped {
			break
		}

		// External input (debugger bytes) arrives asynchronously; poll at
		// coarse granularity to keep the hot loop cheap.
		m.pollCountdown--
		if m.pollCountdown <= 0 {
			m.pollCountdown = pollInterval
			m.pollExternal()
		}

		// Interrupt delivery: a monitor owns the PIC if attached.
		if m.deliverPending() {
			continue
		}

		if m.CPU.Halted() || m.guestIdle || m.CPU.Wedged() {
			if m.CPU.Wedged() {
				m.stopReason = StopWedged
				return m.stopReason
			}
			if len(m.events) == 0 {
				// Nothing will ever happen; idle to the limit in poll-sized
				// slices so a debugger can still get in.
				if m.idleSlice(limit) {
					continue
				}
				m.stopReason = StopLimit
				return m.stopReason
			}
			next := m.events[0].cycle
			if next > limit {
				next = limit
			}
			if next > m.clock {
				m.ChargeIdle(next - m.clock)
			}
			m.pollExternal()
			if m.idleHook != nil {
				m.idleHook()
			}
			if m.IdleSleep > 0 {
				time.Sleep(m.IdleSleep)
			}
			continue
		}

		if m.stopAtInstr != 0 && m.CPU.Stat.Instructions >= m.stopAtInstr {
			m.stopReason = StopInstrLimit
			return m.stopReason
		}

		if m.preStepHook == nil && m.CPU.BurstSafe() {
			if !m.runBurst(limit) {
				return m.stopReason
			}
			continue
		}

		if m.preStepHook != nil {
			m.preStepHook()
		}
		res := m.CPU.Step()
		m.clock += res.Cycles
		if res.Wedged {
			m.stopReason = StopWedged
			return m.stopReason
		}
	}
	if m.stopped {
		return m.stopReason
	}
	m.stopReason = StopLimit
	return StopLimit
}

// deliverPending delivers one pending PIC interrupt — to the monitor's
// sink when attached, architecturally when the guest has interrupts
// enabled. Reports whether the current tick was consumed by a delivery.
func (m *Machine) deliverPending() bool {
	line, ok := m.PIC.Pending()
	if !ok {
		return false
	}
	if m.irqSink != nil {
		if m.dropIRQ(line) {
			return true
		}
		m.PIC.Ack(line)
		if m.irqTrace != nil {
			m.irqTrace(line)
		}
		m.irqSink(line)
		return true
	}
	if m.CPU.PSR&1 == 0 { // PSR.IF clear: leave the line pending
		return false
	}
	if m.dropIRQ(line) {
		return true
	}
	m.PIC.Ack(line)
	if m.irqTrace != nil {
		m.irqTrace(line)
	}
	res := m.CPU.DeliverIRQ(line)
	m.clock += res.Cycles
	return true
}

// runBurst executes predecoded straight-line instructions without
// per-instruction event-heap peeks. The event horizon is the next
// scheduled event (nothing can fire before it: devices only act through
// events, port I/O, or traps, and the latter two end or pause the burst)
// capped by the cycle limit; the tick budget is whichever comes first of
// the next external-input poll and the stop-at-instruction target.
//
// The caller has already run the current tick's preamble (events fired,
// poll ticked, no interrupt pending, burst-safe CPU), so the burst's
// first instruction executes on the current tick and only the n-1
// subsequent ticks consume poll-countdown decrements — identical
// bookkeeping to n iterations of the unbatched loop, which keeps batched
// execution tick-for-tick identical (replay traces recorded on either
// engine verify on the other).
//
// Trap fusion: a trap a monitor fully emulates does not surface to Run.
// Traps raised mid-burst resume inside cpu.BurstRun through the
// burstResume hook, and slow instructions (the dominant crossing: CLI/STI
// and IO-perm emulation) execute inline and resume through the same hook
// — so a VMM-attached guest stays on the predecoded engine across
// monitor-handled crossings, paying a handful of compares per re-entry.
// Debugger-owned stops, reflected guest faults, idle transitions, due
// events, deliverable interrupts, and poll/budget expiry all still
// surface exactly as before (burstResume mirrors the outer loop's
// preamble decisions, and the maxTicks budget bounds the whole fused run
// to exactly the ticks the unbatched loop would grant, so fused and
// unfused runs are tick-identical). Returns false when the CPU wedged
// (stopReason is set).
func (m *Machine) runBurst(limit uint64) bool {
	m.hz = m.eventHorizon(limit)
	m.hzSeq = m.seq
	maxTicks := uint64(m.pollCountdown)
	if m.stopAtInstr != 0 {
		// ≥ 1: the outer loop already returned if the target was reached.
		if rem := m.stopAtInstr - m.CPU.Stat.Instructions; rem < maxTicks {
			maxTicks = rem
		}
	}
	n, _ := m.CPU.BurstRun(&m.clock, m.hz, maxTicks, m.burstResume)
	// The first tick was paid by the caller's preamble; the n-1 subsequent
	// ones consume countdown decrements, like n iterations of the unbatched
	// loop.
	if n > 0 {
		m.pollCountdown -= int(n - 1)
	}
	if m.CPU.Wedged() {
		m.stopReason = StopWedged
		return false
	}
	return true
}

// burstResume is the cpu.BurstResume hook: after a monitor fully handles
// a trap raised mid-burst (or a slow instruction executes inline), it
// decides whether the burst may continue and supplies the event horizon —
// recomputed only when the event queue grew (seq moved), since the
// monitor's emulation may have scheduled earlier events; otherwise the
// cached horizon is still exact and the whole preamble is branch-cheap.
// Tick budgeting stays with BurstRun's maxTicks, which already bounds the
// burst to the countdown and stop-at-instruction windows.
//
// The re-entry predicate mirrors exactly what Run's per-tick preamble
// would check before reaching the burst arm again with nothing to do
// first: no stop, no due event or cycle limit (both folded into the
// cached horizon), no deliverable interrupt, a runnable CPU, the
// stop-at-instruction target unreached, no pre-step hook, and a
// burst-safe CPU (TF clear, slow engine not forced). When it holds, the
// burst continues in place; when it does not, surfacing to the outer
// loop reproduces the unfused behaviour exactly. The poll countdown
// needs no re-check: BurstRun's maxTicks budget already bounds the whole
// fused run to the countdown window. The predicate lives inline in this
// hook (rather than in a helper) so the per-trap resume path is a single
// call through the closure.
func (m *Machine) burstResume() (uint64, bool) {
	if m.hzSeq != m.seq {
		m.hz = m.eventHorizon(m.runLimit)
		m.hzSeq = m.seq
	}
	if m.clock < m.hz && !m.stopped && !m.stopReq.Load() &&
		!m.irqDeliverable() &&
		!m.CPU.Halted() && !m.guestIdle && !m.CPU.Wedged() &&
		(m.stopAtInstr == 0 || m.CPU.Stat.Instructions < m.stopAtInstr) &&
		m.preStepHook == nil && m.CPU.BurstSafe() {
		return m.hz, true
	}
	return 0, false
}

// eventHorizon is the next scheduled event's cycle capped by limit:
// nothing can fire before it, so a burst may run to it unchecked.
func (m *Machine) eventHorizon(limit uint64) uint64 {
	if len(m.events) > 0 && m.events[0].cycle < limit {
		return m.events[0].cycle
	}
	return limit
}

// irqDeliverable mirrors deliverPending's decision without consuming the
// line: a pending PIC request is deliverable to a monitor's sink always,
// and architecturally only when the guest has interrupts enabled. The
// cheap HasRequest precheck may report true for an in-service-blocked
// line Pending would refuse; that only surfaces to the outer loop, which
// re-evaluates exactly.
func (m *Machine) irqDeliverable() bool {
	if !m.PIC.HasRequest() {
		return false
	}
	return m.irqSink != nil || m.CPU.PSR&1 != 0
}

// idleSlice advances idle time by up to 1 ms virtual, polling external
// input. Returns true if the machine should continue running.
func (m *Machine) idleSlice(limit uint64) bool {
	const slice = 1_260_000 // 1 ms at 1.26 GHz
	step := uint64(slice)
	if m.clock+step > limit {
		step = limit - m.clock
	}
	if step == 0 {
		return false
	}
	m.ChargeIdle(step)
	m.pollExternal()
	if m.idleHook != nil {
		m.idleHook()
	}
	if m.IdleSleep > 0 {
		time.Sleep(m.IdleSleep)
	}
	return true
}

// pollExternal propagates asynchronous device input into interrupt lines.
func (m *Machine) pollExternal() {
	if m.Dbg.RxPending() {
		m.PIC.Raise(hw.IRQDebug)
	}
	if m.Cons.RxPending() {
		m.PIC.Raise(hw.IRQCons)
	}
}

// fireDue runs all events scheduled at or before the current clock.
func (m *Machine) fireDue() {
	for len(m.events) > 0 && m.events[0].cycle <= m.clock {
		e := heap.Pop(&m.events).(*event)
		e.fn()
	}
}

// StepOne executes exactly one guest instruction (debugger single-step).
// Interrupts are not delivered and due events do not fire, so the step is
// purely the next instruction.
func (m *Machine) StepOne() cpu.StepResult {
	res := m.CPU.Step()
	m.clock += res.Cycles
	return res
}

// event queue (min-heap on cycle, FIFO within a cycle).

type event struct {
	cycle uint64
	seq   uint64
	fn    func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// simctl is the harness measurement tap: a magic port window the guest
// writes completion status and result counters through. It is not part of
// the modelled hardware (its accesses cost normal port-I/O cycles but are
// granted to all configurations).
type simctl Machine

// Simctl register offsets.
const (
	SimctlDone     = 0 // write: exit code; stops the machine
	SimctlCounter0 = 1 // +1..+8: result counters
)

func (s *simctl) PortRead(port uint16) uint32 {
	idx := int(port&0xF) - SimctlCounter0
	if idx >= 0 && idx < len(s.GuestCounters) {
		return s.GuestCounters[idx]
	}
	return 0
}

func (s *simctl) PortWrite(port uint16, v uint32) {
	off := port & 0xF
	if off == SimctlDone {
		m := (*Machine)(s)
		m.exitCode = v
		m.stopped = true
		m.stopReason = StopGuestDone
		return
	}
	idx := int(off) - SimctlCounter0
	if idx >= 0 && idx < len(s.GuestCounters) {
		s.GuestCounters[idx] = v
	}
}
