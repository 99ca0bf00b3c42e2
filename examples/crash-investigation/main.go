// Crash-investigation: the stability experiment from the paper's core
// argument. A buggy guest OS wild-writes through memory — including over
// the region where a conventional embedded debugger keeps its state, and
// at the monitor's own memory.
//
//   - Under the lightweight VMM, the monitor contains the damage, records
//     the violation, and the remote debugger performs a full post-mortem.
//   - With a conventional guest-resident stub on bare metal, the same bug
//     destroys the debugger itself.
//   - With the record/replay engine, the crash is captured as a trace and
//     investigated with time travel: from the wedge point, the debugger
//     runs *backwards* to the exact store that did the damage.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"lvmm/internal/asm"
	"lvmm/internal/debugger"
	"lvmm/internal/gdbstub"
	"lvmm/internal/machine"
	"lvmm/internal/replay"
	"lvmm/internal/vmm"
)

// buggyOS installs a trivial fault handler, does some "work", then a wild
// pointer walks over low memory (where the embedded stub lives) and
// finally dereferences into the monitor's region.
const buggyOS = `
        .equ VTAB, 0x4000
        .org 0x1000
        _start:
            li   sp, 0x9000
            li   r1, VTAB
            movrc vbar, r1
            la   r2, handler
            li   r3, 32
        vfill:
            sw   r2, 0(r1)
            addi r1, r1, 4
            addi r3, r3, -1
            bnez r3, vfill
            li   r1, 0x8000
            movrc ksp, r1

            ; "work" (several virtual milliseconds before the bug bites,
            ; so the debugger can be seen working beforehand)
            li   r9, 0
        work:
            addi r9, r9, 1
            li   r2, 3000000
            blt  r9, r2, work

            ; BUG 1: wild pointer scribbles over low memory, destroying
            ; anything that lives there (like an embedded debugger's state)
            li   r1, 0x600
        scribble:
            sw   r9, 0(r1)
            addi r1, r1, 4
            li   r2, 0x900
            blt  r1, r2, scribble

            ; BUG 2: dereference into the monitor's region (60 MB)
            li   r1, 0x3C00000
            sw   r9, 0(r1)

            ; if we get here the fault was reflected; record and spin
        handler:
            movcr r10, cause
            movcr r11, vaddr
        spin:
            b    spin
    `

func main() {
	img := asm.MustAssemble(buggyOS)

	fmt.Println("=== scenario 1: lightweight VMM (paper's design) ===")
	monitorScenario(img)

	fmt.Println()
	fmt.Println("=== scenario 2: conventional embedded stub on bare metal ===")
	embeddedScenario(img)

	fmt.Println()
	fmt.Println("=== scenario 3: record the crash, then time-travel to the bug ===")
	timeTravelScenario(img)
}

// buildCrashTarget constructs the monitored machine the same way twice:
// once to record, once to replay (replay requires identical construction).
func buildCrashTarget(img *asm.Image) (*machine.Machine, *vmm.VMM, *gdbstub.Stub) {
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		log.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	stub := v.EnableDebugStub()
	if err := v.Launch(img.Entry); err != nil {
		log.Fatal(err)
	}
	return m, v, stub
}

// timeTravelScenario records the crashing run into a trace, replays it,
// and investigates *backwards*: from the frozen wedge point, a watchpoint
// plus reverse-continue lands on the exact store that corrupted memory —
// a question post-mortem inspection alone cannot answer, because by the
// time the guest is frozen the damage is thousands of instructions old.
func timeTravelScenario(img *asm.Image) {
	// Record: run the buggy guest to its demise under the recorder.
	// The trace streams into memory; a file works the same way.
	m, v, _ := buildCrashTarget(img)
	var trace bytes.Buffer
	rec, err := replay.NewStreamRecorder(&trace, m, v, nil,
		replay.TraceMeta{Custom: true, Label: "crash-investigation"},
		replay.Options{SnapshotInterval: 10_000_000})
	if err != nil {
		log.Fatal(err)
	}
	rec.Start()
	m.Run(m.Clock() + 50_000_000)
	stats, err := rec.FinishStream()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded the crashing run: %d instructions, %d snapshots\n",
		stats.EndInstr, stats.Keyframes+stats.Deltas)

	// Replay: open the trace bytes, rebuild the identical machine and
	// attach the replayer; the debug stub gains the RSP reverse-execution
	// packets (bs/bc).
	src, err := replay.NewLazyTrace(bytes.NewReader(trace.Bytes()), int64(trace.Len()), 0)
	if err != nil {
		log.Fatal(err)
	}
	m2, v2, stub2 := buildCrashTarget(img)
	rp, err := replay.NewReplayerSource(src, m2, v2, nil)
	if err != nil {
		log.Fatal(err)
	}
	stub2.SetReverser(rp)

	dbg, err := debugger.New(debugger.NewSimTransport(m2))
	if err != nil {
		log.Fatal(err)
	}
	repl := debugger.NewREPL(dbg, os.Stdout)
	repl.LoadSymbols(img)

	// Seek to the wedge point — the violation that froze the guest — on a
	// clean re-execution of the recorded timeline.
	if err := rp.SeekInstr(src.StartInstr()); err != nil {
		log.Fatal(err)
	}
	if err := rp.SeekInstr(stats.EndInstr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat the wedge point (instruction %d):\n", rp.Position())
	for _, cmd := range []string{"regs"} {
		fmt.Printf("\n(hxdbg) %s\n", cmd)
		if err := repl.Execute(cmd); err != nil {
			log.Fatal(err)
		}
	}

	// Time travel: who overwrote 0x700 (where the embedded stub of
	// scenario 2 kept its state)? Watch the address and run backwards.
	fmt.Println("\n(hxdbg) watch 700 4")
	fmt.Println("(hxdbg) rcont")
	if err := repl.Execute("watch 700 4"); err != nil {
		log.Fatal(err)
	}
	if err := repl.Execute("rcont"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlanded just after the store; the culprit and its operands:")
	for _, cmd := range []string{"dis scribble 3", "regs"} {
		fmt.Printf("\n(hxdbg) %s\n", cmd)
		if err := repl.Execute(cmd); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\n(hxdbg) rstep 2   # and two instructions further back")
	if err := repl.Execute("unwatch 700"); err != nil {
		log.Fatal(err)
	}
	if err := repl.Execute("rstep 2"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n-> the trace pinpointed the wild store, travelling backwards from the crash")
}

func monitorScenario(img *asm.Image) {
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		log.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	v.EnableDebugStub()
	var violations []uint32
	v.SetViolationHook(func(va uint32) { violations = append(violations, va) })
	if err := v.Launch(img.Entry); err != nil {
		log.Fatal(err)
	}

	dbg, err := debugger.New(debugger.NewSimTransport(m))
	if err != nil {
		log.Fatal(err)
	}

	// Let the guest crash itself (the monitor freezes it at the
	// violation because a debugger is attached).
	m.Run(m.Clock() + 50_000_000)
	fmt.Printf("monitor recorded %d violation(s); first at 0x%07x\n",
		len(violations), violations[0])

	// Full post-mortem through the monitor-resident stub.
	repl := debugger.NewREPL(dbg, os.Stdout)
	repl.LoadSymbols(img)
	for _, cmd := range []string{"regs", "dis", "monitor info"} {
		fmt.Printf("\n(hxdbg) %s\n", cmd)
		if err := repl.Execute(cmd); err != nil {
			log.Fatalf("debugging a crashed guest failed: %v", err)
		}
	}
	fmt.Println("\n-> debugger fully functional after the guest ran wild")
}

func embeddedScenario(img *asm.Image) {
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		log.Fatal(err)
	}
	m.CPU.Reset(img.Entry)
	target := gdbstub.NewBareTarget(m)
	// The conventional stub keeps its state in guest RAM at 0x700 —
	// right in the wild pointer's path.
	stub := gdbstub.NewGuestResident(target, m.Dbg, 0x700)
	target.OnStop(func(cause uint32) { stub.NotifyStop(5) })
	m.SetIdleHook(stub.Poll)
	var arm func()
	arm = func() { stub.Poll(); m.After(126_000, arm) }
	m.After(126_000, arm)

	tr := debugger.NewSimTransport(m)
	tr.BudgetCycles = 50_000_000
	dbg, err := debugger.New(tr)
	if err != nil {
		log.Fatal("pre-crash handshake should work: ", err)
	}
	fmt.Println("handshake before the crash: OK")

	m.Run(m.Clock() + 50_000_000) // guest scribbles over the stub

	if _, err := dbg.Regs(); err != nil {
		fmt.Printf("after the crash, the embedded debugger is gone: %v\n", err)
	} else {
		log.Fatal("unexpected: embedded stub survived")
	}
	fmt.Printf("stub self-check: dead=%v\n", stub.Dead())
	fmt.Println("-> the conventional approach loses the debugger exactly when it is needed")
}
