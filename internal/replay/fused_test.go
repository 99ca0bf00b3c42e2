package replay

import (
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/machine"
	"lvmm/internal/vmm"
)

// trapDenseKernel is a monitor-crossing-heavy guest: the virtual timer
// runs while the body loops over CLI/STI (privilege traps), emulated port
// I/O, virtual cycle-counter reads, reflected syscalls, and HLT naps —
// every fused-dispatch shape the one-crossing trap path handles.
const trapDenseKernel = `
        .org 0x1000
        _start:
            li   sp, 0x9000
            li   r1, 0x4000
            movrc vbar, r1
            la   r2, vec
            li   r3, 32
        vfill:
            sw   r2, 0(r1)
            addi r1, r1, 4
            addi r3, r3, -1
            bnez r3, vfill
            li   r1, 0x8000
            movrc ksp, r1
            li   r1, 0x21
            li   r2, 0xFFFE        ; unmask IRQ0 on the virtual PIC
            out  r1, r2
            li   r1, 0x41
            li   r2, 1500          ; virtual PIT divisor
            out  r1, r2
            li   r1, 0x40
            li   r2, 1             ; periodic mode
            out  r1, r2
            sti
        body:
            cli
            movcr r5, cyclo        ; mid-stream clock observation
            sti
            syscall
            li   r9, 0x41
            in   r6, r9            ; emulated virtual-PIT read
            addi r7, r7, 1
            li   r8, 800
            blt  r7, r8, body
            hlt                    ; nap once; the timer wakes it
            li   r1, 0xF1
            out  r1, r4
            li   r1, 0xF0
            out  r1, zero          ; DONE
        vec:
            movcr r12, cause
            add  r4, r4, r12
            li   r12, 0x20
            li   r11, 0x20
            out  r11, r12          ; EOI the virtual PIC
            iret
`

// TestFusedCrossEngineRecordReplay records a trap-dense run on the fused
// predecoded engine and verifies it replays bit-identically on the forced
// per-instruction slow path, and vice versa — interrupt timeline,
// cycle/instruction positions, and the end-state digest included. (The
// slow path is pinned with the CPU's explicit force-slow knob, which is
// timeline-neutral.)
func TestFusedCrossEngineRecordReplay(t *testing.T) {
	img, err := asm.Assemble(trapDenseKernel)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}

	build := func(slow bool) (*machine.Machine, *vmm.VMM) {
		m := machine.New(machine.Config{ResetPC: img.Entry})
		if err := m.LoadImage(img); err != nil {
			t.Fatal(err)
		}
		v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
		if err := v.Launch(img.Entry); err != nil {
			t.Fatal(err)
		}
		if slow {
			m.CPU.ForceSlowEngine(true)
		}
		return m, v
	}

	record := func(slow bool) []byte {
		m, v := build(slow)
		rec := startMem(t, m, v, nil, Options{SnapshotInterval: 20_000_000})
		if reason := m.Run(400_000_000); reason != machine.StopGuestDone {
			t.Fatalf("record (slow=%v): stop %v pc=%08x", slow, reason, m.CPU.PC)
		}
		return rec.finish(t)
	}
	rerun := func(data []byte, slow bool) {
		t.Helper()
		m, v := build(slow)
		if err := replayerFor(t, data, m, v, nil).RunToEnd(); err != nil {
			t.Fatalf("cross-engine replay (slow=%v) diverged: %v", slow, err)
		}
	}

	dataFused, dataSlow := record(false), record(true)
	trFused, trSlow := readBack(t, dataFused), readBack(t, dataSlow)
	if len(trFused.Events) == 0 {
		t.Fatal("no events recorded — the virtual timer never ticked")
	}
	if trFused.EndCycle != trSlow.EndCycle || trFused.EndInstr != trSlow.EndInstr ||
		trFused.EndDigest != trSlow.EndDigest || len(trFused.Events) != len(trSlow.Events) {
		t.Fatalf("engines recorded different timelines: fused (cycle=%d instr=%d digest=%#x events=%d), slow (cycle=%d instr=%d digest=%#x events=%d)",
			trFused.EndCycle, trFused.EndInstr, trFused.EndDigest, len(trFused.Events),
			trSlow.EndCycle, trSlow.EndInstr, trSlow.EndDigest, len(trSlow.Events))
	}
	rerun(dataFused, true) // fused-recorded trace under the slow engine
	rerun(dataSlow, false) // slow-recorded trace under the fused engine
}
