// Micro benchmarks for the few engine paths that no bench/ workload
// isolates. The end-to-end workloads in bench/ are the performance gate
// (an A/B against the base commit on one runner, .github/bench-ab.sh);
// these are go test -bench diagnostics, run once each in CI so they
// cannot bitrot:
//
//   - Interpreter: peak guest speed on a trap-free loop, where the
//     superblock tier runs alone, without devices or a monitor.
//   - InterpreterSlowPath: the same loop on the per-instruction engine
//     that single-stepping and observed pages fall back to; the ratio
//     to Interpreter is the predecoded tiers' speedup.
//   - TrapRoundTripBurst: the host cost of one fused guest→monitor→guest
//     crossing, without the device work that surrounds every trap in a
//     streaming run.
//   - BurstReentry: the preamble machine.Run pays to get back onto the
//     predecoded engine, weighted by 64-cycle run slices.
//   - ArmedObserver: an armed, never-hit breakpoint must leave the
//     streaming guest on the burst engine at unarmed speed.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem
package lvmm

import (
	"testing"

	"lvmm/internal/asm"
	"lvmm/internal/machine"
	"lvmm/internal/vmm"
)

// BenchmarkInterpreter measures raw simulated-CPU speed (host-side
// engineering metric, not a paper figure): instructions per second of a
// tight guest loop.
func BenchmarkInterpreter(b *testing.B) { benchTightLoop(b, false) }

// BenchmarkInterpreterSlowPath measures the same tight loop with the CPU's
// force-slow knob set — timeline-neutral, disqualifying predecoded bursts
// (cpu.BurstSafe) and forcing the per-instruction slow path. The ratio
// to BenchmarkInterpreter is the predecoded engine's speedup.
func BenchmarkInterpreterSlowPath(b *testing.B) { benchTightLoop(b, true) }

func benchTightLoop(b *testing.B, slow bool) {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
            li   r1, 0
            li   r2, 1000000
        loop:
            addi r1, r1, 1
            bne  r1, r2, loop
            hlt
    `)
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.Config{ResetPC: img.Entry})
		if err := m.LoadImage(img); err != nil {
			b.Fatal(err)
		}
		m.CPU.Reset(img.Entry)
		m.CPU.ForceSlowEngine(slow)
		m.Run(20_000_000)
		if m.CPU.Regs[1] != 1000000 {
			b.Fatalf("loop did not finish: r1=%d", m.CPU.Regs[1])
		}
		// Back to the RAM pool: a fresh 64 MB RAM is cleared on
		// allocation, which took most of each op and hid the loop.
		m.Release()
	}
	b.ReportMetric(float64(2000001*b.N)/b.Elapsed().Seconds(), "guest_instr/s")
}

// BenchmarkTrapRoundTripBurst measures one guest→monitor→guest crossing
// (CLI/STI emulation, the lightweight VMM's atomic unit) driven through
// machine.Run, where the fused one-crossing dispatch keeps the
// VMM-attached guest on the predecoded burst engine across
// monitor-handled traps. Each op is a fixed slice of virtual time;
// ns/trap is the host cost of one fused crossing.
func BenchmarkTrapRoundTripBurst(b *testing.B) {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
        loop:
            cli
            sti
            b loop
    `)
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		b.Fatal(err)
	}
	v := vmm.Attach(m, vmm.Config{Mode: vmm.Lightweight})
	if err := v.Launch(img.Entry); err != nil {
		b.Fatal(err)
	}
	// ~20 crossings per op at the lightweight world-switch prices.
	const sliceCycles = 200_000
	b.ResetTimer()
	start := v.Stats.Traps
	for i := 0; i < b.N; i++ {
		m.Run(m.Clock() + sliceCycles)
	}
	traps := v.Stats.Traps - start
	b.ReportMetric(float64(traps)/float64(b.N), "traps/op")
	if traps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(traps), "ns/trap")
	}
}

// BenchmarkBurstReentry measures the burst re-entry preamble: each op is
// one machine.Run call over a slice of virtual time short enough that the
// guest work inside it is negligible (the hot loop runs as one batched
// superblock), so ns/op tracks what it costs to get from the Run entry
// point back onto the predecoded engine — event-horizon computation,
// interrupt/halt checks, burst preamble, and the horizon exit.
func BenchmarkBurstReentry(b *testing.B) {
	img := asm.MustAssemble(`
        .org 0x1000
        _start:
        loop:
            addi r1, r1, 1
            b    loop
    `)
	m := machine.New(machine.Config{ResetPC: img.Entry})
	if err := m.LoadImage(img); err != nil {
		b.Fatal(err)
	}
	m.CPU.Reset(img.Entry)
	const sliceCycles = 64
	b.ResetTimer()
	startInstr := m.CPU.Stat.Instructions
	for i := 0; i < b.N; i++ {
		m.Run(m.Clock() + sliceCycles)
	}
	b.ReportMetric(float64(m.CPU.Stat.Instructions-startInstr)/float64(b.N), "instr/op")
	s := m.CPU.SBStats()
	b.ReportMetric(float64(s.Runs)/float64(b.N), "sb_runs/op")
}

// BenchmarkArmedObserver measures the page-granular arming guarantee on
// the Fig 3.1 workload: the "armed" variant runs the standard lightweight
// streaming guest with a hardware breakpoint planted on a page the kernel
// never executes. Before page-granular arming, any armed breakpoint forced
// the per-instruction interpreter and the armed variant ran several times
// slower; now both variants must stay on the predecoded burst engine and
// their ns/op must agree within the noise floor (≤10%).
func BenchmarkArmedObserver(b *testing.B) {
	run := func(b *testing.B, armed bool) {
		var burst uint64
		for i := 0; i < b.N; i++ {
			w := WorkloadDefaults(100)
			w.Seconds = 0.1
			target, err := NewStreamingTarget(Lightweight, w)
			if err != nil {
				b.Fatal(err)
			}
			if armed {
				// A page the streaming kernel never fetches from.
				if err := target.Machine().CPU.SetHWBreak(0, 0xE0000, true); err != nil {
					b.Fatal(err)
				}
			}
			stats, err := target.Run()
			if err != nil {
				b.Fatal(err)
			}
			if !stats.Clean {
				b.Fatal(stats.ValidateErr)
			}
			burst = target.Machine().CPU.BurstTicks()
			target.Release()
		}
		b.ReportMetric(float64(burst), "burst_ticks")
	}
	b.Run("unarmed", func(b *testing.B) { run(b, false) })
	b.Run("armed", func(b *testing.B) { run(b, true) })
}
