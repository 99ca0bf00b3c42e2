package cpu

import (
	"testing"

	"lvmm/internal/isa"
)

// checkObserverDerived recomputes what the derived arming state ought to be
// straight from the slot arrays and compares it against what the CPU is
// actually holding. Every mutation path must leave the two in agreement.
func checkObserverDerived(t *testing.T, c *CPU, label string) {
	t.Helper()

	wantHW := false
	var wantPages []uint32
	for i, en := range c.hwBreakEn {
		if en {
			wantHW = true
			wantPages = append(wantPages, c.hwBreak[i]>>isa.PageShift)
		}
	}
	if c.hwBreakAny != wantHW {
		t.Errorf("%s: hwBreakAny = %v, want %v", label, c.hwBreakAny, wantHW)
	}
	if c.execPageN != len(wantPages) {
		t.Errorf("%s: execPageN = %d, want %d", label, c.execPageN, len(wantPages))
	} else {
		for i, vpn := range wantPages {
			if c.execPages[i] != vpn {
				t.Errorf("%s: execPages[%d] = %#x, want %#x", label, i, c.execPages[i], vpn)
			}
		}
	}
	for _, vpn := range wantPages {
		if !c.execPageArmed(vpn) {
			t.Errorf("%s: execPageArmed(%#x) = false for an armed page", label, vpn)
		}
	}

	wantWatch := false
	for _, en := range c.watchEn {
		wantWatch = wantWatch || en
	}
	wantSpy := false
	for _, en := range c.spyEn {
		wantSpy = wantSpy || en
	}
	if c.watchAny != wantWatch {
		t.Errorf("%s: watchAny = %v, want %v", label, c.watchAny, wantWatch)
	}
	if c.spyAny != wantSpy {
		t.Errorf("%s: spyAny = %v, want %v", label, c.spyAny, wantSpy)
	}

	// The write envelope must be a superset of every store the per-slot
	// intersection checks could hit: probe each enabled range's first and
	// last byte with 1- and 4-byte stores.
	probe := func(addr, length uint32, kind string) {
		if length == 0 {
			length = 1
		}
		for _, va := range []uint32{addr, addr + length - 1} {
			if !c.storeObserved(va, 1) {
				t.Errorf("%s: storeObserved(%#x,1) = false inside %s range [%#x,+%d)",
					label, va, kind, addr, length)
			}
		}
		if addr >= 3 && !c.storeObserved(addr-3, 4) {
			t.Errorf("%s: storeObserved(%#x,4) = false spanning %s range start %#x",
				label, addr-3, kind, addr)
		}
	}
	for i, en := range c.watchEn {
		if en {
			probe(c.watchAddr[i], c.watchLen[i], "watch")
		}
	}
	for i, en := range c.spyEn {
		if en {
			probe(c.spyAddr[i], c.spyLen[i], "spy")
		}
	}
	if !wantWatch && !wantSpy {
		for _, va := range []uint32{0, 0x1000, 0x7FFFFFFC, 0xFFFFFFFC} {
			if c.storeObserved(va, 4) {
				t.Errorf("%s: storeObserved(%#x,4) = true with nothing armed", label, va)
			}
		}
	}
}

// TestRecalcObserversEntryPoints drives every observer mutation path —
// SetHWBreak, SetWatchpoint, SetSpyWatch, ClearSpyWatches, Snapshot/Restore,
// Reset — and checks the derived arming state stays consistent with the
// slots after each one.
func TestRecalcObserversEntryPoints(t *testing.T) {
	c, _ := buildCPU(t, `
        .org 0x1000
        _start:
            hlt
    `)

	steps := []struct {
		label string
		apply func()
	}{
		{"fresh", func() {}},
		{"arm hwbreak 0", func() { must(t, c.SetHWBreak(0, 0x2004, true)) }},
		{"arm hwbreak 3 other page", func() { must(t, c.SetHWBreak(3, 0x9ABC0, true)) }},
		{"arm watch 1", func() { must(t, c.SetWatchpoint(1, 0x3000, 16, true)) }},
		{"arm watch 2 zero len", func() { must(t, c.SetWatchpoint(2, 0x5008, 0, true)) }},
		{"arm spy 0", func() { must(t, c.SetSpyWatch(0, 0x8000, 256, true)) }},
		{"disarm hwbreak 0", func() { must(t, c.SetHWBreak(0, 0x2004, false)) }},
		{"disarm watch 1", func() { must(t, c.SetWatchpoint(1, 0, 0, false)) }},
		{"clear spies", c.ClearSpyWatches},
		{"rearm spy 2", func() { must(t, c.SetSpyWatch(2, 0xFFF0, 64, true)) }},
		{"roundtrip restore", func() { c.Restore(c.Snapshot()) }},
		{"reset", func() { c.Reset(0x1000) }},
	}
	for _, s := range steps {
		s.apply()
		checkObserverDerived(t, c, s.label)
	}
}

// TestRestoreRebuildsArming checks that restoring a snapshot taken with
// observers armed rebuilds the derived state on a CPU whose own slots were
// different, and vice versa.
func TestRestoreRebuildsArming(t *testing.T) {
	c, _ := buildCPU(t, `
        .org 0x1000
        _start:
            hlt
    `)
	must(t, c.SetHWBreak(1, 0x4000, true))
	must(t, c.SetWatchpoint(0, 0x6000, 8, true))
	armed := c.Snapshot()

	must(t, c.SetHWBreak(1, 0, false))
	must(t, c.SetWatchpoint(0, 0, 0, false))
	clean := c.Snapshot()

	c.Restore(armed)
	checkObserverDerived(t, c, "restore armed")
	if !c.hwBreakAny || !c.watchAny {
		t.Fatal("restore did not re-arm observers recorded in the snapshot")
	}
	c.Restore(clean)
	checkObserverDerived(t, c, "restore clean")
	if c.hwBreakAny || c.watchAny {
		t.Fatal("restore kept observers the snapshot had disarmed")
	}
}

// TestOneShotDisarmRecalc checks that a hardware breakpoint firing — via
// Step, a one-tick BurstRun checked against Step, or inside a longer
// BurstRun — leaves the derived arming state consistent with the
// now-disarmed slot.
func TestOneShotDisarmRecalc(t *testing.T) {
	const src = `
        .org 0x1000
        _start:
            addi r1, r1, 1
            addi r1, r1, 1
            hlt
    `
	fire := map[string]func(c *CPU){
		"Step": func(c *CPU) {
			if res := c.Step(); res.Trapped != isa.CauseBRK {
				t.Fatalf("Step: trapped %d, want BRK", res.Trapped)
			}
		},
		"BurstRun one tick": func(c *CPU) {
			ref, _ := buildCPU(t, src)
			must(t, ref.SetHWBreak(2, 0x1000, true))
			if res := burstStep(t, ref, c); res.Trapped != isa.CauseBRK {
				t.Fatalf("BurstRun one tick: trapped %d, want BRK", res.Trapped)
			}
		},
		"BurstRun": func(c *CPU) {
			var clk uint64
			_, brk := c.BurstRun(&clk, 1_000_000, 1_000_000, nil)
			if brk != BurstTrap {
				t.Fatalf("BurstRun: break %d, want BurstTrap", brk)
			}
		},
	}
	for name, f := range fire {
		c, _ := buildCPU(t, src)
		must(t, c.SetHWBreak(2, 0x1000, true))
		f(c)
		if c.hwBreakEn[2] {
			t.Fatalf("%s: slot still enabled after one-shot fire", name)
		}
		checkObserverDerived(t, c, name+" one-shot")
	}
}

// TestWriteEnvelopeWraparound pins the conservative envelope behaviour for
// a watch range whose uint32 end wraps: the per-slot compare wraps with it,
// so stores near zero can hit and the fast path must not skip them.
func TestWriteEnvelopeWraparound(t *testing.T) {
	c, _ := buildCPU(t, `
        .org 0x1000
        _start:
            hlt
    `)
	must(t, c.SetWatchpoint(0, 0xFFFFFFF0, 0x40, true)) // end wraps to 0x30
	if !c.storeObserved(0x10, 4) {
		t.Error("store at 0x10 must stay observed under a wrapped watch range")
	}
	if !c.storeObserved(0xFFFFFFF8, 4) {
		t.Error("store at the range start must be observed")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
