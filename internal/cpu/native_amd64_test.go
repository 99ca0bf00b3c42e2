//go:build amd64

package cpu

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"lvmm/internal/bus"
	"lvmm/internal/isa"
)

// TestNativeOffsets pins the field offsets the emitter compiles into
// native code against reflect's view of the same structs, and the layout
// facts it relies on besides: TLB entry flags as single bytes, a slice's
// length one word past its pointer.
func TestNativeOffsets(t *testing.T) {
	field := func(typ reflect.Type, path ...string) uintptr {
		var off uintptr
		for _, name := range path {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("%v has no field %s", typ, name)
			}
			off += f.Offset
			typ = f.Type
		}
		return off
	}
	cpuT := reflect.TypeOf(CPU{})
	for _, tc := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"Regs", offRegs, field(cpuT, "Regs")},
		{"PC", offPC, field(cpuT, "PC")},
		{"ram", offRAM, field(cpuT, "ram")},
		{"tlb", offTLB, field(cpuT, "tlb")},
		{"tlbGen", offTLBGen, field(cpuT, "tlbGen")},
		{"writeArmLo", offArmLo, field(cpuT, "writeArmLo")},
		{"writeArmHi", offArmHi, field(cpuT, "writeArmHi")},
		{"writeCov", offWriteCov, field(cpuT, "writeCov")},
		{"dirtyPages", offDirty, field(cpuT, "dirtyPages")},
		{"dcPages", offDCPages, field(cpuT, "dcPages")},
		{"sbPages", offSBPages, field(cpuT, "sbPages")},
		{"nat.va", offNatVA, field(cpuT, "nat", "va")},
		{"nat.user", offNatUser, field(cpuT, "nat", "user")},
		{"nat.paging", offNatPage, field(cpuT, "nat", "paging")},
		{"nat.loopCap", offNatCap, field(cpuT, "nat", "loopCap")},
		{"TLBEntry.VPN", offTLBVPN, 4},
		{"TLBEntry.PFN", offTLBPFN, 8},
		{"TLBEntry.W", offTLBW, 12},
		{"TLBEntry.U", offTLBU, 13},
		{"TLBEntry.D", offTLBD, 14},
		{"sbPage.lo", offSPLo, field(reflect.TypeOf(sbPage{}), "lo")},
		{"sbPage.hi", offSPHi, field(reflect.TypeOf(sbPage{}), "hi")},
		{"decPage.ins", offDPIns, field(reflect.TypeOf(decPage{}), "ins")},
		{"decoded.fn", field(reflect.TypeOf(decoded{}), "fn"), 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: emitter offset %d, struct offset %d", tc.name, tc.got, tc.want)
		}
	}
	if s := reflect.TypeOf(decoded{}.fn).Size(); s != 1 {
		t.Errorf("decoded.fn is %d bytes", s)
	}
	c := New(bus.New(1<<16), 0)
	if hdr := (*[2]uintptr)(unsafe.Pointer(&c.ram)); hdr[1] != uintptr(len(c.ram)) {
		t.Errorf("a slice's length is not one word past its pointer")
	}
}

// TestNativeCodeNeverWX compiles blocks into a machine's arena and reads
// the process's mappings: every page of the arena is read-execute or
// inaccessible, never writable and executable at once, and ReleaseNative
// unmaps it.
func TestNativeCodeNeverWX(t *testing.T) {
	defer SetNativeThreshold(SetNativeThreshold(1))
	c := New(bus.New(1<<20), 0x1000)
	prog := []uint32{
		isa.EncodeI(isa.OpADDI, 1, 1, 1),
		isa.EncodeI(isa.OpSW, 1, 0, 0x8000),
		isa.EncodeI(isa.OpBNE, 1, 2, -3),
		isa.EncodeR(isa.OpHLT, 0, 0, 0),
	}
	for i, w := range prog {
		c.Bus().Write32(0x1000+uint32(i)*4, w)
	}
	c.Regs[2] = 100
	var clk uint64
	for !c.Halted() {
		c.BurstRun(&clk, 1<<62, 1<<20, nil)
		if c.Halted() {
			break
		}
		c.Step()
	}
	if c.Regs[1] != 100 || c.SBStats().NativeBlocks == 0 {
		t.Fatalf("r1 = %d, counters %v", c.Regs[1], c.SBStats())
	}
	lo := uintptrOf(c.nat.arena.mem)
	hi := lo + uintptr(len(c.nat.arena.mem))
	perms := mappings(t, lo, hi)
	if len(perms) == 0 {
		t.Fatal("arena not found in /proc/self/maps")
	}
	sawExec := false
	for _, p := range perms {
		if p[1] == 'w' && p[2] == 'x' {
			t.Fatalf("arena mapped %s", p)
		}
		sawExec = sawExec || p[2] == 'x'
	}
	if !sawExec {
		t.Fatalf("no executable arena page: %v", perms)
	}
	c.ReleaseNative()
	if perms := mappings(t, lo, hi); len(perms) != 0 {
		t.Fatalf("arena still mapped after ReleaseNative: %v", perms)
	}
}

func uintptrOf(b []byte) uintptr { return reflect.ValueOf(b).Pointer() }

// mappings returns the permissions of every mapping overlapping [lo, hi).
func mappings(t *testing.T, lo, hi uintptr) []string {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var a, b uintptr
		var perm string
		if _, err := fmt.Sscanf(strings.Replace(sc.Text(), "-", " ", 1), "%x %x %s", &a, &b, &perm); err != nil {
			continue
		}
		if a < hi && b > lo {
			out = append(out, perm)
		}
	}
	return out
}
