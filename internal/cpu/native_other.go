//go:build !amd64

package cpu

// Off amd64 there is no native block tier: natCompile compiles nothing,
// so no superblock ever has native code and sbRun interprets every block.

// codeArena has no code memory here.
type codeArena struct{}

func nativeCall(code uintptr, c *CPU) (exit uint32, iters uint64) {
	panic("cpu: no native block tier on this GOARCH")
}

func (c *CPU) natCompile(b *superblock) bool {
	c.nat.off = true
	return false
}

// ReleaseNative has no code memory to release here.
func (c *CPU) ReleaseNative() {}
