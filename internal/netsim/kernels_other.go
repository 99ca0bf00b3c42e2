//go:build !amd64

package netsim

// Off amd64 there are no block kernels: useAVX2 stays false and the Go
// word loops take every byte. The stubs below keep the callers building.
var useAVX2 = false

// FillPatternBlocks is the amd64 AVX2 fill kernel; it is never called
// here.
func FillPatternBlocks(buf []byte, x uint64) { panic("netsim: no AVX2 kernels on this GOARCH") }

func checkPatternSumBlocks(buf []byte, x uint64) (n int, acc uint64) {
	panic("netsim: no AVX2 kernels on this GOARCH")
}

func sumBlocks(buf []byte) uint64 { panic("netsim: no AVX2 kernels on this GOARCH") }
