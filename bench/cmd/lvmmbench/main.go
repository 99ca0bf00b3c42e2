// Command lvmmbench runs the lvmm benchmark: five workloads, each in its
// own process, an untraced pass for the end-to-end metrics and a traced,
// CPU-profiled pass for the per-layer breakdown. See bench/README.md.
package main

import (
	"os"

	"lvmm/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
