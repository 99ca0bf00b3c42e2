// Command lvmm-target boots the streaming guest on a chosen platform and
// exposes the monitor's debug channel on a TCP port, playing the "target
// machine" role of the paper's Figure 2.1. Connect with cmd/hxdbg.
//
// Usage:
//
//	lvmm-target [-platform lightweight|hosted] [-rate 150] [-seconds 30] [-listen :4444]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"lvmm"
)

func main() {
	platform := flag.String("platform", "lightweight", "lightweight or hosted")
	rate := flag.Float64("rate", 150, "offered transfer rate in Mb/s")
	seconds := flag.Float64("seconds", 30, "virtual run length")
	listen := flag.String("listen", "127.0.0.1:4444", "debug channel listen address")
	flag.Parse()

	pf, err := lvmm.ParsePlatform(*platform)
	if err == nil && pf == lvmm.BareMetal {
		err = fmt.Errorf("platform must be lightweight or hosted (bare metal has no monitor stub)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvmm-target:", err)
		os.Exit(2)
	}

	w := lvmm.WorkloadDefaults(*rate)
	w.Seconds = *seconds
	t, err := lvmm.NewStreamingTarget(pf, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvmm-target:", err)
		os.Exit(1)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvmm-target:", err)
		os.Exit(1)
	}
	fmt.Printf("target up: %v, %s, %.0f Mb/s for %.0fs virtual\n", pf, *platform, *rate, *seconds)
	fmt.Printf("debug channel: %s (connect with hxdbg -connect %s)\n", l.Addr(), l.Addr())

	m := t.Machine()
	// Keep the target responsive (not CPU-spinning) while a debugger
	// holds the guest frozen.
	m.IdleSleep = 200 * time.Microsecond
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			fmt.Println("debugger connected:", conn.RemoteAddr())
			m.Dbg.SetTX(func(b byte) { _, _ = conn.Write([]byte{b}) })
			go func(c net.Conn) {
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if err != nil {
						fmt.Println("debugger disconnected")
						return
					}
					m.Dbg.InjectRX(buf[:n])
				}
			}(conn)
		}
	}()

	stats, err := t.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvmm-target:", err)
		os.Exit(1)
	}
	fmt.Println(stats)
	if t.Monitor() != nil {
		fmt.Print(t.Monitor().String())
	}
}
