package bench

import "sort"

// MetricDef names one metric with its unit and direction; Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics a user of the simulator sees, measured with
// tracing off and reported on every workload.
//
// The timings are best-of estimates. Each workload repeats the same
// runs (a streaming run, each op of the time-travel script, each
// scenario of the sweep); each distinct run's fastest repeat is its
// cost. On a shared host, neighbours slow this memory-heavy simulator by
// up to 2x in phases lasting seconds to minutes, which spread the median
// op time of identical passes by 6-20% and their p90 by up to 30%,
// against 5-9% for the fastest repeat. The raw median and p90 stay in the
// traced pass as host.* metrics. See README.md for the measured spreads
// behind the 25% bounds.
var EndToEnd = []MetricDef{
	{Name: "sim_speed", Unit: "vs/s", Better: "higher", Bound: 0.25},
	{Name: "run_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "run_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_vs", Unit: "s/vs", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Metric is one measured value with its unit and sample count.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// fastest keeps, for each ID, the sample that cost the least.
func fastest[T any](xs []T, key func(T) (id int, cost float64)) map[int]T {
	best := map[int]T{}
	for _, x := range xs {
		id, c := key(x)
		if b, ok := best[id]; ok {
			if _, bc := key(b); bc <= c {
				continue
			}
		}
		best[id] = x
	}
	return best
}

func runWall(r run) (int, float64) { return r.ID, r.Ms }

// runCost is the mean best-of run time and the simulated seconds per
// host second over the distinct runs.
func runCost(runs []run) (runMs, simSpeed float64) {
	best := fastest(runs, runWall)
	var msSum, vs float64
	for _, r := range best {
		msSum += r.Ms
		vs += r.VS
	}
	return ratio(msSum, float64(len(best))), ratio(vs, msSum/1e3)
}

// tailMs is the highest percentile of the distinct runs' best times that
// has at least ten runs beyond it (p90 of the 100 time-travel ops, p74
// of the 39 sweep scenarios); with ten or fewer distinct runs, the
// slowest.
func tailMs(runs []run) float64 {
	var ms []float64
	for _, r := range fastest(runs, runWall) {
		ms = append(ms, r.Ms)
	}
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	i := len(ms) - 11
	if i < 0 {
		i = len(ms) - 1
	}
	return ms[i]
}

// cpuPerVS is the process CPU time per virtual second over one cycle of
// the workload's ops, each at its cheapest repeat. Each op's CPU time
// includes whatever the process's other threads (GC workers, recorder
// encoders, the second fleet job) did meanwhile.
func cpuPerVS(ops []opSample) float64 {
	var cpu, vs float64
	for _, o := range fastest(ops, func(o opSample) (int, float64) { return o.ID, o.CPU }) {
		cpu += o.CPU
		vs += o.VS
	}
	return ratio(cpu, vs)
}

func totalVS(runs []run) float64 {
	vs := 0.0
	for _, r := range runs {
		vs += r.VS
	}
	return vs
}

// metricSet collects metrics by name, taking each one's unit from its
// definition.
func metricSet(defs []MetricDef) (map[string]Metric, func(name string, v float64, n int)) {
	out := map[string]Metric{}
	return out, func(name string, v float64, n int) {
		for _, d := range defs {
			if d.Name == name {
				out[name] = Metric{Value: v, Unit: d.Unit, N: n}
				return
			}
		}
		panic("bench: undefined metric " + name)
	}
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(r *childReport) map[string]Metric {
	out, put := metricSet(EndToEnd)
	runMs, speed := runCost(r.Runs)
	n := len(r.Runs)
	put("sim_speed", speed, n)
	put("run_ms", runMs, n)
	put("run_ms_tail", tailMs(r.Runs), n)
	put("cpu_s_per_vs", cpuPerVS(r.Ops), len(r.Ops))
	put("setup_s", median(r.SetupS), len(r.SetupS))
	return out
}

// PerLayer are the per-layer metrics of the traced pass, reported on
// every workload (zero where a workload does not reach the layer). Per
// op values divide by the pass's timed ops.
var PerLayer = perLayerDefs()

// layerExtras are each layer's own counters and ratios.
var layerExtras = map[string][]MetricDef{
	"cpu": {
		{Name: "cpu.instr", Unit: "count/op", Better: "lower"},
		{Name: "cpu.ns_per_instr", Unit: "ns/instr", Better: "lower"},
		{Name: "cpu.burst_ticks", Unit: "count/op", Better: "higher"},
		{Name: "cpu.sb_runs", Unit: "count/op", Better: "higher"},
		{Name: "cpu.sb_chain_hit_pct", Unit: "%", Better: "higher"},
		{Name: "cpu.sb_severed", Unit: "count/op", Better: "lower"},
		{Name: "cpu.tlb_misses", Unit: "count/op", Better: "lower"},
	},
	"vmm": {
		{Name: "vmm.traps", Unit: "count/op", Better: "lower"},
		{Name: "vmm.ns_per_trap", Unit: "ns/trap", Better: "lower"},
		{Name: "vmm.injections", Unit: "count/op", Better: "lower"},
		{Name: "vmm.irq_intercepts", Unit: "count/op", Better: "lower"},
		{Name: "vmm.io_emulated", Unit: "count/op", Better: "lower"},
		{Name: "vmm.monitor_pct", Unit: "%", Better: "lower"},
	},
	"hw": {
		{Name: "hw.port_ops", Unit: "count/op", Better: "lower"},
		{Name: "hw.irqs", Unit: "count/op", Better: "lower"},
	},
	"netsim.fill": {
		{Name: "netsim.fill.ns_per_kb", Unit: "ns/kB", Better: "lower"},
	},
	"netsim.recv": {
		{Name: "netsim.recv.frames", Unit: "count/op", Better: "higher"},
		{Name: "netsim.recv.payload_mb", Unit: "MB/op", Better: "higher"},
		{Name: "netsim.recv.ns_per_kb", Unit: "ns/kB", Better: "lower"},
	},
	"machine": {
		{Name: "machine.vcycles", Unit: "cycles/op", Better: "lower"},
		{Name: "machine.idle_pct", Unit: "%", Better: "higher"},
		{Name: "machine.cpu_load_pct", Unit: "%", Better: "lower"},
	},
	"machine.snap": {
		{Name: "machine.snap.restores", Unit: "count/op", Better: "lower"},
		{Name: "machine.snap.ms_per_restore", Unit: "ms/restore", Better: "lower"},
	},
	"replay.rec": {
		{Name: "replay.rec.events", Unit: "count/op", Better: "lower"},
		{Name: "replay.rec.segments", Unit: "count/op", Better: "lower"},
		{Name: "replay.rec.keyframes", Unit: "count/op", Better: "lower"},
		{Name: "replay.rec.deltas", Unit: "count/op", Better: "lower"},
		{Name: "replay.rec.max_pending_ev", Unit: "count", Better: "lower"},
		{Name: "replay.rec.finish_ms", Unit: "ms", Better: "lower"},
		{Name: "replay.rec.ns_per_byte", Unit: "ns/B", Better: "lower"},
		{Name: "replay.rec.mb_per_vs", Unit: "MB/vs", Better: "lower"},
	},
	"replay.seg": {
		{Name: "replay.seg.faults", Unit: "count/op", Better: "lower"},
		{Name: "replay.seg.ms_per_fault", Unit: "ms/fault", Better: "lower"},
		{Name: "replay.seg.max_resident_mb", Unit: "MB", Better: "lower"},
		{Name: "replay.seg.open_ms", Unit: "ms", Better: "lower"},
	},
	"replay.replay": {
		{Name: "replay.replay.fwd_minstr", Unit: "Minstr/op", Better: "lower"},
	},
	"fleet": {
		{Name: "fleet.util_pct", Unit: "%", Better: "higher"},
		{Name: "fleet.runone_ms_p50", Unit: "ms", Better: "lower"},
	},
	"runtime": {
		{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
		{Name: "runtime.alloc_mb", Unit: "MB/op", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count/op", Better: "lower"},
	},
}

// spanNames are the benchmark's own spans around the public calls it
// makes, reported as span.<name>_ms medians. The host.* metrics are the
// untraced pass's raw op-time median and p90 and its peak resident set:
// reported, but not bounded, because host interference (and, for the
// resident set, which P the RAM pool's slice was parked on) moves them
// more than any bound a change could be held to.
var spanNames = []string{"setup", "run", "finish", "release", "op"}

func perLayerDefs() []MetricDef {
	var defs []MetricDef
	for _, l := range Layers {
		defs = append(defs,
			MetricDef{Name: l + ".cpu_ms", Unit: "ms/op", Better: "lower"},
			MetricDef{Name: l + ".share_pct", Unit: "%", Better: "lower"})
		defs = append(defs, layerExtras[l]...)
	}
	for _, s := range spanNames {
		defs = append(defs, MetricDef{Name: "span." + s + "_ms", Unit: "ms", Better: "lower"})
	}
	return append(defs,
		MetricDef{Name: "host.op_ms_p50", Unit: "ms", Better: "lower"},
		MetricDef{Name: "host.op_ms_p90", Unit: "ms", Better: "lower"},
		MetricDef{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
		MetricDef{Name: "tracing.overhead_pct", Unit: "%", Better: "lower"},
		MetricDef{Name: "profile.sampled_pct", Unit: "%", Better: "higher"})
}

// perLayer computes the per-layer metrics of a traced pass from its
// report, its attributed CPU profile, and the untraced pass (with that
// child's peak resident set in KiB) it is compared with.
func perLayer(tr, untraced *childReport, untracedRSSKiB int64, layer map[string]float64) map[string]Metric {
	n := len(tr.Ops)
	ops := float64(max(n, 1))
	c := tr.Counts
	total := 0.0
	for _, v := range layer {
		total += v
	}
	out, put := metricSet(PerLayer)
	for _, l := range Layers {
		put(l+".cpu_ms", layer[l]/ops, n)
		put(l+".share_pct", 100*ratio(layer[l], total), n)
	}
	for _, k := range []string{"cpu.instr", "cpu.burst_ticks", "cpu.sb_runs", "cpu.sb_severed", "cpu.tlb_misses",
		"vmm.traps", "vmm.injections", "vmm.irq_intercepts", "vmm.io_emulated", "hw.port_ops", "hw.irqs",
		"netsim.recv.frames", "machine.vcycles", "machine.snap.restores", "replay.rec.events",
		"replay.rec.segments", "replay.rec.keyframes", "replay.rec.deltas", "replay.seg.faults"} {
		put(k, c[k]/ops, n)
	}
	const mb = 1e6
	put("cpu.ns_per_instr", 1e6*ratio(layer["cpu"], c["cpu.instr"]), n)
	put("cpu.sb_chain_hit_pct", 100*ratio(c["cpu.sb_chain_hits"], c["cpu.sb_chain_hits"]+c["cpu.sb_chain_misses"]), n)
	put("vmm.ns_per_trap", 1e6*ratio(layer["vmm"], c["vmm.traps"]), n)
	put("vmm.monitor_pct", 100*ratio(c["vmm.monitor_cycles"], c["machine.busy_cycles"]), n)
	put("netsim.fill.ns_per_kb", 1e6*ratio(layer["netsim.fill"], c["netsim.fill.bytes"]/1e3), n)
	put("netsim.recv.payload_mb", c["netsim.recv.payload_b"]/mb/ops, n)
	put("netsim.recv.ns_per_kb", 1e6*ratio(layer["netsim.recv"], c["netsim.recv.payload_b"]/1e3), n)
	put("machine.idle_pct", 100*ratio(c["machine.idle_cycles"], c["machine.vcycles"]), n)
	put("machine.cpu_load_pct", 100*ratio(c["machine.busy_cycles"], c["machine.vcycles"]), n)
	put("machine.snap.ms_per_restore", ratio(layer["machine.snap"], c["machine.snap.restores"]), n)
	put("replay.rec.max_pending_ev", c["replay.rec.max_pending_ev"], n)
	put("replay.rec.finish_ms", c["replay.rec.finish_ms"]/ops, n)
	put("replay.rec.ns_per_byte", 1e6*ratio(layer["replay.rec"], c["replay.rec.bytes"]), n)
	put("replay.rec.mb_per_vs", ratio(c["replay.rec.bytes"]/mb, totalVS(tr.Runs)), n)
	put("replay.seg.ms_per_fault", ratio(layer["replay.seg"], c["replay.seg.faults"]), n)
	put("replay.seg.max_resident_mb", c["replay.seg.max_resident_mb"], n)
	open := tr.Spans["open"]
	put("replay.seg.open_ms", median(open), len(open))
	put("replay.replay.fwd_minstr", c["replay.replay.fwd_inst"]/1e6/ops, n)
	put("fleet.util_pct", 100*ratio(c["fleet.busy_ms"], sweepJobs*c["fleet.wall_ms"]), n)
	var runone []float64
	if c["fleet.wall_ms"] > 0 {
		for _, r := range tr.Runs {
			runone = append(runone, r.Ms)
		}
	}
	put("fleet.runone_ms_p50", median(runone), len(runone))
	rt := tr.Runtime
	put("runtime.gc_cpu_pct", 100*ratio(rt.GCCPUSec, rt.CPUSec), n)
	put("runtime.alloc_mb", rt.AllocBytes/mb/ops, n)
	put("runtime.gc_cycles", rt.GCCycles/ops, n)
	for _, s := range spanNames {
		d := tr.Spans[s]
		put("span."+s+"_ms", median(d), len(d))
	}
	var opMs []float64
	for _, o := range untraced.Ops {
		opMs = append(opMs, o.Ms)
	}
	put("host.op_ms_p50", median(opMs), len(opMs))
	put("host.op_ms_p90", nearestRank(opMs, 90), len(opMs))
	put("host.peak_rss_mb", float64(untracedRSSKiB)*1024/1e6, 1)
	tracedMs, _ := runCost(tr.Runs)
	untracedMs, _ := runCost(untraced.Runs)
	put("tracing.overhead_pct", 100*(ratio(tracedMs, untracedMs)-1), n)
	put("profile.sampled_pct", 100*ratio(total/1e3, tr.CPUSec), n)
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
