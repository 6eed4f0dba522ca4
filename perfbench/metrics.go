package main

// metricDef is one reported metric. For a per-layer metric, moves names the
// end-to-end metrics it should move and on which workload: the claim a
// change to that layer would make.
type metricDef struct {
	name, unit, better string
	layer, moves       string
}

// endToEnd are reported by the untraced run (--trace 0), on every workload.
// On sim-faults an "op" is one simulated reference and a read or write is a
// Touch or Write call. Latency is a mean and a p99, not a median: server
// batching makes the closed-loop latency distribution multi-modal, and its
// median jumped between modes from run to run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "op/s", better: "higher"},
	{name: "read_mean_us", unit: "us", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "write_mean_us", unit: "us", better: "lower"},
	{name: "write_p99_us", unit: "us", better: "lower"},
	{name: "rss_peak_mb", unit: "MiB", better: "lower"},
}

// perLayer are reported by the traced run (--trace 1), on every workload; a
// metric of a layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"wire.req_bytes_per_op", "B/op", "lower", "internal/wire", "ops_per_s on net-hot"},
	{"wire.resp_bytes_per_op", "B/op", "lower", "internal/wire", "ops_per_s on net-hot"},
	{"server.replies_per_write", "count", "higher", "internal/server batching", "ops_per_s, read_mean_us on net-hot"},
	{"server.conn_reads_per_op", "1/op", "lower", "internal/server batching", "ops_per_s, read_mean_us on net-hot"},
	{"server.conn_writes_per_op", "1/op", "lower", "internal/server batching", "ops_per_s, read_mean_us on net-hot"},
	{"server.residence_us_p50", "us", "lower", "internal/server", "read_p99_us on net-hot and net-thrash"},
	{"server.residence_us_p99", "us", "lower", "internal/server", "read_p99_us on net-hot and net-thrash"},
	{"server.residual_us_per_op", "us/op", "lower", "internal/core, vm, disk (kernel self time, server queueing, encoding)", "ops_per_s, read_mean_us on net-thrash; none on net-hot"},
	{"client.rtt_us_mean", "us", "lower", "internal/server client", "read_mean_us, write_mean_us on net-hot and net-thrash"},
	{"client.transport_us_per_op", "us/op", "lower", "internal/server client and loopback", "read_mean_us on net-hot"},
	{"core.loop_wait_us_p50", "us", "lower", "internal/core Loop", "read_p99_us, write_p99_us on net-thrash"},
	{"core.loop_wait_us_p99", "us", "lower", "internal/core Loop", "read_p99_us, write_p99_us on net-thrash"},
	{"store.reads_per_op", "1/op", "lower", "internal/store, disk/filestore", "ops_per_s on net-thrash; 0 on net-hot"},
	{"store.writes_per_op", "1/op", "lower", "internal/store, disk/filestore", "ops_per_s, write_p99_us on net-thrash; 0 on net-hot"},
	{"store.us_per_op", "us/op", "lower", "internal/store, disk/filestore", "ops_per_s on net-thrash; 0 on net-hot"},
	{"store.read_us_p50", "us", "lower", "internal/store, disk/filestore", "ops_per_s on net-thrash"},
	{"store.read_us_p99", "us", "lower", "internal/store, disk/filestore", "read_p99_us on net-thrash"},
	{"store.write_us_p50", "us", "lower", "internal/store, disk/filestore", "ops_per_s on net-thrash"},
	{"store.write_us_p99", "us", "lower", "internal/store, disk/filestore", "write_p99_us on net-thrash"},
	{"store.busy_frac", "ratio", "lower", "internal/store, disk/filestore", "ops_per_s, write_p99_us on net-thrash; 0 on net-hot"},
	{"vm.hit_ratio", "ratio", "higher", "internal/vm, pageout, core executor", "ops_per_s on net-thrash and sim-faults"},
	{"vm.faults_per_op", "1/op", "lower", "internal/vm, pageout, core executor", "ops_per_s on net-thrash and sim-faults"},
	{"vm.pageins_per_op", "1/op", "lower", "internal/vm, pageout, core executor", "ops_per_s on net-thrash"},
	{"vm.pageouts_per_op", "1/op", "lower", "internal/vm, pageout, core executor", "ops_per_s on net-thrash"},
	{"vm.evictions_per_op", "1/op", "lower", "internal/vm, pageout, core executor", "ops_per_s on net-thrash"},
	{"vm.hit_ns", "ns", "lower", "internal/vm (sim)", "ops_per_s, read_mean_us on sim-faults"},
	{"vm.fault_ns", "ns", "lower", "internal/vm, core executor, pageout, simtime (sim)", "ops_per_s, read_p99_us on sim-faults"},
	{"vm.pageouts_per_fault", "1/fault", "lower", "internal/pageout (sim)", "ops_per_s on sim-faults"},
	{"core.commands_per_fault", "1/fault", "lower", "internal/core executor (sim)", "ops_per_s on sim-faults"},
	{"hpl.translate_us", "us", "lower", "internal/hpl", "setup_s on net-hot and net-thrash"},
	{"runtime.allocs_per_op", "1/op", "lower", "process", "read_p99_us, write_p99_us, rss_peak_mb on all"},
	{"runtime.gc_cycles_per_kop", "1/kop", "lower", "process", "read_p99_us, write_p99_us, rss_peak_mb on all"},
	{"trace.overhead_frac", "ratio", "lower", "benchmark", "none: the traced run's own cost"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
