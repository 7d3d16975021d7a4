package main

// metricDecl declares one reported metric. BENCHMARK.json at the repository
// root declares the same catalogue; TestCatalogueMatchesBenchmarkJSON keeps
// the two in step.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// workloadNames lists the workloads in the order they are documented and
// compared.
var workloadNames = []string{"campaign", "sweep", "snapshot", "replay"}

// endToEnd is what a user of the campaign pipeline sees, reported by every
// untraced run.
var endToEnd = []metricDecl{
	{"iter_s", "s", "lower", 0.25},          // median wall time of one workload iteration
	{"traces_per_s", "1/s", "higher", 0.25}, // median traces measured (replay: analyzed) per wall second of an iteration
	{"peak_rss_mb", "MB", "lower", 0.20},    // peak resident set size of the process (getrusage at exit)
	{"setup_s", "s", "lower", 0.25},         // median of three set-ups: warm-up, correctness checks and shard measurement
}

// perLayer is the stage ledger, reported by traced runs. Each metric is a
// median over the traced rounds of one run.
var perLayer = []metricDecl{
	{"asgen.build_ms", "ms", "lower", 0},                            // asgen.Build summed over ASes (duplicate call)
	{"anaximander.plan_ms", "ms", "lower", 0},                       // CollectRIB+BuildPlan summed over ASes (duplicate call)
	{"netsim.exchanges", "count", "lower", 0},                       // probe.Conn exchanges crossing the simulator
	{"netsim.exchange_us", "us", "lower", 0},                        // mean wall time of one exchange
	{"netsim.exchange_s", "s", "lower", 0},                          // total wall time inside exchanges
	{"netsim.forwarded", "count", "lower", 0},                       // packets forwarded by the simulator
	{"probe.sweep_s", "s", "lower", 0},                              // trace sweep stage (stage.trace)
	{"probe.us_per_trace", "us", "lower", 0},                        // trace sweep time per trace
	{"probe.retries", "count", "lower", 0},                          // probes re-sent to silent hops
	{"probe.useful_ratio", "ratio", "higher", 0},                    // replies per UDP probe sent
	{"fingerprint.collect_s", "s", "lower", 0},                      // TTL fingerprint echo stage (stage.fingerprint)
	{"fingerprint.pings", "count", "lower", 0},                      // echo probes sent for fingerprinting
	{"fingerprint.classified_ratio", "ratio", "higher", 0},          // candidates given a vendor
	{"alias.resolve_s", "s", "lower", 0},                            // MIDAR/APPLE alias resolution (stage.alias)
	{"alias.share", "ratio", "lower", 0},                            // alias stage over the workload's own measure time
	{"alias.ipid_samples", "count", "lower", 0},                     // IP-ID samples sent
	{"alias.pairs_tested", "count", "lower", 0},                     // candidate pairs tested
	{"alias.useful_ratio", "ratio", "higher", 0},                    // aliased pairs over tested pairs
	{"bdrmap.annotate_ms", "ms", "lower", 0},                        // bdrmap.Annotate summed over ASes (duplicate call)
	{"archive.encode_s", "s", "lower", 0},                           // archive.WriteData into memory (duplicate call)
	{"archive.write_s", "s", "lower", 0},                            // fsync'd archive.WriteFile
	{"archive.decode_s", "s", "lower", 0},                           // archive.ReadData from memory (duplicate call)
	{"archive.decode_mb_per_s", "MB/s", "higher", 0},                // archive bytes decoded per second
	{"archive.bytes_per_trace", "B/trace", "lower", 0},              // archive bytes per trace
	{"archive.decode_allocs_per_trace", "allocs/trace", "lower", 0}, // heap objects allocated per decoded trace
	{"exp.measure_s", "s", "lower", 0},                              // exp.MeasureAS summed over ASes
	{"exp.detect_s", "s", "lower", 0},                               // the workload's own Detect or DetectStream stage
	{"exp.detect_stream_s", "s", "lower", 0},                        // exp.DetectStream over archive bytes
	{"exp.analyze_busy_s", "s", "lower", 0},                         // analysis worker busy time inside DetectStream
	{"exp.decode_share", "ratio", "lower", 0},                       // 1 - analyze busy / DetectStream time
	{"exp.query_ms", "ms", "lower", 0},                              // rendering every exp.All experiment
	{"exp.merge_us", "us", "lower", 0},                              // Campaign.MergedAgg
	{"core.analyze_us_per_path", "us", "lower", 0},                  // core.Detector.Analyze per AS-restricted path (duplicate call)
	{"runtime.alloc_mb_per_ktrace", "MB/ktrace", "lower", 0},        // heap bytes allocated per thousand traces
	{"runtime.gc_cpu_share", "ratio", "lower", 0},                   // GC CPU over busy CPU
	{"runtime.cpu_util", "ratio", "higher", 0},                      // busy CPU over GOMAXPROCS x wall
	{"trace.overhead", "ratio", "lower", 0},                         // traced iteration without duplicate calls over an untraced Workers=1 iteration, minus 1
}
