// Command statebench is the repository's benchmark. It replays one of
// two pre-generated state-access workloads closed loop against a
// store stack, checks the final store state against a memstore oracle,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured on the
// bare stack. With -trace 1 the run alternates bare rounds with traced
// rounds (layer-timing wrappers at every boundary plus the per-op
// tracer sampling every operation) and reports per-layer metrics.
//
// Usage, from the repository root:
//
//	bash statebench/run.sh --workload window-merge --seed 2 --seconds 50 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gadget/internal/kv"
	"gadget/internal/memstore"
	"gadget/internal/replay"
	"gadget/internal/tracing"
)

const (
	// minRounds is the fewest rounds a run makes, however short
	// -seconds is, so every median has at least three (or, traced, two
	// of each kind) samples.
	minRounds = 3
	// maxRounds caps a run that finds rounds unexpectedly fast.
	maxRounds = 64
	// minAttributedPct is the share of traced per-op wall time the
	// per-layer self times should account for. A traced round below it
	// is reported, not failed: it measures how much of an operation the
	// program's own instruments leave unexplained, not whether its
	// output is right.
	minAttributedPct = 90
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 0, "workload seed (0 = the workload's own seed)")
	seconds := flag.Int("seconds", 15, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "statebench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds, trace int) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if seed == 0 {
		seed = w.Seed
	}
	if w.Procs > 0 {
		runtime.GOMAXPROCS(w.Procs)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	emit := func(key string, v any) error {
		b, err := json.Marshal(map[string]any{key: v})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", b)
		return err
	}
	if err := emit("env", environment()); err != nil {
		return err
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "statebench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	traces, err := w.generate(seed)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	want, err := oracle(traces)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	accesses := 0
	for _, tr := range traces {
		accesses += len(tr)
	}
	if err := emit("workload", map[string]any{
		"spec": w, "loop": "closed", "run_seed": seed, "accesses": accesses,
		"live_state_bytes": want.liveBytes, "live_keys": want.keys,
	}); err != nil {
		return err
	}
	lats := make([][]int64, len(traces))
	for i, tr := range traces {
		lats[i] = make([]int64, len(tr))
	}
	traces = nil

	correct := true
	checkDigest := func(i int, r roundResult) {
		if r.digest != want.digest {
			correct = false
			fmt.Fprintf(out, "round %d: final state digest %s, oracle %s\n", i, r.digest, want.digest)
		}
	}
	// One untimed round first: it grows the heap, faults the latency
	// buffers in and warms the code paths, so that the first timed round
	// starts from the same state as the others. Its output is checked
	// all the same.
	runtime.GC()
	warm, err := runRound(w, seed, false, filepath.Join(work, "warm-up"), lats)
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	checkDigest(-1, warm)

	var rounds []roundResult
	limit := time.Duration(seconds) * time.Second
	start := time.Now()
	var last time.Duration
	// Rounds go on while the next one, taking as long as the last, still
	// ends within -seconds.
	for i := 0; i < maxRounds && (i < minRounds+trace || time.Since(start)+last <= limit); i++ {
		traced := trace == 1 && i%2 == 1
		// Start every round from a collected heap, so the previous
		// round's garbage does not land in this round's timings.
		runtime.GC()
		t0 := time.Now()
		r, err := runRound(w, seed, traced, filepath.Join(work, strconv.Itoa(i)), lats)
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		last = time.Since(t0)
		checkDigest(i, r)
		if len(rounds) > 0 && r.counts != rounds[0].counts {
			correct = false
			fmt.Fprintf(out, "round %d: deterministic counts %+v differ from round 0 %+v\n", i, r.counts, rounds[0].counts)
		}
		if traced && r.layers["tracing.attributed_pct"] < minAttributedPct {
			fmt.Fprintf(out, "round %d: attribution below target: per-layer self times cover %.1f%% of traced per-op wall time, want >= %d%%\n",
				i, r.layers["tracing.attributed_pct"], minAttributedPct)
		}
		if err := emit("round", r.summary(i)); err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	if err := emit("counts", rounds[0].counts); err != nil {
		return err
	}
	// The tail is printed but not among the bounded metrics: on a small
	// shared VM its run-to-run spread exceeds any bound worth having.
	if err := emit("tail", map[string]float64{
		"latency_p99_us":  median(rounds, func(r roundResult) float64 { return r.p99 }),
		"latency_p999_us": median(rounds, func(r roundResult) float64 { return r.p999 }),
	}); err != nil {
		return err
	}

	res := result{Correct: correct, Metrics: map[string]metric{}}
	for _, r := range rounds {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	if trace == 0 {
		endToEnd(res.Metrics, rounds)
		res.Metrics["success_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	} else {
		perLayer(res.Metrics, rounds)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "%s\n", b); err != nil {
		return err
	}
	return out.Flush()
}

// endToEnd fills the metrics a user of the store stack sees, each but
// the peak RSS a median over the run's rounds.
func endToEnd(m map[string]metric, rounds []roundResult) {
	m["throughput_ops_s"] = metric{median(rounds, func(r roundResult) float64 { return r.throughput }), "ops/s"}
	m["latency_p50_us"] = metric{median(rounds, func(r roundResult) float64 { return r.p50 }), "us"}
	m["setup_s"] = metric{median(rounds, func(r roundResult) float64 { return r.setup.Seconds() }), "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["space_amp"] = metric{rounds[0].counts.SpaceAmp, "ratio"}
}

// perLayer fills the per-layer metrics: medians over the traced rounds,
// plus the generator's cost over every round and the tracing overhead
// from the traced and bare rounds' median throughputs.
func perLayer(m map[string]metric, rounds []roundResult) {
	var bare, traced []roundResult
	for _, r := range rounds {
		if r.layers != nil {
			traced = append(traced, r)
		} else {
			bare = append(bare, r)
		}
	}
	for _, l := range layerMetrics {
		m[l.name] = metric{median(traced, func(r roundResult) float64 { return r.layers[l.name] }), l.unit}
	}
	m["core.gen_ns_per_access"] = metric{median(rounds, func(r roundResult) float64 { return r.genNsPerAccess }), "ns"}
	thrBare := median(bare, func(r roundResult) float64 { return r.throughput })
	thrTraced := median(traced, func(r roundResult) float64 { return r.throughput })
	m["tracing.overhead_pct"] = metric{100 * (thrBare - thrTraced) / thrBare, "%"}
}

func median(rounds []roundResult, f func(roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// counts are the numbers a single-client LSM run repeats exactly at a
// fixed seed; a later change may cite them as counts. Zero on the
// remote stack apart from SpaceAmp.
type counts struct {
	Flushes        int64   `json:"lsm.flushes"`
	Compactions    int64   `json:"lsm.compactions"`
	BytesFlushed   int64   `json:"lsm.bytes_flushed"`
	BytesCompacted int64   `json:"lsm.bytes_compacted"`
	SpaceAmp       float64 `json:"space_amp"`
}

type roundResult struct {
	traced         bool
	setup          time.Duration
	genNsPerAccess float64
	ops, failed    uint64
	throughput     float64
	p50, p99, p999 float64 // microseconds
	// stealPct is the share of the machine's CPU time the hypervisor
	// gave to other guests while the round replayed.
	stealPct float64
	digest   string
	counts   counts
	layers   map[string]float64 // traced rounds only
}

func (r roundResult) summary(i int) map[string]any {
	return map[string]any{
		"i": i, "traced": r.traced, "setup_s": r.setup.Seconds(), "ops": r.ops,
		"throughput_ops_s": r.throughput, "p50_us": r.p50, "p99_us": r.p99, "p999_us": r.p999,
		"steal_pct": r.stealPct,
	}
}

// runRound sets the workload up from scratch (trace generation, store
// open, cluster start), replays it closed loop and checks the final
// state. lats holds one per-op latency buffer per client.
func runRound(w workload, seed int64, traced bool, dir string, lats [][]int64) (roundResult, error) {
	var r roundResult
	r.traced = traced
	t0 := time.Now()
	traces, err := w.generate(seed)
	if err != nil {
		return r, err
	}
	gen := time.Since(t0)
	st, err := w.open(dir, traced)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	// Collect the set-up's garbage too, so the replay's GC cycles see
	// only what the replay allocates.
	runtime.GC()
	defer os.RemoveAll(dir)

	var userWritten, accesses int64
	for _, tr := range traces {
		accesses += int64(len(tr))
		for _, a := range tr {
			switch a.Op {
			case kv.OpPut, kv.OpMerge:
				userWritten += kv.KeyLen + int64(a.Size)
			case kv.OpDelete:
				userWritten += kv.KeyLen
			}
		}
	}
	r.genNsPerAccess = float64(gen.Nanoseconds()) / float64(accesses)

	var tr *tracing.Tracer
	if traced {
		tr = tracing.New(tracing.Options{SampleN: 1})
	}
	results := make([]replay.Result, len(traces))
	errs := make([]error, len(traces))
	var wg sync.WaitGroup
	cpu0 := readCPUTicks()
	begin := time.Now()
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := replay.NewCollector(st.top, replay.Options{Tracer: tr})
			if err != nil {
				errs[i] = err
				return
			}
			lat := lats[i][:len(traces[i])]
			for j, a := range traces[i] {
				t := time.Now()
				err := c.Do(a)
				lat[j] = int64(time.Since(t))
				if err != nil {
					errs[i] = err
					break
				}
			}
			results[i] = c.Finish()
		}(i)
	}
	wg.Wait()
	wall := time.Since(begin)
	r.stealPct = cpu0.stealPctUntil(readCPUTicks())
	for _, err := range errs {
		if err != nil {
			st.close()
			return r, err
		}
	}
	var doNs int64
	var all []int64
	for i, res := range results {
		r.ops += res.Ops
		r.failed += res.Errors
		all = append(all, lats[i][:len(traces[i])]...)
	}
	for _, v := range all {
		doNs += v
	}
	r.throughput = float64(r.ops) / wall.Seconds()
	slices.Sort(all)
	r.p50, r.p99, r.p999 = quantileUs(all, 0.5), quantileUs(all, 0.99), quantileUs(all, 0.999)

	fin, err := finalState(st.engines)
	if err != nil {
		st.close()
		return r, err
	}
	r.digest = fin.digest
	var size int64
	for _, e := range st.engines {
		if s, ok := e.(kv.Sizer); ok {
			size += s.ApproximateSize()
		}
	}
	if fin.liveBytes > 0 {
		r.counts.SpaceAmp = float64(size) / float64(fin.liveBytes)
	}
	em := kv.MetricsOf(st.engines[0])
	if !w.Remote {
		r.counts.Flushes = em["lsm.flushes"]
		r.counts.Compactions = em["lsm.compactions"]
		r.counts.BytesFlushed = em["lsm.bytes_flushed"]
		r.counts.BytesCompacted = em["lsm.bytes_compacted"]
	}
	if traced {
		r.layers = layers(w, st, tr, em, float64(doNs), float64(r.ops), float64(userWritten))
	}
	if err := st.close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}
	return r, nil
}

// quantileUs returns the nearest-rank q-quantile of sorted, in µs.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics a traced round measures.
// Layers a workload's path does not include report 0.
var layerMetrics = []layerMetric{
	{"replay.self_ns_per_op", "ns"},
	{"lsm.get_ns", "ns"},
	{"lsm.put_ns", "ns"},
	{"lsm.merge_ns", "ns"},
	{"lsm.delete_ns", "ns"},
	{"lsm.engine_mem_ns", "ns"},
	{"lsm.engine_sst_ns", "ns"},
	{"lsm.cache_hit_ratio", "ratio"},
	{"lsm.bloom_negative_ratio", "ratio"},
	{"lsm.bloom_fp_ratio", "ratio"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.stall_ms", "ms"},
	{"lsm.max_stall_us", "us"},
	{"lsm.write_amp", "ratio"},
	{"kv.resilient.self_ns_per_op", "ns"},
	{"kv.resilient.retries", "count"},
	{"shard.route_ns", "ns"},
	{"remote.queue_ns", "ns"},
	{"remote.wire_ns", "ns"},
	{"remote.server_ns", "ns"},
	{"remote.client_ns_per_op", "ns"},
	{"remote.unattributed_ns", "ns"},
	{"remote.ops_per_batch", "ops"},
	{"remote.redials", "count"},
	{"memstore.ns_per_op", "ns"},
	{"tracing.attributed_pct", "%"},
}

// layers computes one traced round's per-layer metrics. Self times come
// from the timing wrappers at the layer boundaries (a layer's time less
// the time of the layer below) and from the tracer's per-stage sums
// inside the engine and the remote path; em is the engine's metrics.
func layers(w workload, st *stack, tr *tracing.Tracer, em map[string]int64, doNs, ops, userWritten float64) map[string]float64 {
	l := map[string]float64{}
	stage := func(s tracing.Stage) float64 { return tr.StageHist(s).Snapshot().Sum() / ops }
	var stages float64
	for s := tracing.Stage(0); int(s) < tracing.NumStages; s++ {
		stages += stage(s)
	}
	_, outerNs := st.outer.total()
	l["replay.self_ns_per_op"] = (doNs - float64(outerNs)) / ops
	attributed := l["replay.self_ns_per_op"] + stages
	if w.Remote {
		_, clientNs := st.client.total()
		l["kv.resilient.self_ns_per_op"] = float64(outerNs-clientNs) / ops
		attributed += l["kv.resilient.self_ns_per_op"]
		cm := kv.MetricsOf(st.top)
		l["kv.resilient.retries"] = float64(cm["resilient.retries"])
		l["shard.route_ns"] = stage(tracing.StageRoute)
		l["remote.queue_ns"] = stage(tracing.StageQueue)
		l["remote.wire_ns"] = stage(tracing.StageWire)
		l["remote.server_ns"] = stage(tracing.StageServer)
		l["remote.client_ns_per_op"] = float64(clientNs) / ops
		// What the shard client spends outside every stage the tracer
		// names: mostly waking the caller once its response is in.
		l["remote.unattributed_ns"] = l["remote.client_ns_per_op"] - l["shard.route_ns"] -
			l["remote.queue_ns"] - l["remote.wire_ns"] - l["remote.server_ns"]
		if b := cm["remote.batches"]; b > 0 {
			l["remote.ops_per_batch"] = float64(cm["remote.requests"]) / float64(b)
		}
		l["remote.redials"] = float64(cm["remote.redials"])
		var calls, nanos int64
		for _, s := range st.served {
			c, n := s.total()
			calls += c
			nanos += n
		}
		if calls > 0 {
			l["memstore.ns_per_op"] = float64(nanos) / float64(calls)
		}
	} else {
		l["lsm.get_ns"] = st.outer.perOp(kv.OpGet)
		l["lsm.put_ns"] = st.outer.perOp(kv.OpPut)
		l["lsm.merge_ns"] = st.outer.perOp(kv.OpMerge)
		l["lsm.delete_ns"] = st.outer.perOp(kv.OpDelete)
		l["lsm.engine_mem_ns"] = stage(tracing.StageEngineMem)
		l["lsm.engine_sst_ns"] = stage(tracing.StageEngineSST)
		l["lsm.cache_hit_ratio"] = ratio(em["lsm.cache_hits"], em["lsm.cache_hits"]+em["lsm.cache_misses"])
		l["lsm.bloom_negative_ratio"] = ratio(em["lsm.bloom_negatives"], em["lsm.bloom_checks"])
		l["lsm.bloom_fp_ratio"] = ratio(em["lsm.bloom_false_positives"], em["lsm.bloom_negatives"]+em["lsm.bloom_false_positives"])
		l["lsm.flushes"] = float64(em["lsm.flushes"])
		l["lsm.compactions"] = float64(em["lsm.compactions"])
		l["lsm.stall_ms"] = float64(em["lsm.stall_nanos"]) / 1e6
		// The engine stage is what the LSM leaves unattributed to its
		// memtable, SSTable and WAL phases; its longest single value is
		// the longest inline flush/compaction a writer waited for.
		l["lsm.max_stall_us"] = float64(tr.StageHist(tracing.StageEngine).Max()) / 1e3
		l["lsm.write_amp"] = float64(em["lsm.bytes_flushed"]+em["lsm.bytes_compacted"]) / userWritten
	}
	l["tracing.attributed_pct"] = 100 * attributed / (doNs / ops)
	return l
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// state summarizes a store's final contents.
type state struct {
	digest    string
	liveBytes int64
	keys      int
}

// oracle replays the traces one after another into a memstore. The
// clients' key partitions are disjoint, so the order between traces
// does not change the final state.
func oracle(traces [][]kv.Access) (state, error) {
	m := memstore.New()
	var buf [kv.KeyLen]byte
	for _, tr := range traces {
		for _, a := range tr {
			if _, err := replay.Apply(m, a, buf[:]); err != nil {
				return state{}, err
			}
		}
	}
	return finalState([]kv.Store{m})
}

// finalState digests the union of the stores' live entries.
func finalState(stores []kv.Store) (state, error) {
	var all []kv.Entry
	for _, s := range stores {
		ents, err := kv.ScanAll(s)
		if err != nil {
			return state{}, err
		}
		all = append(all, ents...)
	}
	return digest(all), nil
}

// digest summarizes entries in key order.
func digest(all []kv.Entry) state {
	slices.SortFunc(all, func(a, b kv.Entry) int {
		switch {
		case a.Key.Less(b.Key):
			return -1
		case b.Key.Less(a.Key):
			return 1
		}
		return 0
	})
	h := sha256.New()
	var st state
	var n [8]byte
	for _, e := range all {
		h.Write(e.Key.Bytes())
		binary.BigEndian.PutUint64(n[:], uint64(len(e.Value)))
		h.Write(n[:])
		h.Write(e.Value)
		st.liveBytes += kv.KeyLen + int64(len(e.Value))
	}
	st.keys = len(all)
	st.digest = hex.EncodeToString(h.Sum(nil))
	return st
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB,
// or 0 where /proc is not available.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks is the machine-wide CPU time from the first line of
// /proc/stat, in clock ticks: steal and the sum over every state.
type cpuTicks struct{ steal, total int64 }

// readCPUTicks reads the machine-wide CPU times, or zeros where /proc
// is not available.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// Fields 8 and 9 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPctUntil is the share, in percent, of the CPU time between c and
// later that was steal.
func (c cpuTicks) stealPctUntil(later cpuTicks) float64 {
	if later.total <= c.total {
		return 0
	}
	return 100 * float64(later.steal-c.steal) / float64(later.total-c.total)
}
