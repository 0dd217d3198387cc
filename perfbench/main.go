// Command perfbench is the repository's benchmark: closed-loop workloads
// on a standing simulated cluster, driven through the public sgxp2p API
// by a single client.
//
//	bash perfbench/run.sh --workload erb_n64 --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics and prints the layer-accounting report. --workload
// all runs every workload, each in a process of its own. The last line
// of standard output is the JSON result; the lines before it are the
// same numbers for people. See NOTES.md for what each workload and
// metric is for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // shown to people only
	info  bool   // printed for people, left out of the JSON result
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for the cluster, initiators and payloads")
	seconds := flag.Float64("seconds", 20, "seconds of measurement")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if err := mainErr(os.Stdout, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(out io.Writer, name string, seed int64, seconds float64, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	h := hostInfo()
	if h.gomaxprocs > h.nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d usable CPUs; refusing to run", h.gomaxprocs, h.nproc)
	}
	if name == "all" {
		return runAll(out, seed, seconds, trace)
	}
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s, all)", name, workloadNames())
	}
	fmt.Fprintf(out, "host: %s\n", h)
	fmt.Fprintf(out, "workload: %s seed=%d seconds=%g trace=%d (closed loop, 1 client)\n", wl.name, seed, seconds, trace)
	dur := time.Duration(seconds * float64(time.Second))
	var (
		ms     []metric
		checks tally
		err    error
	)
	if trace == 0 {
		ms, checks, err = endToEnd(wl, seed, dur)
	} else {
		ms, checks, err = perLayer(out, wl, seed, dur)
	}
	if err != nil {
		return err
	}
	for _, m := range ms {
		fmt.Fprintf(out, "  %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if checks.first != nil {
		fmt.Fprintf(out, "first failure: %v\n", checks.first)
	}
	return printResult(out, checks, ms)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return fmt.Sprint(names)
}

func printResult(out io.Writer, checks tally, ms []metric) error {
	res := result{
		Correct:   checks.failed == 0 && checks.attempted > 0,
		Attempted: checks.attempted,
		Failed:    checks.failed,
		Metrics:   make(map[string]jsonMetric, len(ms)),
	}
	for _, m := range ms {
		if m.info {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// setupReps bounds the NewCluster repetitions behind setup_s: at least
// minSetupReps, then more until setupBudget has passed.
const (
	minSetupReps = 9
	maxSetupReps = 60
	setupBudget  = 1500 * time.Millisecond
)

// endToEnd measures the untraced run: set-up several times, keep the last
// cluster standing and time ops on it for dur.
func endToEnd(wl workload, seed int64, dur time.Duration) ([]metric, tally, error) {
	var (
		b      *bench
		setups []float64
		spent  time.Duration
	)
	for len(setups) < minSetupReps || spent < setupBudget && len(setups) < maxSetupReps {
		runtime.GC()
		nb, took, err := newBench(wl, seed, nil)
		if err != nil {
			return nil, tally{}, err
		}
		b = nb
		setups = append(setups, took.Seconds())
		spent += took
	}
	var p phase
	p.warm(b)
	runtime.GC()
	p.measure(b, dur, 0)
	n := p.ops()
	tail := percentile(p.wallMs, wl.tailPct)
	tailNote := fmt.Sprintf("p%g of %d samples, %d beyond", wl.tailPct, n, beyond(n, wl.tailPct))
	if beyond(n, wl.tailPct) < 10 {
		tailNote += " (fewer than 10 beyond: run longer)"
	}
	top := highestTail(n)
	ms := []metric{
		{name: "ops_per_s", value: float64(n) / p.elapsed.Seconds(), unit: "1/s", note: fmt.Sprintf("%d ops in %.2fs", n, p.elapsed.Seconds())},
		{name: "op_ms_p50", value: median(p.wallMs), unit: "ms", note: fmt.Sprintf("of %d samples", n)},
		{name: "op_ms_tail", value: tail, unit: "ms", note: tailNote},
		{name: "op_ms_tail_max", value: percentile(p.wallMs, top), unit: "ms", info: true,
			note: fmt.Sprintf("p%g, the highest percentile with at least 10 of %d samples beyond", top, n)},
		{name: "setup_s", value: median(setups), unit: "s", note: fmt.Sprintf("median of %d NewCluster calls", len(setups))},
		{name: "cpu_ms_per_op", value: p.perOp(float64(p.cpu.Nanoseconds()) / 1e6), unit: "ms", note: "process user+sys"},
		{name: "alloc_bytes_per_op", value: p.perOp(float64(p.alloc)), unit: "bytes"},
		{name: "peak_rss_mb", value: peakRSSMB(), unit: "MiB"},
		{name: "decide_rounds", value: float64(p.round), unit: "rounds", note: "largest decision round, all live nodes and instances"},
		{name: "wire_bytes_per_op", value: p.perOp(float64(p.bytes)), unit: "bytes"},
		{name: "virtual_s_per_op", value: p.perOp(p.virtual.Seconds()), unit: "s", info: true,
			note: fmt.Sprintf("simulated time per call; call %d took %gs, call %d took %gs", warmupOps, p.virtS[0], warmupOps+n-1, p.virtS[n-1])},
		{name: "op_ms_drift", value: median(p.wallMs[max(0, n-10):]) / median(p.wallMs[:min(n, 10)]), unit: "x", info: true,
			note: "median of the last ten calls over the first ten"},
		{name: "fail_frac", value: p.checks.failFrac(), unit: "", note: fmt.Sprintf("%d of %d ops failed", p.checks.failed, p.checks.attempted), info: true},
	}
	return ms, p.checks, nil
}

// runAll runs every workload in a process of its own (so each peak RSS
// belongs to one workload) and prints one combined result.
func runAll(out io.Writer, seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var checks tally
	var all []metric
	for _, wl := range workloads {
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", wl.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout = io.MultiWriter(out, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		var res result
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("%s: result line: %w", wl.name, err)
		}
		checks.attempted += res.Attempted
		checks.failed += res.Failed
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		slices.Sort(names)
		for _, k := range names {
			all = append(all, metric{name: wl.name + "/" + k, value: res.Metrics[k].Value, unit: res.Metrics[k].Unit})
		}
	}
	return printResult(out, checks, all)
}
