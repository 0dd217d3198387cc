package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"sgxp2p"
	"sgxp2p/internal/beacon"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// countedMetrics are the numbers that must repeat exactly for a seed.
func countedMetrics(t *testing.T, wl workload, seed int64, ops int) map[string]float64 {
	t.Helper()
	tr, err := newTraced(wl, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr.warm(tr.b)
	tr.startCounting()
	tr.measure(tr.b, 0, ops)
	tr.stopCounting()
	if tr.checks.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", wl.name, seed, tr.checks.failed, tr.checks.attempted, tr.checks.first)
	}
	c := tr.counts()
	return map[string]float64{
		"decide_rounds":            float64(tr.round),
		"wire_bytes_per_op":        tr.perOp(float64(tr.bytes)),
		"virtual_s_per_op":         tr.perOp(tr.virtual.Seconds()),
		"channel.seals_per_op":     c.seals,
		"runtime.envelopes_per_op": c.envelopes,
		"telemetry.events_per_op":  c.traceEvents,
	}
}

// TestSeedDeterminism runs every workload briefly twice per seed and
// requires the counted metrics to match exactly.
func TestSeedDeterminism(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			ops := 3
			if wl.kind == kindMux {
				ops = 2
			}
			for _, seed := range []int64{1, 2} {
				a := countedMetrics(t, wl, seed, ops)
				b := countedMetrics(t, wl, seed, ops)
				for name, v := range a {
					if b[name] != v {
						t.Errorf("seed %d: %s = %v, then %v", seed, name, v, b[name])
					}
				}
				if a["channel.seals_per_op"] == 0 || a["wire_bytes_per_op"] == 0 {
					t.Errorf("seed %d: no traffic counted: %v", seed, a)
				}
				if wl.spans != (a["telemetry.events_per_op"] > 0) {
					t.Errorf("seed %d: telemetry.events_per_op = %v with spans=%v", seed, a["telemetry.events_per_op"], wl.spans)
				}
			}
		})
	}
}

// TestCheckerCountsForgedFailures feeds the output checker forged results
// and requires each to count toward fail_frac.
func TestCheckerCountsForgedFailures(t *testing.T) {
	const n = 4
	want := sgxp2p.ValueFromString("payload")
	live := []sgxp2p.NodeID{0, 1, 2, 3}
	agreed := func() map[sgxp2p.NodeID]sgxp2p.BroadcastResult {
		res := make(map[sgxp2p.NodeID]sgxp2p.BroadcastResult, n)
		for _, id := range live {
			res[id] = sgxp2p.BroadcastResult{Accepted: true, Value: want, Round: 2}
		}
		return res
	}
	disagree := agreed()
	disagree[2] = sgxp2p.BroadcastResult{Accepted: true, Value: sgxp2p.ValueFromString("other"), Round: 2}
	missing := agreed()
	delete(missing, 3)
	start := 10 * time.Second
	bottom := sgxp2p.Emission{OK: false, At: start + 3*roundLen}

	var checks tally
	_, err := checkBroadcast(agreed(), live, want)
	checks.record(err)
	if err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	for name, err := range map[string]error{
		"disagreeing node":  second(checkBroadcast(disagree, live, want)),
		"missing decision":  second(checkBroadcast(missing, live, want)),
		"bottom emission":   second(checkEmission(bottom, start)),
		"disagreeing batch": second(checkMany([]map[sgxp2p.NodeID]sgxp2p.BroadcastResult{agreed(), disagree}, []sgxp2p.BroadcastRequest{{Value: want}, {Value: want}}, live)),
	} {
		if err == nil {
			t.Errorf("%s: not detected", name)
		}
		checks.record(err)
	}
	if checks.failed != 4 || checks.attempted != 5 {
		t.Fatalf("tally %d failed of %d, want 4 of 5", checks.failed, checks.attempted)
	}
	if got, want := checks.failFrac(), 0.8; got != want {
		t.Fatalf("fail_frac %v, want %v", got, want)
	}
	good := sgxp2p.Emission{OK: true, Contributors: []sgxp2p.NodeID{1}, At: start + 3*roundLen}
	if r, err := checkEmission(good, start); err != nil || r != 4 {
		t.Fatalf("good emission: round %d, err %v; want round 4", r, err)
	}
}

func second(_ uint32, err error) error { return err }

// TestPercentile pins the nearest-rank percentile and the tail count.
func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	for n, want := range map[int]float64{2600: 99.5, 1000: 99, 140: 90, 93: 75, 20: 50} {
		if got := highestTail(n); got != want {
			t.Errorf("highestTail(%d) = %v, want %v", n, got, want)
		}
	}
	if got := fmt.Sprint(median([]float64{3, 1, 2})); got != "2" {
		t.Errorf("median = %s", got)
	}
}

// TestEventCountFormula checks the derivation behind vclock.events_per_op
// (simnet messages + live nodes × (rounds + 1)) against the simulator's
// own count, on a deployment running a broadcast and a beacon epoch the
// way Cluster does.
func TestEventCountFormula(t *testing.T) {
	const n, tb = 16, 5
	d, err := deploy.New(deploy.Options{N: n, T: tb, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, op func() error) {
		t.Helper()
		fired, msgs, now := d.Sim.FiredCount(), d.Net.Traffic().Messages, d.Sim.Now()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds := uint64((d.Sim.Now() - now) / roundLen)
		want := d.Net.Traffic().Messages - msgs + n*(rounds+1)
		if got := d.Sim.FiredCount() - fired; got != want {
			t.Errorf("%s: %d events fired, formula gives %d", name, got, want)
		}
	}
	check("broadcast", func() error {
		for i, p := range d.Peers {
			eng, err := erb.NewEngine(p, erb.Config{T: tb, ExpectedInitiators: []wire.NodeID{0}})
			if err != nil {
				return err
			}
			if i == 0 {
				eng.SetInput(sgxp2p.ValueFromString("x"))
			}
			p.Start(eng, eng.Rounds())
		}
		if err := d.Run(); err != nil {
			return err
		}
		for _, p := range d.Peers {
			p.BumpSeqs()
		}
		return nil
	})
	b, err := beacon.New(d, beacon.Config{T: tb, Mode: beacon.ModeOptimized})
	if err != nil {
		t.Fatal(err)
	}
	check("beacon epoch", func() error { _, err := b.RunEpoch(); return err })
}

// TestProfileShares parses a real CPU profile of this package's code.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(time.Second)
	pprof.StopCPUProfile()
	shares, samples, err := profileShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no profile samples on this host")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %v of %d samples, want most of them: %v", shares["bench"], samples, shares)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sgxp2p/internal/channel.(*Link).sealAppend": "channel",
		"sgxp2p/internal/core/erb.(*Engine).OnRound": "erb",
		"sgxp2p/internal/runtime.DigestEncoded":      "runtime",
		"sgxp2p.(*Cluster).Broadcast":                "other",
		"sgxp2p/internal/adversary.Wrap":             "other",
		"main.(*bench).op":                           "bench",
		"sgxp2p/perfbench.spin":                      "bench",
		"crypto/sha256.block":                        "",
		"runtime.mallocgc":                           "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON requires both run modes to report exactly
// the metrics, with the units, that BENCHMARK.json registers.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	wl, _ := findWorkload("erb_n64")
	e2e, _, err := endToEnd(wl, 1, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	layers, _, err := perLayer(io.Discard, wl, 1, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode string
		spec []entry
		got  []metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		want := map[string]string{}
		for _, e := range c.spec {
			want[e.Name] = e.Unit
		}
		got := map[string]string{}
		for _, m := range c.got {
			if !m.info {
				got[m.name] = m.unit
			}
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: %s reported with unit %q, registered %q", c.mode, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: %s reported but not registered", c.mode, name)
			}
		}
	}
}
