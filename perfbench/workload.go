package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sgxp2p"
	"sgxp2p/internal/telemetry"
)

// kind is the operation a workload's closed loop repeats.
type kind int

const (
	kindBroadcast kind = iota // one Cluster.Broadcast
	kindMux                   // one Cluster.BroadcastMany of muxRequests
	kindBeacon                // one optimized-ERNG beacon epoch
)

// muxRequests is the number of concurrent broadcasts in one mux op.
const muxRequests = 100

// workload is one benchmark input: the standing cluster it builds and the
// operation its closed loop issues, one call at a time.
type workload struct {
	name       string
	kind       kind
	n, t       int
	realCrypto bool
	spans      bool
	// tailPct is the tail percentile reported as op_ms_tail. It is fixed
	// per workload, so runs stay comparable, and leaves at least twenty
	// samples beyond it in a 20 s run. The broadcast workloads use p90:
	// their ops last milliseconds, so on a shared host their top few
	// percent are the host's scheduling stalls, which swing p99 by ±40%
	// between identical runs. op_ms_tail_max reports the highest
	// percentile with ten samples beyond it alongside.
	tailPct float64
}

var workloads = []workload{
	{name: "erb_n64", kind: kindBroadcast, n: 64, t: 31, tailPct: 90},
	{name: "mux_n64_i100", kind: kindMux, n: 64, t: 31, tailPct: 75},
	{name: "beacon_opt_real_n64", kind: kindBeacon, n: 64, t: 21, realCrypto: true, tailPct: 85},
	{name: "erb_n64_spans", kind: kindBroadcast, n: 64, t: 31, spans: true, tailPct: 90},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// clusterSeed derives the cluster's seed from the benchmark seed, so one
// flag sets the cluster, the initiators and the payloads.
func clusterSeed(seed int64) int64 { return seed*0x9E3779B97F4A7C + 17 }

// bench is one standing cluster driven by a single client.
type bench struct {
	wl      workload
	cluster *sgxp2p.Cluster
	beacon  *sgxp2p.Beacon
	tracer  *telemetry.Tracer
	rng     *rand.Rand
	first   int    // initiator of the first broadcast
	cursor  uint64 // tracer events already drained
	ops     int
}

// newBench builds the workload's cluster and returns it with the time
// NewCluster took. metrics may be nil (untraced).
func newBench(wl workload, seed int64, metrics *telemetry.Metrics) (*bench, time.Duration, error) {
	b := &bench{wl: wl, rng: rand.New(rand.NewSource(seed))}
	b.first = b.rng.Intn(wl.n)
	if wl.spans {
		b.tracer = telemetry.New(telemetry.Options{Spans: true})
	}
	opts := sgxp2p.Options{
		N:          wl.n,
		T:          wl.t,
		Seed:       clusterSeed(seed),
		RealCrypto: wl.realCrypto,
		Trace:      b.tracer,
		Metrics:    metrics,
	}
	start := time.Now()
	c, err := sgxp2p.NewCluster(opts)
	setup := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: new cluster: %w", wl.name, err)
	}
	b.cluster = c
	if wl.kind == kindBeacon {
		if b.beacon, err = c.NewBeacon(sgxp2p.BeaconOptimized); err != nil {
			return nil, 0, fmt.Errorf("%s: new beacon: %w", wl.name, err)
		}
	}
	b.drainTrace()
	return b, setup, nil
}

// roundLen is the lockstep round length (2Δ at the default Δ of 1s).
const roundLen = 2 * time.Second

// opStat is what one op did, as the client sees it.
type opStat struct {
	wall         time.Duration // the API call alone
	virtual      time.Duration // simulated time the call occupied
	bytes        uint64        // simnet bytes sent during the call
	round        uint32        // largest decision round of any live node
	contributors int           // beacon contributors (0 for broadcasts)
	err          error         // why the outputs are wrong; nil when correct
}

func (b *bench) value() sgxp2p.Value {
	var v sgxp2p.Value
	b.rng.Read(v[:])
	return v
}

// op issues one operation, checks its outputs and returns what it did.
func (b *bench) op() opStat {
	c := b.cluster
	v0, bytes0 := c.Now(), c.Traffic().Bytes
	var st opStat
	switch b.wl.kind {
	case kindBroadcast:
		init := sgxp2p.NodeID((b.first + b.ops) % b.wl.n)
		v := b.value()
		start := time.Now()
		res, err := c.Broadcast(init, v)
		st.wall = time.Since(start)
		if err == nil {
			st.round, err = checkBroadcast(res, liveNodes(c), v)
		}
		st.err = err
	case kindMux:
		reqs := make([]sgxp2p.BroadcastRequest, muxRequests)
		for j := range reqs {
			reqs[j] = sgxp2p.BroadcastRequest{Initiator: sgxp2p.NodeID(b.rng.Intn(b.wl.n)), Value: b.value()}
		}
		start := time.Now()
		res, err := c.BroadcastMany(reqs, sgxp2p.MuxOptions{})
		st.wall = time.Since(start)
		if err == nil {
			st.round, err = checkMany(res, reqs, liveNodes(c))
		}
		st.err = err
	case kindBeacon:
		start := time.Now()
		e, err := b.beacon.RunEpoch()
		st.wall = time.Since(start)
		if err == nil {
			st.round, err = checkEmission(e, v0)
			st.contributors = len(e.Contributors)
		}
		st.err = err
	}
	st.virtual = c.Now() - v0
	st.bytes = c.Traffic().Bytes - bytes0
	b.drainTrace()
	b.ops++
	return st
}

// drainTrace ships the events recorded so far and releases them, as a
// streaming exporter does, so a long run keeps memory bounded.
func (b *bench) drainTrace() {
	if b.tracer == nil {
		return
	}
	b.cursor += uint64(len(b.tracer.Since(b.cursor)))
	b.tracer.Release(b.cursor)
}

func liveNodes(c *sgxp2p.Cluster) []sgxp2p.NodeID {
	live := make([]sgxp2p.NodeID, 0, c.N())
	for i := 0; i < c.N(); i++ {
		if !c.Halted(sgxp2p.NodeID(i)) {
			live = append(live, sgxp2p.NodeID(i))
		}
	}
	return live
}

// checkBroadcast verifies one broadcast: every live node decided and
// accepted the initiator's value. It returns the largest decision round.
func checkBroadcast(res map[sgxp2p.NodeID]sgxp2p.BroadcastResult, live []sgxp2p.NodeID, want sgxp2p.Value) (uint32, error) {
	if len(live) == 0 {
		return 0, errors.New("no live nodes")
	}
	var last uint32
	for _, id := range live {
		r, ok := res[id]
		switch {
		case !ok:
			return 0, fmt.Errorf("live node %d did not decide", id)
		case !r.Accepted:
			return 0, fmt.Errorf("node %d decided bottom", id)
		case r.Value != want:
			return 0, fmt.Errorf("node %d accepted %v, not the initiator's %v", id, r.Value, want)
		}
		last = max(last, r.Round)
	}
	return last, nil
}

// checkMany verifies every broadcast of a BroadcastMany call.
func checkMany(res []map[sgxp2p.NodeID]sgxp2p.BroadcastResult, reqs []sgxp2p.BroadcastRequest, live []sgxp2p.NodeID) (uint32, error) {
	if len(res) != len(reqs) {
		return 0, fmt.Errorf("%d results for %d requests", len(res), len(reqs))
	}
	var last uint32
	for j, req := range reqs {
		r, err := checkBroadcast(res[j], live, req.Value)
		if err != nil {
			return 0, fmt.Errorf("request %d: %w", j, err)
		}
		last = max(last, r)
	}
	return last, nil
}

// checkEmission verifies a beacon epoch that began at virtual time start:
// it emitted a value (not bottom) with at least one contributor. The
// beacon itself fails the epoch when a live node is undecided or
// disagrees. It returns the decision round.
func checkEmission(e sgxp2p.Emission, start time.Duration) (uint32, error) {
	if !e.OK {
		return 0, errors.New("beacon emitted bottom")
	}
	if len(e.Contributors) == 0 {
		return 0, errors.New("beacon emission has no contributors")
	}
	return uint32((e.At-start)/roundLen) + 1, nil
}

// tally counts checked ops and keeps the first failure for the report.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = err
		}
	}
}

func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
