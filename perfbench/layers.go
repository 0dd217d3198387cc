package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"sgxp2p/internal/channel"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// counters reads a metrics registry: counters and gauges by name,
// histograms as name:count and name:sum.
type counters map[string]float64

func readCounters(m *telemetry.Metrics) counters {
	c := counters{}
	for _, v := range m.Snapshot() {
		switch v.Kind {
		case "histogram_count":
			c[v.Name+":count"] = v.Value
		case "histogram_sum":
			c[v.Name+":sum"] = v.Value
		default:
			c[v.Name] = v.Value
		}
	}
	// Frames that carried a single message: the first bucket (le 1) of
	// the runtime's batch-size histogram.
	if h := m.Histogram("runtime_batch_msgs", nil); h.Count() > 0 {
		c["runtime_batch_msgs:singles"] = float64(h.BucketCount(0))
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// tracedRun is a standing cluster with the program's metrics registry
// attached, and what its timed ops cost and exported.
type tracedRun struct {
	phase
	b        *bench
	m        *telemetry.Metrics
	before   counters
	ev0      uint64
	delta    counters // registry counts over the timed ops
	events   float64  // tracer events recorded over the timed ops
	profiles [][]byte // CPU profiles of the timed blocks
}

func newTraced(wl workload, seed int64) (*tracedRun, error) {
	m := telemetry.NewMetrics()
	b, _, err := newBench(wl, seed, m)
	if err != nil {
		return nil, err
	}
	return &tracedRun{b: b, m: m}, nil
}

// startCounting and stopCounting bracket the timed ops.
func (tr *tracedRun) startCounting() {
	tr.before, tr.ev0 = readCounters(tr.m), tr.b.tracer.EventCount()
}

func (tr *tracedRun) stopCounting() {
	tr.delta = readCounters(tr.m).minus(tr.before)
	tr.events = float64(tr.b.tracer.EventCount() - tr.ev0)
}

// measureProfiled times one block of ops with the CPU profiler on.
func (tr *tracedRun) measureProfiled(dur time.Duration) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	tr.measure(tr.b, dur, 0)
	pprof.StopCPUProfile()
	tr.profiles = append(tr.profiles, buf.Bytes())
	return nil
}

// counts are the per-op call counts of the layers, taken from what the
// program exports through its metrics registry (and the tracer). Counts
// the registry does not export directly are derived, as noted.
type counts struct {
	seals, sealedBytes, opens, openedBytes, openFailures float64
	envelopes, acksSent, delivered                       float64
	batchMsgs, batchFrames, batchEntries, multiFrames    float64
	messages, events, rounds, traceEvents                float64
	multicasts, encodes, decodes, digests                float64
	spawned, unknownDrops, accepts, bottoms              float64
	authFailures, roundMismatches, sendFailures, halts   float64 // run totals
}

func (tr *tracedRun) counts() counts {
	d := tr.delta
	per := func(name string) float64 { return tr.perOp(d[name]) }
	c := counts{
		seals:       per("channel_seals_total"),
		sealedBytes: per("channel_sealed_bytes_total"),
		opens:       per("channel_opens_total"),
		openedBytes: per("channel_opened_bytes_total"),
		envelopes:   per("runtime_envelopes_sent_total"),
		acksSent:    per("runtime_acks_sent_total"),
		delivered:   per("runtime_delivered_total"),
		batchMsgs:   per("runtime_batch_msgs:sum"),
		batchFrames: per("runtime_batch_msgs:count"),
		messages:    per("net_messages_total"),
		spawned:     per("mux_spawned_total"),
		accepts:     per("erb_accepts_total"),
		bottoms:     per("erb_bottoms_total"),
		traceEvents: tr.perOp(tr.events),
		rounds:      tr.perOp(tr.virtual.Seconds()) / roundLen.Seconds(),

		unknownDrops:    per("mux_unknown_drops_total"),
		openFailures:    d["channel_open_failures_total"],
		authFailures:    d["runtime_auth_failures_total"],
		roundMismatches: d["runtime_round_mismatches_total"],
		sendFailures:    d["runtime_send_failures_total"],
		halts:           d["runtime_halts_total"],
	}
	// Multi-message frames are built with AppendBatchEntry and walked
	// with BatchIter; single-message frames travel bare.
	c.multiFrames = c.batchFrames - per("runtime_batch_msgs:singles")
	c.batchEntries = c.batchMsgs - per("runtime_batch_msgs:singles")
	// Each live peer ticks once per round plus the finishing tick, and
	// every simnet message is one scheduled delivery.
	c.events = c.messages + float64(len(liveNodes(tr.b.cluster)))*(c.rounds+1)
	// Every message on the wire is decoded once; those not delivered to
	// a protocol are ACKs (per-message, or one per frame under
	// frame-cumulative ACKs). A protocol multicast is encoded once and
	// delivered to the other n-1 peers. The sender digests each multicast
	// for its ACK tracker and the receiver digests what it ACKs, so
	// counting a digest per wire ACK is exact for per-message ACKs and an
	// upper bound for frame ACKs, which carry none.
	ackWire := max(0, c.batchMsgs-c.delivered)
	c.multicasts = c.delivered / float64(tr.b.wl.n-1)
	c.encodes = c.multicasts + ackWire
	c.decodes = c.batchMsgs
	c.digests = c.multicasts + ackWire
	return c
}

// callTimes are the per-call costs of each layer's public functions, on
// inputs shaped like the workload's traffic.
type callTimes struct {
	seal, open, xSeal, xOpen, deriveUs             float64
	encode, decode, batchAppend, batchIter, digest float64
	event, sendDeliver, record                     float64
	launchUs, attestUs, sessionKeysUs              float64
}

// shape is the traffic the layer timings imitate.
type shape struct {
	msgSets      int // Set entries per message (FINAL-sized messages)
	msgsPerFrame int
	envelope     int // bytes per sealed envelope on the wire
}

func trafficShape(c counts) shape {
	s := shape{msgsPerFrame: 1, envelope: 100}
	if c.batchFrames > 0 {
		s.msgsPerFrame = max(1, int(c.batchMsgs/c.batchFrames+0.5))
	}
	if c.messages > 0 {
		s.envelope = int(c.sealedBytes/c.messages + 0.5)
	}
	if c.decodes > 0 {
		// Plaintext bytes per message: opened bytes less the batch framing
		// (a magic byte per multi-message frame, a length per entry). Past
		// the fixed 62-byte header, each Set entry adds 36.
		perMsg := (c.openedBytes - c.multiFrames - 4*c.batchEntries) / c.decodes
		s.msgSets = max(0, int((perMsg-62)/36+0.5))
	}
	return s
}

// sampleMessage is an ECHO, or a FINAL carrying sets entries.
func sampleMessage(rng *rand.Rand, sets int) *wire.Message {
	m := &wire.Message{Type: wire.TypeEcho, Sender: 3, Initiator: 7, Instance: 42, Seq: 99, Round: 2, HasValue: true}
	rng.Read(m.Value[:])
	if sets > 0 {
		m.Type = wire.TypeFinal
		m.Set = make([]wire.SetEntry, sets)
		for i := range m.Set {
			m.Set[i].Initiator = wire.NodeID(i)
			rng.Read(m.Set[i].Value[:])
		}
	}
	return m
}

// fixedClock is an enclave clock that never advances.
type fixedClock struct{}

func (fixedClock) Now() time.Duration { return 0 }

// nsPerCall times fn (which makes `calls` calls of the function under
// test) in batches of at least a millisecond and returns the median
// nanoseconds per call.
func nsPerCall(calls int, fn func()) float64 {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if time.Since(start) >= time.Millisecond {
			break
		}
		iters *= 2
	}
	samples := make([]float64, 9)
	for s := range samples {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples[s] = float64(time.Since(start).Nanoseconds()) / float64(iters*calls)
	}
	return median(samples)
}

// timeLayers measures every layer's per-call cost for workload wl on
// traffic of shape s.
func timeLayers(wl workload, s shape, seed int64) (callTimes, error) {
	var ct callTimes
	rng := rand.New(rand.NewSource(seed))
	program := deploy.DefaultProgram
	var opts []enclave.Option
	if !wl.realCrypto {
		opts = append(opts, enclave.WithModelKEX())
	}
	launch := func(id wire.NodeID) (*enclave.Enclave, error) {
		return enclave.Launch(program, id, rng, fixedClock{}, opts...)
	}
	e0, err := launch(0)
	if err != nil {
		return ct, err
	}
	e1, err := launch(1)
	if err != nil {
		return ct, err
	}
	var launchErr error
	ct.launchUs = nsPerCall(1, func() {
		if _, err := launch(2); err != nil {
			launchErr = err
		}
	}) / 1e3
	svc, err := enclave.NewAttestationService(rng)
	if err != nil {
		return ct, err
	}
	meas := xcrypto.Measure(program)
	ct.attestUs = nsPerCall(1, func() {
		if err := enclave.VerifyQuote(svc.VerifyKey(), meas, svc.Attest(e0)); err != nil {
			launchErr = err
		}
	}) / 1e3
	ct.sessionKeysUs = nsPerCall(1, func() {
		if _, err := e0.SessionKeys(e1.DHPublic()); err != nil {
			launchErr = err
		}
	}) / 1e3
	if launchErr != nil {
		return ct, launchErr
	}
	kp, err := xcrypto.GenerateKeyPair(rng)
	if err != nil {
		return ct, err
	}
	peer, err := xcrypto.GenerateKeyPair(rng)
	if err != nil {
		return ct, err
	}
	ct.deriveUs = nsPerCall(1, func() { _, _ = kp.DeriveSessionKeys(peer.Public()) }) / 1e3

	// wire: one message of the workload's size, and a frame of them.
	msg := sampleMessage(rng, s.msgSets)
	enc, err := msg.Encode()
	if err != nil {
		return ct, err
	}
	buf := make([]byte, 0, 1<<16)
	ct.encode = nsPerCall(1, func() { buf, _ = msg.AppendEncode(buf[:0]) })
	var into wire.Message
	ct.decode = nsPerCall(1, func() { _ = wire.DecodeInto(&into, enc) })
	frame := enc
	if s.msgsPerFrame > 1 {
		var fb []byte
		for i := 0; i < s.msgsPerFrame; i++ {
			fb = wire.AppendBatchEntry(fb, enc)
		}
		frame = fb
	}
	k := s.msgsPerFrame
	ct.batchAppend = nsPerCall(k, func() {
		buf = buf[:0]
		for i := 0; i < k; i++ {
			buf = wire.AppendBatchEntry(buf, enc)
		}
	})
	if k > 1 {
		ct.batchIter = nsPerCall(k, func() {
			it, _ := wire.IterBatch(frame)
			for {
				if _, ok, _ := it.Next(); !ok {
					break
				}
			}
		})
	} else {
		ct.batchIter = nsPerCall(1, func() { _ = wire.IsBatch(frame) })
	}
	ct.digest = nsPerCall(1, func() { _ = runtime.DigestEncoded(enc) })

	// channel and xcrypto: seal on one end of a link, open on the other,
	// with a plaintext as long as the workload's frames.
	plain := make([]byte, max(1, s.envelope-channelOverhead(wl)))
	rng.Read(plain)
	sealer := func() channel.Sealer {
		if wl.realCrypto {
			return channel.RealSealer{}
		}
		return channel.NewModelSealer()
	}
	out, err := channel.NewLink(e0, 1, e1.DHPublic(), sealer())
	if err != nil {
		return ct, err
	}
	in, err := channel.NewLink(e1, 0, e0.DHPublic(), sealer())
	if err != nil {
		return ct, err
	}
	sealed, err := out.SealEncodedAppend(nil, plain)
	if err != nil {
		return ct, err
	}
	if _, err := in.OpenRawAppend(nil, sealed); err != nil {
		return ct, fmt.Errorf("open: %w", err)
	}
	sbuf := make([]byte, 0, 2*len(sealed))
	ct.seal = nsPerCall(1, func() { sbuf, _ = out.SealEncodedAppend(sbuf[:0], plain) })
	ct.open = nsPerCall(1, func() { buf, _ = in.OpenRawAppend(buf[:0], sealed) })
	keys, err := e0.SessionKeys(e1.DHPublic())
	if err != nil {
		return ct, err
	}
	lc, err := xcrypto.NewLinkCipher(keys)
	if err != nil {
		return ct, err
	}
	xsealed, err := lc.SealAppend(nil, rng, plain)
	if err != nil {
		return ct, err
	}
	ct.xSeal = nsPerCall(1, func() { sbuf, _ = lc.SealAppend(sbuf[:0], rng, plain) })
	ct.xOpen = nsPerCall(1, func() { buf, _ = lc.OpenAppend(buf[:0], xsealed) })

	// vclock and simnet: one round's burst of deliveries, n(n-1) events
	// at random offsets within Δ, as a multicast round schedules them.
	burst := wl.n * (wl.n - 1)
	offsets := make([]time.Duration, burst)
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	sim := vclock.New()
	sim.SetHorizon(time.Second) // as simnet.New sets it for a cluster's Δ
	nop := func() {}
	ct.event = nsPerCall(burst, func() {
		now := sim.Now()
		for _, off := range offsets {
			sim.Schedule(now+off, nop)
		}
		_ = sim.Run()
	})
	nsim := vclock.New()
	net, err := simnet.New(nsim, simnet.Config{N: wl.n, Delta: time.Second, Seed: seed})
	if err != nil {
		return ct, err
	}
	for i := 0; i < wl.n; i++ {
		net.SetHandler(wire.NodeID(i), func(wire.NodeID, []byte) {})
	}
	payload := make([]byte, s.envelope)
	ct.sendDeliver = nsPerCall(burst, func() {
		for src := 0; src < wl.n; src++ {
			for dst := 0; dst < wl.n; dst++ {
				if src != dst {
					net.Send(wire.NodeID(src), wire.NodeID(dst), payload)
				}
			}
		}
		_ = nsim.Run()
	})

	// telemetry: span hop events, released as the benchmark's drain does.
	tr := telemetry.New(telemetry.Options{Spans: true})
	ct.record = nsPerCall(1024, func() {
		for i := 0; i < 1024; i++ {
			tr.RecordSpan(wire.NodeID(i%wl.n), 2, 0, telemetry.KindSeal, 1, 100, uint64(i))
		}
		tr.Release(tr.EventCount())
	})
	return ct, nil
}

// channelOverhead is the sealed-envelope overhead of the workload's
// sealer, in bytes.
func channelOverhead(wl workload) int {
	if wl.realCrypto {
		return channel.RealSealer{}.SealedSize(0)
	}
	return channel.NewModelSealer().SealedSize(0)
}

// traceBlocks is how many untraced/traced block pairs the traced run
// alternates through. Alternating keeps host drift, and the mux
// workload's per-call growth, out of trace.overhead_pct.
const traceBlocks = 10

// perLayer is the traced run. Two standing clusters, one untraced (the
// overhead baseline) and one with the metrics registry attached and the
// CPU profiler on, take turns in blocks. Per-call layer costs are then
// timed outside the program and multiplied by the exported call counts.
func perLayer(out io.Writer, wl workload, seed int64, dur time.Duration) ([]metric, tally, error) {
	ub, _, err := newBench(wl, seed, nil)
	if err != nil {
		return nil, tally{}, err
	}
	tr, err := newTraced(wl, seed)
	if err != nil {
		return nil, tally{}, err
	}
	var up phase
	up.warm(ub)
	tr.warm(tr.b)
	goruntime.GC()
	tr.startCounting()
	block := dur / (2 * traceBlocks)
	for i := 0; i < traceBlocks; i++ {
		up.measure(ub, block, 0)
		if err := tr.measureProfiled(block); err != nil {
			return nil, tally{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	tr.stopCounting()
	checks := tally{
		attempted: up.checks.attempted + tr.checks.attempted,
		failed:    up.checks.failed + tr.checks.failed,
		first:     up.checks.first,
	}
	if checks.first == nil {
		checks.first = tr.checks.first
	}
	c := tr.counts()
	ct, err := timeLayers(wl, trafficShape(c), seed)
	if err != nil {
		return nil, checks, fmt.Errorf("layer timings: %w", err)
	}
	shares, nSamples, err := profileShares(tr.profiles)
	if err != nil {
		return nil, checks, fmt.Errorf("cpu profile: %w", err)
	}

	ms := func(calls, ns float64) float64 { return calls * ns / 1e6 }
	var xBusy float64
	if wl.realCrypto {
		xBusy = ms(c.seals, ct.xSeal) + ms(c.opens, ct.xOpen)
	}
	// Self times: a channel seal includes the cipher, a simnet delivery
	// includes its vclock event.
	chBusy := max(0, ms(c.seals, ct.seal)+ms(c.opens, ct.open)-xBusy)
	wireBusy := ms(c.encodes, ct.encode) + ms(c.decodes, ct.decode) + ms(c.batchEntries, ct.batchAppend+ct.batchIter)
	digestBusy := ms(c.digests, ct.digest)
	vBusy := ms(c.events, ct.event)
	netBusy := ms(c.messages, max(0, ct.sendDeliver-ct.event))
	telBusy := ms(c.traceEvents, ct.record)
	cpuMs := tr.perOp(float64(tr.cpu.Nanoseconds()) / 1e6)
	busy := []struct {
		layer string
		ms    float64
	}{
		{"channel", chBusy}, {"xcrypto", xBusy}, {"wire", wireBusy}, {"runtime", digestBusy},
		{"vclock", vBusy}, {"simnet", netBusy}, {"telemetry", telBusy},
	}
	var timed float64
	for _, b := range busy {
		timed += b.ms
	}
	coverage := timed / cpuMs
	untracedRate := float64(up.ops()) / up.elapsed.Seconds()
	tracedRate := float64(tr.ops()) / tr.elapsed.Seconds()
	overhead := 100 * (untracedRate - tracedRate) / untracedRate

	var muxRounds, contributors float64
	if wl.kind == kindMux {
		muxRounds = c.rounds
	}
	if wl.kind == kindBeacon {
		contributors = median(tr.contrib)
	}
	var retained float64
	if tr.b.tracer != nil {
		retained = float64(len(tr.b.tracer.Events()))
	}
	n := float64(wl.n)
	res := []metric{
		{name: "channel.seals_per_op", value: c.seals, unit: "count"},
		{name: "channel.sealed_bytes_per_op", value: c.sealedBytes, unit: "bytes"},
		{name: "channel.seal_ns", value: ct.seal, unit: "ns"},
		{name: "channel.open_ns", value: ct.open, unit: "ns"},
		{name: "channel.busy_ms_per_op", value: chBusy, unit: "ms/op", note: "self time: seals and opens, less xcrypto"},
		{name: "channel.open_failures", value: c.openFailures, unit: "count", note: "run total"},
		{name: "xcrypto.seal_ns", value: ct.xSeal, unit: "ns"},
		{name: "xcrypto.open_ns", value: ct.xOpen, unit: "ns"},
		{name: "xcrypto.derive_us", value: ct.deriveUs, unit: "us", note: "X25519 + KDF, one pair"},
		{name: "xcrypto.busy_ms_per_op", value: xBusy, unit: "ms/op", note: "zero unless RealCrypto"},
		{name: "wire.encode_ns", value: ct.encode, unit: "ns"},
		{name: "wire.decode_ns", value: ct.decode, unit: "ns"},
		{name: "wire.batch_append_ns", value: ct.batchAppend, unit: "ns", note: "per entry"},
		{name: "wire.batch_iter_ns", value: ct.batchIter, unit: "ns", note: "per entry"},
		{name: "wire.busy_ms_per_op", value: wireBusy, unit: "ms/op"},
		{name: "runtime.envelopes_per_op", value: c.envelopes, unit: "count"},
		{name: "runtime.acks_per_op", value: c.acksSent, unit: "count", note: "logical ACKs"},
		{name: "runtime.delivered_per_op", value: c.delivered, unit: "count"},
		{name: "runtime.msgs_per_envelope", value: ratio(c.batchMsgs, c.batchFrames), unit: "count"},
		{name: "runtime.digest_ns", value: ct.digest, unit: "ns"},
		{name: "runtime.digest_ms_per_op", value: digestBusy, unit: "ms/op"},
		{name: "runtime.auth_failures", value: c.authFailures, unit: "count", note: "run total"},
		{name: "runtime.round_mismatches", value: c.roundMismatches, unit: "count", note: "run total"},
		{name: "runtime.send_failures", value: c.sendFailures, unit: "count", note: "run total"},
		{name: "runtime.halts", value: c.halts, unit: "count", note: "run total"},
		{name: "mux.spawned_per_op", value: c.spawned, unit: "count"},
		{name: "mux.unknown_drops_per_op", value: c.unknownDrops, unit: "count", note: "wasted deliveries"},
		{name: "mux.rounds_per_op", value: muxRounds, unit: "rounds", note: "grows with the call index, see NOTES.md"},
		{name: "vclock.rounds_per_op", value: c.rounds, unit: "rounds", note: "virtual time / 2Δ"},
		{name: "vclock.events_per_op", value: c.events, unit: "count"},
		{name: "vclock.event_ns", value: ct.event, unit: "ns"},
		{name: "vclock.busy_ms_per_op", value: vBusy, unit: "ms/op"},
		{name: "simnet.messages_per_op", value: c.messages, unit: "count"},
		{name: "simnet.send_deliver_ns", value: ct.sendDeliver, unit: "ns", note: "includes one vclock event"},
		{name: "simnet.busy_ms_per_op", value: netBusy, unit: "ms/op", note: "self time"},
		{name: "telemetry.events_per_op", value: c.traceEvents, unit: "count"},
		{name: "telemetry.record_ns", value: ct.record, unit: "ns"},
		{name: "telemetry.busy_ms_per_op", value: telBusy, unit: "ms/op"},
		{name: "telemetry.retained_events", value: retained, unit: "count", note: "after the last drain"},
		{name: "enclave.launch_us", value: ct.launchUs, unit: "us"},
		{name: "enclave.attest_us", value: ct.attestUs, unit: "us", note: "quote + verification"},
		{name: "enclave.session_keys_us", value: ct.sessionKeysUs, unit: "us", note: "uncached"},
		{name: "deploy.pairs", value: n * (n - 1) / 2, unit: "count", note: "session keys derived at set-up"},
		{name: "erb.accepts_per_op", value: c.accepts, unit: "count"},
		{name: "erb.bottoms_per_op", value: c.bottoms, unit: "count"},
		{name: "erng.contributors", value: contributors, unit: "count", note: "median per epoch"},
		{name: "go.gc_cpu_frac", value: ratio(tr.gcCPU, tr.cpu.Seconds()), unit: "fraction"},
		{name: "go.gc_cycles_per_op", value: tr.perOp(float64(tr.gcCycles)), unit: "count"},
	}
	for _, l := range shareLayers {
		res = append(res, metric{name: l + ".cpu_share", value: shares[l], unit: "fraction"})
	}
	res = append(res,
		metric{name: "trace.coverage", value: coverage, unit: "fraction", note: "timed busy / cpu_ms_per_op"},
		metric{name: "trace.overhead_pct", value: overhead, unit: "%", note: fmt.Sprintf("%.4g vs %.4g ops/s untraced", tracedRate, untracedRate)},
	)

	fmt.Fprintf(out, "layer accounting (%s, %d traced ops, cpu %.4g ms/op, %d profile samples):\n", wl.name, tr.ops(), cpuMs, nSamples)
	fmt.Fprintf(out, "  %-10s %14s %10s\n", "layer", "busy_ms/op", "cpu_share")
	for _, b := range busy {
		fmt.Fprintf(out, "  %-10s %14.4f %9.1f%%\n", b.layer, b.ms, 100*shares[b.layer])
	}
	for _, l := range []string{"enclave", "erb", "erng", "go", "bench", "other"} {
		fmt.Fprintf(out, "  %-10s %14s %9.1f%%\n", l, "-", 100*shares[l])
	}
	fmt.Fprintf(out, "  trace.coverage %.3f  trace.overhead_pct %.2f\n", coverage, overhead)
	return res, checks, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
