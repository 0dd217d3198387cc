package deploy_test

import (
	"encoding/binary"
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// Golden FNV-1a fingerprints over every (src, dst, envelope) triple a
// seeded deployment emits, in send order. With batching disabled the
// runtime must keep producing exactly these envelope streams: same
// frames, same bytes, same order. The full-envelope hashes include the
// model sealer's 32-byte tag, so they move whenever the model checksum
// does; the untagged hashes cover the 16-byte header and the plaintext
// only, so a checksum change must leave them as they are — re-pin the
// full hashes only while the untagged ones still pass.
const (
	goldenERBWireHash  uint64 = 0x51dba6bea8621da9
	goldenERNGWireHash uint64 = 0xc62b9a1063e4a75d

	goldenERBUntaggedHash  uint64 = 0x38d337e9a87529d1
	goldenERNGUntaggedHash uint64 = 0xbad02bf9435bff15
)

// envelopeTagSize is the sealed envelope's trailing authentication tag
// (the model sealer's four checksum copies, the real sealer's HMAC).
const envelopeTagSize = 32

// wireHasher is a TransportWrapper hook folding every outbound envelope
// into two shared FNV-1a hashes: full covers whole envelopes, untagged
// the envelopes minus their tag. The simulation is single-threaded, so
// send order (and therefore the fold order) is deterministic for a seed.
type wireHasher struct {
	full, untagged uint64
}

func newWireHasher() *wireHasher {
	return &wireHasher{full: fnvOffset, untagged: fnvOffset}
}

const fnvOffset = 14695981039346656037

func fnvFold(h uint64, data []byte) uint64 {
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// foldTriple folds (src, dst, len(payload), payload) into h, the ids and
// length as little-endian uint32s.
func foldTriple(h uint64, src, dst wire.NodeID, payload []byte) uint64 {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(src))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(dst))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	return fnvFold(fnvFold(h, hdr[:]), payload)
}

func (w *wireHasher) record(src, dst wire.NodeID, payload []byte) {
	w.full = foldTriple(w.full, src, dst, payload)
	w.untagged = foldTriple(w.untagged, src, dst, payload[:len(payload)-envelopeTagSize])
}

// Wrap returns the deploy.TransportWrapper installing the recorder.
func (w *wireHasher) Wrap(id wire.NodeID, tr runtime.Transport) runtime.Transport {
	return &hashingTransport{Transport: tr, id: id, rec: w}
}

type hashingTransport struct {
	runtime.Transport
	id  wire.NodeID
	rec *wireHasher
}

func (t *hashingTransport) Send(dst wire.NodeID, payload []byte) {
	t.rec.record(t.id, dst, payload)
	t.Transport.Send(dst, payload)
}

// runGoldenERB replays the reference ERB scenario: N=5, T=2, seed 1,
// initiator 0 broadcasting a fixed value, full round budget.
func runGoldenERB(t *testing.T, opts deploy.Options) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.N, opts.T, opts.Seed = 5, 2, 1
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*erb.Engine, len(d.Peers))
	for i, p := range d.Peers {
		eng, eerr := erb.NewEngine(p, erb.Config{T: 2, ExpectedInitiators: []wire.NodeID{0}})
		if eerr != nil {
			t.Fatal(eerr)
		}
		engines[i] = eng
	}
	engines[0].SetInput(wire.Value{0xAB, 0xCD, 0xEF})
	for i, p := range d.Peers {
		p.Start(engines[i], engines[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		if res, ok := eng.Result(0); !ok || !res.Accepted {
			t.Fatalf("node %d did not accept the golden broadcast", i)
		}
	}
	return rec
}

// runGoldenERNG replays the reference basic-ERNG scenario: N=5, T=2,
// seed 3 (all five nodes initiate concurrently — the batching-heavy
// traffic shape).
func runGoldenERNG(t *testing.T, opts deploy.Options) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.N, opts.T, opts.Seed = 5, 2, 3
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*erng.Basic, len(d.Peers))
	rounds := 0
	for i, p := range d.Peers {
		proto, perr := erng.NewBasic(p, 2)
		if perr != nil {
			t.Fatal(perr)
		}
		protos[i] = proto
		rounds = proto.Rounds()
	}
	for i, p := range d.Peers {
		p.Start(protos[i], rounds)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, proto := range protos {
		if res, ok := proto.Result(); !ok || !res.OK {
			t.Fatalf("node %d produced no ERNG output", i)
		}
	}
	return rec
}

// TestUnbatchedWireStreamGolden pins the batching-disabled wire stream,
// byte for byte.
func TestUnbatchedWireStreamGolden(t *testing.T) {
	opts := deploy.Options{DisableBatching: true}
	if got := runGoldenERB(t, opts).full; got != goldenERBWireHash {
		t.Errorf("ERB unbatched wire hash %#x, want %#x (unbatched envelope stream drifted)", got, goldenERBWireHash)
	}
	if got := runGoldenERNG(t, opts).full; got != goldenERNGWireHash {
		t.Errorf("ERNG unbatched wire hash %#x, want %#x (unbatched envelope stream drifted)", got, goldenERNGWireHash)
	}
}

// TestUnbatchedUntaggedStreamGolden pins the same streams with every
// envelope's tag cut off: the headers (envelope counters) and plaintexts
// the receivers open, in send order, independent of the model checksum.
func TestUnbatchedUntaggedStreamGolden(t *testing.T) {
	opts := deploy.Options{DisableBatching: true}
	if got := runGoldenERB(t, opts).untagged; got != goldenERBUntaggedHash {
		t.Errorf("ERB untagged stream hash %#x, want %#x (header or plaintext stream drifted)", got, goldenERBUntaggedHash)
	}
	if got := runGoldenERNG(t, opts).untagged; got != goldenERNGUntaggedHash {
		t.Errorf("ERNG untagged stream hash %#x, want %#x (header or plaintext stream drifted)", got, goldenERNGUntaggedHash)
	}
}
