package channel

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// pairedEnclaves launches two enclaves running the test program, for
// benchmarks that build links directly.
func pairedEnclaves(tb testing.TB) [2]*enclave.Enclave {
	tb.Helper()
	clock := &fakeClock{}
	a, err := enclave.Launch(program, 0, rand.New(rand.NewSource(1)), clock)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := enclave.Launch(program, 1, rand.New(rand.NewSource(2)), clock)
	if err != nil {
		tb.Fatal(err)
	}
	return [2]*enclave.Enclave{a, b}
}

// TestSealEncodedAppendByteIdentical pins the append contract: sealing
// into a reused scratch, or after a prefix, appends exactly the envelope
// sealing into a nil dst produces for the same sealer state, and leaves
// the prefix intact. The ModelSealer is stateful (a counter), so each
// path gets a link over a fresh sealer; the RealSealer draws a random
// nonce, so its byte-identity is pinned at the xcrypto layer with a
// seeded rng (TestLinkCipherSealByteIdentical).
func TestSealEncodedAppendByteIdentical(t *testing.T) {
	model := func() Sealer { return NewModelSealer() }
	viaNil, _ := pairedLinks(t, model)
	viaScratch, _ := pairedLinks(t, model)
	viaPrefix, _ := pairedLinks(t, model)
	prefix := []byte("prefix")
	var dst []byte
	for i := 0; i < 5; i++ {
		msg := testMsg(0)
		msg.Seq = uint64(i)
		enc, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := viaNil.SealEncodedAppend(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		if dst, err = viaScratch.SealEncodedAppend(dst[:0], enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, dst) {
			t.Fatalf("msg %d: sealing into a reused scratch differs from a nil dst", i)
		}
		got, err := viaPrefix.SealEncodedAppend(append([]byte(nil), prefix...), enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("msg %d: sealing after a prefix differs from a nil dst", i)
		}
	}
}

// TestOpenEncodedAppendRoundTrip drives the hot path for both sealers:
// seal into a reused envelope buffer, open into a reused scratch, and
// check the decoded message and the recovered encoding. A truncated
// envelope is rejected and leaves dst untouched. (The sender check the
// receive path applies to each decoded message is the runtime's, pinned
// by its TestSenderBindingEnforced.)
func TestOpenEncodedAppendRoundTrip(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			var env, scratch []byte
			for i := 0; i < 4; i++ {
				msg := testMsg(0)
				msg.Seq = uint64(i)
				enc, err := msg.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if env, err = la.SealEncodedAppend(env[:0], enc); err != nil {
					t.Fatal(err)
				}
				if scratch, err = lb.OpenRawAppend(scratch[:0], env); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(scratch, enc) {
					t.Fatal("opened plaintext differs from the sealed encoding")
				}
				got, err := wire.Decode(scratch)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != msg.String() || got.Value != msg.Value {
					t.Fatalf("round trip mismatch: %v vs %v", got, msg)
				}
			}
			dst := []byte("keep")
			if out, err := lb.OpenRawAppend(dst, env[:10]); err == nil || out != nil || string(dst) != "keep" {
				t.Fatalf("truncated envelope: out=%q err=%v dst=%q", out, err, dst)
			}
		})
	}
}

// TestModelSealerCounterSharedAcrossLinks pins where the model envelope
// counter lives: on the shared *ModelSealer, not on the link. Seals
// interleaved across two links prepared from one sealer are numbered in
// seal order, as every peer's envelope stream is.
func TestModelSealerCounterSharedAcrossLinks(t *testing.T) {
	encl := pairedEnclaves(t)
	third := launch(t, 2, 3, program)
	shared := NewModelSealer()
	toB, err := NewLink(encl[0], 1, encl[1].DHPublic(), shared)
	if err != nil {
		t.Fatal(err)
	}
	toC, err := NewLink(encl[0], 2, third.DHPublic(), shared)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("counter check")
	for i := 1; i <= 6; i++ {
		l := toB
		if i%2 == 0 {
			l = toC
		}
		env, err := l.SealEncodedAppend(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := FrameTag(env); got != uint64(i) {
			t.Fatalf("seal %d carries counter %d", i, got)
		}
	}
}

// TestLinkHotPathShape pins the shape of the per-envelope path for both
// sealers: a Link fits one 64-byte cache line, and a warm seal plus open
// (metric counters attached, as in the runtime) allocates nothing.
func TestLinkHotPathShape(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size > 64 {
		t.Fatalf("Link is %d bytes, want at most one 64-byte cache line", size)
	}
	enc, err := testMsg(0).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			ctr := NewCounters(telemetry.NewMetrics())
			la.SetCounters(ctr)
			lb.SetCounters(ctr)
			var env, plain []byte
			roundTrip := func() {
				if env, err = la.SealEncodedAppend(env[:0], enc); err != nil {
					t.Fatal(err)
				}
				if plain, err = lb.OpenRawAppend(plain[:0], env); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: the buffers grow once and the reused HMAC caches
			// its marshaled pad states on first use.
			for i := 0; i < 3; i++ {
				roundTrip()
			}
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
				t.Fatalf("warm seal+open allocated %.1f times per op, want 0", allocs)
			}
			if !bytes.Equal(plain, enc) {
				t.Fatal("opened plaintext differs from the sealed encoding")
			}
		})
	}
}
