package channel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

var program = []byte("erb-v1")

func launch(t *testing.T, id wire.NodeID, seed int64, prog []byte) *enclave.Enclave {
	t.Helper()
	e, err := enclave.Launch(prog, id, rand.New(rand.NewSource(seed)), &fakeClock{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return e
}

func pairedLinks(t *testing.T, sealer func() Sealer) (*Link, *Link) {
	t.Helper()
	a := launch(t, 0, 1, program)
	b := launch(t, 1, 2, program)
	la, err := NewLink(a, 1, b.DHPublic(), sealer())
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewLink(b, 0, a.DHPublic(), sealer())
	if err != nil {
		t.Fatal(err)
	}
	return la, lb
}

func testMsg(sender wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeInit, Sender: sender, Initiator: sender,
		Seq: 7, Round: 1, HasValue: true, Value: wire.Value{0xAA},
	}
}

// seal encodes msg and seals it on l into a fresh envelope.
func seal(tb testing.TB, l *Link, msg *wire.Message) []byte {
	tb.Helper()
	enc, err := msg.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	env, err := l.SealEncodedAppend(nil, enc)
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// open verifies env on l and decodes its plaintext, the runtime's own
// receive sequence short of the sender check.
func open(l *Link, env []byte) (*wire.Message, error) {
	plaintext, err := l.OpenRawAppend(nil, env)
	if err != nil {
		return nil, err
	}
	return wire.Decode(plaintext)
}

// sealers lists both Sealer implementations; every behavioural test runs
// against both to prove protocol-equivalence of the model.
var sealers = []struct {
	name string
	mk   func() Sealer
}{
	{name: "real", mk: func() Sealer { return RealSealer{} }},
	{name: "model", mk: func() Sealer { return NewModelSealer() }},
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			msg := testMsg(0)
			env := seal(t, la, msg)
			if want := s.mk().SealedSize(msg.EncodedSize()); len(env) != want {
				t.Fatalf("envelope size %d, want %d", len(env), want)
			}
			got, err := open(lb, env)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != msg.String() || got.Value != msg.Value {
				t.Fatalf("round trip mismatch: %v vs %v", got, msg)
			}
		})
	}
}

func TestEnvelopeSizesIdenticalAcrossSealers(t *testing.T) {
	// The traffic experiments rely on ModelSealer producing byte-identical
	// sizes to RealSealer.
	msg := testMsg(0)
	n := msg.EncodedSize()
	real, model := RealSealer{}.SealedSize(n), NewModelSealer().SealedSize(n)
	if real != model {
		t.Fatalf("sealed sizes differ: real=%d model=%d", real, model)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			env := seal(t, la, testMsg(0))
			for _, i := range []int{0, len(env) / 2, len(env) - 1} {
				bad := append([]byte(nil), env...)
				bad[i] ^= 0x40
				if _, err := lb.OpenRawAppend(nil, bad); err != ErrAuth {
					t.Fatalf("corruption at byte %d: got %v, want ErrAuth", i, err)
				}
			}
		})
	}
}

func TestOpenRejectsCrossPairEnvelope(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			a := launch(t, 0, 1, program)
			b := launch(t, 1, 2, program)
			c := launch(t, 2, 3, program)
			lab, err := NewLink(a, 1, b.DHPublic(), s.mk())
			if err != nil {
				t.Fatal(err)
			}
			// b's link towards c must reject an envelope a sealed for b.
			lbc, err := NewLink(b, 2, c.DHPublic(), s.mk())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lbc.OpenRawAppend(nil, seal(t, lab, testMsg(0))); err == nil {
				t.Fatal("cross-pair envelope accepted")
			}
		})
	}
}

func TestOpenRejectsWrongProgram(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			honest := launch(t, 0, 1, program)
			evil := launch(t, 1, 2, []byte("erb-v1-BACKDOORED"))
			lEvil, err := NewLink(evil, 0, honest.DHPublic(), s.mk())
			if err != nil {
				t.Fatal(err)
			}
			lHonest, err := NewLink(honest, 1, evil.DHPublic(), s.mk())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lHonest.OpenRawAppend(nil, seal(t, lEvil, testMsg(1))); err == nil {
				t.Fatal("envelope from modified program accepted (violates P1)")
			}
		})
	}
}

func TestReplayedEnvelopeStillOpens(t *testing.T) {
	// The channel itself does not dedupe: replay defence (P6) lives in the
	// protocol's sequence/round checks. A byte-identical replay must open
	// to a byte-identical message, which the protocol then rejects by seq.
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			env := seal(t, la, testMsg(0))
			m1, err := open(lb, env)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := open(lb, append([]byte(nil), env...))
			if err != nil {
				t.Fatal(err)
			}
			if m1.Seq != m2.Seq || m1.Round != m2.Round {
				t.Fatal("replay should decode identically; protocol rejects it by seq")
			}
		})
	}
}

func TestNewLinkHaltedEnclave(t *testing.T) {
	a := launch(t, 0, 1, program)
	b := launch(t, 1, 2, program)
	a.Halt()
	if _, err := NewLink(a, 1, b.DHPublic(), RealSealer{}); err == nil {
		t.Fatal("link from halted enclave established")
	}
}

func TestNewLinkNilSealer(t *testing.T) {
	a := launch(t, 0, 1, program)
	b := launch(t, 1, 2, program)
	if _, err := NewLink(a, 1, b.DHPublic(), nil); err == nil {
		t.Fatal("nil sealer accepted")
	}
}

// Property: for random messages and random single-byte corruptions, the two
// sealers agree on accept/reject (protocol equivalence of the model).
func TestQuickSealerEquivalence(t *testing.T) {
	laReal, lbReal := pairedLinks(t, func() Sealer { return RealSealer{} })
	laModel, lbModel := pairedLinks(t, func() Sealer { return NewModelSealer() })
	f := func(val wire.Value, seq uint64, round uint32, corrupt bool, pos uint16) bool {
		msg := &wire.Message{
			Type: wire.TypeEcho, Sender: 0, Initiator: 0,
			Seq: seq, Round: round, HasValue: true, Value: val,
		}
		envR, envM := seal(t, laReal, msg), seal(t, laModel, msg)
		if len(envR) != len(envM) {
			return false
		}
		if corrupt {
			i := int(pos) % len(envR)
			envR[i] ^= 0x10
			envM[i] ^= 0x10
		}
		_, errR := lbReal.OpenRawAppend(nil, envR)
		_, errM := lbModel.OpenRawAppend(nil, envM)
		return (errR == nil) == (errM == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchSealOpen seals plaintext and opens the envelope over one link
// pair per op, with warm envelope and plaintext buffers: the per-hop unit
// of work of the runtime's send and receive paths.
func benchSealOpen(b *testing.B, sealer func() Sealer, plaintext []byte) {
	e := pairedEnclaves(b)
	la, err := NewLink(e[0], 1, e[1].DHPublic(), sealer())
	if err != nil {
		b.Fatal(err)
	}
	lb, err := NewLink(e[1], 0, e[0].DHPublic(), sealer())
	if err != nil {
		b.Fatal(err)
	}
	var env, plain []byte
	b.SetBytes(int64(len(plaintext)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env, err = la.SealEncodedAppend(env[:0], plaintext); err != nil {
			b.Fatal(err)
		}
		if plain, err = lb.OpenRawAppend(plain[:0], env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelSealOpen(b *testing.B) {
	enc, err := testMsg(0).Encode()
	if err != nil {
		b.Fatal(err)
	}
	benchSealOpen(b, func() Sealer { return NewModelSealer() }, enc)
}

// BenchmarkModelSealOpenBatch seals and opens a ~2 KB batch frame (the
// multiplexed runtime's frame shape) over a model-sealer link pair.
func BenchmarkModelSealOpenBatch(b *testing.B) {
	benchSealOpen(b, func() Sealer { return NewModelSealer() }, testBatchFrame(b))
}

func BenchmarkRealSealOpen(b *testing.B) {
	enc, err := testMsg(0).Encode()
	if err != nil {
		b.Fatal(err)
	}
	benchSealOpen(b, func() Sealer { return RealSealer{} }, enc)
}
