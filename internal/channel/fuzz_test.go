package channel

import (
	"bytes"
	"testing"

	"sgxp2p/internal/xcrypto"
)

// fuzzKeys is the fixed session-key pair the sealer fuzzers run under.
func fuzzKeys() xcrypto.SessionKeys {
	var keys xcrypto.SessionKeys
	for i := range keys.Enc {
		keys.Enc[i] = byte(i + 1)
		keys.Mac[i] = byte(0xA5 ^ i)
	}
	return keys
}

// fuzzSealerOpen feeds arbitrary bytes to a link's OpenRawAppend: it may
// not panic, a rejected input must leave dst untouched, and an accepted
// one must append exactly the envelope's body to dst and agree with the
// sealer's reference opening. The Theorem A.2 reduction (byzantine =>
// omission) depends on corrupt envelopes being *rejected*, never crashing
// the enclave runtime.
func fuzzSealerOpen(f *testing.F, mk func() Sealer, seeds ...[]byte) {
	e := pairedEnclaves(f)
	la, err := NewLink(e[0], 1, e[1].DHPublic(), mk())
	if err != nil {
		f.Fatal(err)
	}
	lb, err := NewLink(e[1], 0, e[0].DHPublic(), mk())
	if err != nil {
		f.Fatal(err)
	}
	keys, err := e[1].SessionKeys(e[0].DHPublic())
	if err != nil {
		f.Fatal(err)
	}
	for _, plaintext := range seeds {
		env, err := la.SealEncodedAppend(nil, plaintext)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
	}
	valid, err := la.SealEncodedAppend(nil, []byte("fuzz seed payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated tag
	f.Add(valid[:15])           // shorter than any header
	f.Add([]byte{})             // empty
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)                        // bit-flipped body
	f.Add(bytes.Repeat([]byte{0xFF}, 48)) // minimum-size garbage
	_, real := mk().(RealSealer)
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := []byte("keep")
		out, err := lb.OpenRawAppend(dst, data)
		if err != nil {
			if out != nil || string(dst) != "keep" {
				t.Fatalf("rejected open returned %q and left dst %q", out, dst)
			}
		} else if len(out) != len(dst)+len(data)-envelopeOverhead || string(out[:len(dst)]) != "keep" {
			t.Fatalf("accepted open appended %d bytes after %q, want %d", len(out)-len(dst), out[:len(dst)], len(data)-envelopeOverhead)
		}
		// The reference: the one-shot xcrypto.Open under the link's keys
		// for a real link; for a model link, the plaintext the envelope
		// carries in the clear.
		if real {
			want, werr := xcrypto.Open(keys, data)
			if (err == nil) != (werr == nil) {
				t.Fatalf("link open err=%v but xcrypto.Open err=%v", err, werr)
			}
			if err == nil && !bytes.Equal(out[len(dst):], want) {
				t.Fatal("link open and xcrypto.Open recovered different plaintexts")
			}
		} else if err == nil && !bytes.Equal(out[len(dst):], data[modelHeader:len(data)-modelTag]) {
			t.Fatal("model open recovered bytes other than the envelope body")
		}
	})
}

// FuzzRealSealerOpen fuzzes the AES-CTR + HMAC-SHA256 open path on
// truncated, bit-flipped and arbitrary envelopes.
func FuzzRealSealerOpen(f *testing.F) {
	fuzzSealerOpen(f, func() Sealer { return RealSealer{} })
}

// FuzzModelSealerOpen fuzzes the simulation-mode open path the same way,
// with a sealed ~2 KB batch frame among the seeds so mutations reach the
// checksum's four-lane block loop.
func FuzzModelSealerOpen(f *testing.F) {
	fuzzSealerOpen(f, func() Sealer { return NewModelSealer() }, testBatchFrame(f))
}

// FuzzLinkCipherOpen fuzzes the prepared-cipher open path used by
// RealSealer links, cross-checking it against the one-shot xcrypto.Open.
func FuzzLinkCipherOpen(f *testing.F) {
	keys := fuzzKeys()
	lc, err := xcrypto.NewLinkCipher(keys)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := xcrypto.Seal(keys, nil, []byte("prepared seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:xcrypto.NonceSize])
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0x80
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		viaOneShot, errOneShot := xcrypto.Open(keys, data)
		viaPrepared, errPrepared := lc.OpenAppend(nil, data)
		if (errOneShot == nil) != (errPrepared == nil) {
			t.Fatalf("Open err=%v but LinkCipher.OpenAppend err=%v", errOneShot, errPrepared)
		}
		if errOneShot == nil && !bytes.Equal(viaOneShot, viaPrepared) {
			t.Fatal("one-shot and prepared opens recovered different plaintexts")
		}
	})
}
