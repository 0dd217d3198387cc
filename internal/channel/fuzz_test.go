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

// fuzzSealerOpen feeds arbitrary bytes to a sealer's Open and OpenAppend:
// neither may panic, both must agree on accept/reject and plaintext, and
// any accepted input must re-seal to the same size class. The Theorem A.2
// reduction (byzantine => omission) depends on corrupt envelopes being
// *rejected*, never crashing the enclave runtime.
func fuzzSealerOpen(f *testing.F, mk func() Sealer) {
	keys := fuzzKeys()
	seedSealer := mk()
	valid, err := seedSealer.Seal(keys, []byte("fuzz seed payload"))
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
	sealer := mk()
	f.Fuzz(func(t *testing.T, data []byte) {
		viaOpen, errOpen := sealer.Open(keys, data)
		viaAppend, errAppend := sealer.OpenAppend(keys, nil, data)
		if (errOpen == nil) != (errAppend == nil) {
			t.Fatalf("Open err=%v but OpenAppend err=%v", errOpen, errAppend)
		}
		if errOpen == nil && !bytes.Equal(viaOpen, viaAppend) {
			t.Fatal("Open and OpenAppend recovered different plaintexts")
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
	frame, err := NewModelSealer().Seal(fuzzKeys(), testBatchFrame(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	fuzzSealerOpen(f, func() Sealer { return NewModelSealer() })
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
