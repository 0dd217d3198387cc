package xcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"
)

// testKeys derives a deterministic key pair for cipher tests.
func testKeys(seed byte) SessionKeys {
	var keys SessionKeys
	for i := range keys.Enc {
		keys.Enc[i] = seed + byte(i)
		keys.Mac[i] = seed ^ byte(i*3+1)
	}
	return keys
}

// TestLinkCipherSealByteIdentical pins the tentpole equivalence: under
// the same keys and the same nonce stream, LinkCipher.SealAppend emits
// exactly the bytes the one-shot Seal does (which uses the stdlib
// crypto/cipher CTR implementation, so this also pins the manual CTR).
func TestLinkCipherSealByteIdentical(t *testing.T) {
	keys := testKeys(7)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	// Plaintext lengths spanning zero, partial, exact and multi-block.
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 100, 257, 1024} {
		plaintext := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(plaintext)
		// Identical nonce streams for the two paths.
		rngA := rand.New(rand.NewSource(99))
		rngB := rand.New(rand.NewSource(99))
		want, err := Seal(keys, rngA, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lc.SealAppend(nil, rngB, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("len %d: SealAppend differs from Seal", n)
		}
		// Both one-shot Open and prepared OpenAppend accept the result.
		viaOpen, err := Open(keys, got)
		if err != nil {
			t.Fatal(err)
		}
		viaAppend, err := lc.OpenAppend(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaOpen, plaintext) || !bytes.Equal(viaAppend, plaintext) {
			t.Fatalf("len %d: recovered plaintext differs", n)
		}
	}
}

// TestLinkCipherAppendsToPrefix checks the append contract: existing dst
// content is preserved and the envelope/plaintext lands after it.
func TestLinkCipherAppendsToPrefix(t *testing.T) {
	keys := testKeys(3)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	plaintext := []byte("the payload")
	out, err := lc.SealAppend(append([]byte(nil), prefix...), rand.New(rand.NewSource(5)), plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("SealAppend clobbered the dst prefix")
	}
	env := out[len(prefix):]
	if len(env) != SealedSize(len(plaintext)) {
		t.Fatalf("envelope size %d, want %d", len(env), SealedSize(len(plaintext)))
	}
	opened, err := lc.OpenAppend(append([]byte(nil), prefix...), env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(opened, prefix) || !bytes.Equal(opened[len(prefix):], plaintext) {
		t.Fatalf("OpenAppend result %q", opened)
	}
}

// TestLinkCipherOpenRejects mirrors Open's rejections: short input, and
// any single flipped bit across the whole envelope. dst must stay
// untouched on failure.
func TestLinkCipherOpenRejects(t *testing.T) {
	keys := testKeys(11)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	env, err := lc.SealAppend(nil, rand.New(rand.NewSource(1)), []byte("guarded"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.OpenAppend(nil, env[:NonceSize+MACSize-1]); err != ErrShortCiphertext {
		t.Fatalf("short input: got %v", err)
	}
	for i := range env {
		bad := append([]byte(nil), env...)
		bad[i] ^= 0x20
		dst := []byte("keep")
		out, err := lc.OpenAppend(dst, bad)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if out != nil || string(dst) != "keep" {
			t.Fatalf("flip at byte %d mutated dst", i)
		}
	}
}

// TestCTRXORMatchesStdlib drives the manual CTR directly against
// crypto/cipher.NewCTR over many lengths and IVs, including IVs that
// overflow the low counter bytes mid-message.
func TestCTRXORMatchesStdlib(t *testing.T) {
	keys := testKeys(42)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 64; trial++ {
		iv := make([]byte, NonceSize)
		rng.Read(iv)
		if trial%4 == 0 {
			// Force carry propagation through the counter tail.
			for i := NonceSize / 2; i < NonceSize; i++ {
				iv[i] = 0xFF
			}
		}
		src := make([]byte, rng.Intn(200))
		rng.Read(src)
		want := make([]byte, len(src))
		cipher.NewCTR(block, iv).XORKeyStream(want, src)
		got := make([]byte, len(src))
		lc.ctrXOR(iv, got, src)
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d (len %d): ctrXOR diverges from crypto/cipher CTR", trial, len(src))
		}
	}
}

// TestLinkCipherSteadyStateAllocs pins the zero-allocation property of
// the warm hot path: sealing into a buffer with capacity and opening
// into a warm scratch must not allocate.
func TestLinkCipherSteadyStateAllocs(t *testing.T) {
	keys := testKeys(63)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	plaintext := make([]byte, 100)
	env := make([]byte, 0, SealedSize(len(plaintext)))
	scratch := make([]byte, 0, len(plaintext))
	// Warm up: the reused HMAC caches its marshaled pad states on first
	// use, and the rng warms its own internals.
	for i := 0; i < 3; i++ {
		if env, err = lc.SealAppend(env[:0], rng, plaintext); err != nil {
			t.Fatal(err)
		}
		if scratch, err = lc.OpenAppend(scratch[:0], env); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		env, err = lc.SealAppend(env[:0], rng, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = lc.OpenAppend(scratch[:0], env)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm seal+open allocated %.1f times per op, want 0", allocs)
	}
}
