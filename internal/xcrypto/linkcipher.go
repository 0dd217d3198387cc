// Prepared per-link cipher state for the channel hot path.
//
// The one-shot Seal/Open functions, the reference construction the
// prepared path is tested against, rebuild the AES-256 key schedule and
// the HMAC-SHA256 inner/outer pads from the raw session keys on every
// envelope. Those derivations are pure functions of the (immutable) link
// keys, so a LinkCipher computes them once at link establishment and
// every subsequent SealAppend/OpenAppend reuses them, appending into
// caller-provided buffers instead of allocating fresh ones. With a warm
// destination buffer the steady-state seal and open paths allocate
// nothing.
package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
)

// LinkCipher is the prepared cipher state of one secure link: the AES-256
// block (expanded key schedule) and a reusable HMAC-SHA256 instance whose
// key pads were absorbed once at construction. Envelopes it produces and
// accepts are byte-identical to the one-shot Seal/Open under the same
// keys and nonce stream (pinned by the package equivalence tests).
//
// A LinkCipher is NOT safe for concurrent use: the HMAC state and the CTR
// scratch blocks are reused across calls. Each link owns one instance and
// the peer runtime serializes all sends and receives on its event loop.
type LinkCipher struct {
	block cipher.Block
	mac   hash.Hash
	// ctr and ks are the CTR-mode counter and keystream scratch blocks.
	// They live in the struct (not the stack) so the interface call to
	// block.Encrypt cannot force a per-envelope heap allocation.
	ctr [NonceSize]byte
	ks  [NonceSize]byte
	// sum receives the computed tag during OpenAppend verification.
	sum [MACSize]byte
}

// NewLinkCipher prepares per-link cipher state from the session keys:
// the AES key expansion and the HMAC pad absorption happen here, once.
func NewLinkCipher(keys SessionKeys) (*LinkCipher, error) {
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: aes: %w", err)
	}
	return &LinkCipher{block: block, mac: hmac.New(sha256.New, keys.Mac[:])}, nil
}

// SealAppend encrypts and authenticates plaintext exactly like Seal but
// appends the envelope to dst and returns the extended slice. Pass a
// slice with spare capacity to seal without allocating; pass nil to get
// a fresh, exactly-sized envelope. rng nil means crypto/rand.
func (c *LinkCipher) SealAppend(dst []byte, rng io.Reader, plaintext []byte) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	start := len(dst)
	dst = appendGrow(dst, SealedSize(len(plaintext)))
	body := dst[start : start+NonceSize+len(plaintext)]
	if _, err := io.ReadFull(rng, body[:NonceSize]); err != nil {
		return nil, fmt.Errorf("xcrypto: nonce: %w", err)
	}
	c.ctrXOR(body[:NonceSize], body[NonceSize:], plaintext)
	c.mac.Reset()
	c.mac.Write(body)
	c.mac.Sum(body) // appends the tag in place: dst has the capacity
	return dst, nil
}

// OpenAppend verifies sealed exactly like Open but appends the recovered
// plaintext to dst and returns the extended slice. dst is untouched when
// verification fails.
func (c *LinkCipher) OpenAppend(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < NonceSize+MACSize {
		return nil, ErrShortCiphertext
	}
	body := sealed[:len(sealed)-MACSize]
	tag := sealed[len(sealed)-MACSize:]
	c.mac.Reset()
	c.mac.Write(body)
	if !hmac.Equal(c.mac.Sum(c.sum[:0]), tag) {
		return nil, ErrAuthFailed
	}
	start := len(dst)
	dst = appendGrow(dst, len(body)-NonceSize)
	c.ctrXOR(body[:NonceSize], dst[start:], body[NonceSize:])
	return dst, nil
}

// ctrXOR applies AES-CTR over src into dst with the same semantics as
// crypto/cipher.NewCTR: the full 16-byte IV is the initial counter,
// incremented big-endian per block (pinned byte-identical by
// TestCTRXORMatchesStdlib). Using the struct's scratch blocks keeps the
// per-envelope path free of heap allocations.
func (c *LinkCipher) ctrXOR(iv, dst, src []byte) {
	copy(c.ctr[:], iv)
	for len(src) > 0 {
		c.block.Encrypt(c.ks[:], c.ctr[:])
		n := len(src)
		if n > len(c.ks) {
			n = len(c.ks)
		}
		for i := 0; i < n; i++ {
			dst[i] = src[i] ^ c.ks[i]
		}
		src, dst = src[n:], dst[n:]
		for i := len(c.ctr) - 1; i >= 0; i-- {
			c.ctr[i]++
			if c.ctr[i] != 0 {
				break
			}
		}
	}
}

// appendGrow extends dst by n bytes, reallocating to exactly len(dst)+n
// when the capacity is short, and returns the extended slice. The new
// bytes are stale when capacity was reused, so callers must overwrite
// every byte of the extension.
func appendGrow(dst []byte, n int) []byte {
	if total := len(dst) + n; total <= cap(dst) {
		return dst[:total]
	}
	grown := make([]byte, len(dst)+n)
	copy(grown, dst)
	return grown
}
