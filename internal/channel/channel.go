// Package channel implements the paper's Blinded Peer channel
// (Appendix A, Figure 4): the secure pairwise channel between two enclaves
// that yields properties P2 (message integrity & authenticity) and P3
// (blind-box computation), and — together with the enclave's
// measurement-bound key derivation — the program-binding half of P1.
//
// A Link corresponds to one (sender, receiver) enclave pair after the
// setup phase: built from the directional session keys derived from the
// Diffie-Hellman exchange, it turns encoded wire messages into sealed
// envelopes and back. Everything that crosses the trust boundary to the
// untrusted OS is a sealed envelope: the adversary can drop, hold,
// duplicate or corrupt envelopes but cannot read or forge them, which is
// exactly the reduction of Theorem A.2 (byzantine => replay/omit/delay).
//
// A Link has one seal and one open operation (SealEncodedAppend,
// OpenRawAppend), both running on per-link state its Sealer prepares
// once in NewLink:
//
//   - RealSealer computes the actual AES-CTR + HMAC-SHA256 composition of
//     the paper and is used in unit tests and the live TCP deployment.
//   - ModelSealer produces envelopes with identical layout and size whose
//     integrity/key binding is checked with a keyed checksum instead of a
//     full MAC. Experiments at N = 2^10 scale use it so the figure sweeps
//     run quickly; the package tests prove both sealers accept and reject
//     exactly the same events, so results are unaffected.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// Counters are the channel-layer metric handles, shared by all of a peer's
// links so the registry sees per-node totals. A nil *Counters (no metrics
// registry) costs the hot path exactly one pointer check.
type Counters struct {
	Seals        *telemetry.Counter
	Opens        *telemetry.Counter
	OpenFailures *telemetry.Counter
	SealedBytes  *telemetry.Counter
	OpenedBytes  *telemetry.Counter
}

// NewCounters registers the channel counters in m; nil m yields nil (the
// disabled state).
func NewCounters(m *telemetry.Metrics) *Counters {
	if m == nil {
		return nil
	}
	return &Counters{
		Seals:        m.Counter("channel_seals_total"),
		Opens:        m.Counter("channel_opens_total"),
		OpenFailures: m.Counter("channel_open_failures_total"),
		SealedBytes:  m.Counter("channel_sealed_bytes_total"),
		OpenedBytes:  m.Counter("channel_opened_bytes_total"),
	}
}

// ErrAuth indicates an envelope that failed authentication: tampered,
// replayed from a different pair, or produced by a different program.
var ErrAuth = errors.New("channel: envelope authentication failed")

// envelopeOverhead is the bytes an envelope adds to its plaintext: the
// 16-byte header (AES-CTR nonce, or the model's counter and padding) and
// the 32-byte tag. Both sealers share the geometry, so sizing an
// envelope needs no sealer.
const envelopeOverhead = xcrypto.NonceSize + xcrypto.MACSize

// Sealer selects a Link's envelope construction. NewLink asks it once to
// prepare the link's per-envelope state; every seal and open after that
// runs on the prepared state alone. The unexported method closes the
// interface: RealSealer and *ModelSealer are its only implementations.
type Sealer interface {
	// SealedSize returns the envelope size for a plaintext length.
	SealedSize(plaintextLen int) int
	// prepare installs the sealer's prepared state on l.
	prepare(l *Link, keys xcrypto.SessionKeys) error
}

// RealSealer performs genuine AES-256-CTR encryption with an HMAC-SHA256
// tag (encrypt-then-MAC), the composition proven secure in Theorem A.1.
type RealSealer struct{}

// SealedSize implements Sealer.
func (RealSealer) SealedSize(plaintextLen int) int {
	return xcrypto.SealedSize(plaintextLen)
}

// prepare derives the link's AES key schedule and HMAC pads once, so no
// envelope pays for them.
func (RealSealer) prepare(l *Link, keys xcrypto.SessionKeys) error {
	c, err := xcrypto.NewLinkCipher(keys)
	l.cipher = c
	return err
}

// ModelSealer is the simulation-mode sealer: identical envelope geometry
// (16-byte header, payload, 32-byte tag), with a keyed 64-bit checksum in
// place of the HMAC and a key fingerprint binding the envelope to the
// session (and therefore to the program measurement mixed into the keys).
// Confidentiality is modelled rather than computed: the payload bytes are
// physically present, but the only code that ever handles envelopes below
// the trust boundary is the adversary package, whose API operates on
// opaque envelopes. A corrupted, cross-pair or wrong-program envelope is
// rejected exactly as the RealSealer would reject it.
//
// The envelope counter lives here, shared by every link prepared from
// the same *ModelSealer, so a peer's envelope stream is numbered in
// send order across all of its links.
type ModelSealer struct {
	counter uint64
}

// NewModelSealer returns a fresh ModelSealer.
func NewModelSealer() *ModelSealer { return &ModelSealer{} }

const (
	modelHeader = xcrypto.NonceSize
	modelTag    = xcrypto.MACSize
)

// SealedSize implements Sealer.
func (s *ModelSealer) SealedSize(plaintextLen int) int {
	return modelHeader + plaintextLen + modelTag
}

// prepare folds the link's MAC key into the checksum seed once.
func (s *ModelSealer) prepare(l *Link, keys xcrypto.SessionKeys) error {
	l.model = modelCipher{s: s, seed: modelSum(modelKeyInit, 0, 0, keys.Mac[:])}
	return nil
}

// Constants of the model checksum: odd 64-bit multipliers (the xxHash64
// primes and the murmur3 finalizer constants; modelP1, modelP3 and
// modelP4 also offset the lanes' start states) and the start state the
// MAC key is folded from. The join's rotations are xxHash64's.
const (
	modelP1      = 0x9E3779B185EBCA87
	modelP2      = 0xC2B2AE3D27D4EB4F
	modelP3      = 0x165667B19E3779F9
	modelP4      = 0x85EBCA77C2B2AE63
	modelFinal1  = 0xFF51AFD7ED558CCD
	modelFinal2  = 0xC4CEB9FE1A85EC53
	modelKeyInit = 0x27D4EB2F165667C5
)

// modelStep absorbs one 8-byte word into a checksum lane: xor, multiply
// by an odd constant, xor-shift. Each of the three is a bijection of the
// lane, and the xor is one of the word too, so for a fixed word the step
// is a bijection of the lane state and for a fixed state a bijection of
// the word: two inputs differing in exactly one word leave the lane
// different, and no later step can merge them again.
func modelStep(h, w uint64) uint64 {
	h = (h ^ w) * modelP2
	return h ^ h>>29
}

// modelSum is the keyed checksum standing in for the HMAC, over an
// envelope body: the 16-byte header, passed as its two little-endian
// words (counter and padding), then the plaintext. The seal path thus
// reads the plaintext from its source rather than re-reading the bytes
// it has just copied. Four independent lanes start from seed mixed with
// the plaintext length and fold eight bytes per step: the header words
// open lanes 0 and 1, each 32-byte block of plaintext takes one step in
// every lane (so the multiply chains overlap, and a long batch frame
// runs at four words per chain step), and the last partial block takes
// one more. The lanes join by rotate-and-add and a murmur3 avalanche
// ends the sum. Every stage is a bijection in each value it carries
// (the join in each lane for fixed others), so two equal-length bodies
// that differ in a single word — every single-bit flip among them —
// always get different sums; other differences, lengths and keys
// collide like a 64-bit random function.
func modelSum(seed, ctr, pad uint64, plaintext []byte) uint64 {
	n := len(plaintext)
	h := seed ^ uint64(n)*modelP1
	l0, l1, l2, l3 := modelStep(h, ctr), modelStep(h^modelP1, pad), h^modelP3, h^modelP4
	data := plaintext
	for len(data) >= 32 {
		l0 = modelStep(l0, binary.LittleEndian.Uint64(data))
		l1 = modelStep(l1, binary.LittleEndian.Uint64(data[8:]))
		l2 = modelStep(l2, binary.LittleEndian.Uint64(data[16:]))
		l3 = modelStep(l3, binary.LittleEndian.Uint64(data[24:]))
		data = data[32:]
	}
	// The last 0–31 bytes — up to three whole words and the zero-extended
	// tail — take one more step per lane; absent words count as zero
	// (the length in h tells the two apart).
	var last [4]uint64
	i := 0
	for ; len(data) >= 8; i++ {
		last[i] = binary.LittleEndian.Uint64(data)
		data = data[8:]
	}
	if r := len(data); r > 0 {
		if n >= 8 {
			// The tail is the top r bytes of the last eight: one load
			// instead of a byte loop.
			last[i] = binary.LittleEndian.Uint64(plaintext[n-8:]) >> (64 - 8*r)
		} else {
			for j, b := range data {
				last[i] |= uint64(b) << (8 * j)
			}
		}
	}
	l0 = modelStep(l0, last[0])
	l1 = modelStep(l1, last[1])
	l2 = modelStep(l2, last[2])
	l3 = modelStep(l3, last[3])
	h = l0 + bits.RotateLeft64(l1, 7) + bits.RotateLeft64(l2, 12) + bits.RotateLeft64(l3, 18)
	h = (h ^ h>>33) * modelFinal1
	h = (h ^ h>>33) * modelFinal2
	return h ^ h>>33
}

// modelCipher is the prepared state of a ModelSealer link — the
// simulation analogue of xcrypto.LinkCipher, and the one place the model
// envelope is built and checked. Every envelope checksum starts from the
// precomputed MAC-key seed instead of re-folding the key; the envelope
// counter stays on the shared *ModelSealer.
type modelCipher struct {
	s    *ModelSealer
	seed uint64
}

func (c modelCipher) sealAppend(dst, plaintext []byte) []byte {
	c.s.counter++
	dst = binary.LittleEndian.AppendUint64(dst, c.s.counter)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // header padding
	dst = append(dst, plaintext...)
	sum := modelSum(c.seed, c.s.counter, 0, plaintext)
	// Fill the whole 32-byte tag region so flips anywhere in it are
	// detected, as they would be against a real HMAC.
	for i := 0; i < modelTag; i += 8 {
		dst = binary.LittleEndian.AppendUint64(dst, sum)
	}
	return dst
}

func (c modelCipher) openAppend(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < modelHeader+modelTag {
		return nil, ErrAuth
	}
	body := sealed[:len(sealed)-modelTag]
	sum := modelSum(c.seed, binary.LittleEndian.Uint64(body), binary.LittleEndian.Uint64(body[8:]), body[modelHeader:])
	tag := sealed[len(body):]
	for i := 0; i < modelTag; i += 8 {
		if binary.LittleEndian.Uint64(tag[i:]) != sum {
			return nil, ErrAuth
		}
	}
	return append(dst, body[modelHeader:]...), nil
}

// Link is one direction-agnostic secure channel between the local enclave
// and one remote peer, established during the setup phase. It holds only
// the state its sealer prepared in NewLink — never the session keys — so
// it fits one cache line: a large topology holds one Link per directed
// pair.
type Link struct {
	// cipher is the prepared AES+HMAC state of a RealSealer link: the key
	// schedule and HMAC pads, derived once. Stateful (scratch blocks,
	// HMAC state), hence per-link and never shared through the enclave
	// key cache. Nil on a model link.
	cipher *xcrypto.LinkCipher
	// model is the prepared state of a *ModelSealer link (model.s is nil
	// on a real link), held by value so a seal or open does not chase a
	// second pointer.
	model modelCipher
	// ctr, when non-nil, tallies seal/open traffic.
	ctr *Counters
}

// SetCounters attaches metric counters to the link (nil detaches them).
func (l *Link) SetCounters(c *Counters) { l.ctr = c }

// NewLink derives the session keys with the remote enclave's public key
// and returns the established link, its sealer's per-link state prepared
// once so that every later seal and open skips the key derivations. It
// fails if the local enclave has halted.
func NewLink(local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) (*Link, error) {
	if sealer == nil {
		return nil, errors.New("channel: nil sealer")
	}
	keys, err := local.SessionKeys(remotePub)
	if err != nil {
		return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	l := &Link{}
	if err := sealer.prepare(l, keys); err != nil {
		return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	return l, nil
}

// SealEncodedAppend seals an encoded message or batch container for the
// remote peer, appending the envelope to dst. A message sent to N-1
// destinations is encoded once by the runtime and sealed per link. dst is
// pre-grown to the exact envelope size, so sealing into a nil dst costs
// one exactly-sized allocation and sealing into a warm buffer costs none.
// The runtime seals every envelope into one reused per-peer scratch
// buffer — the Transport.Send contract makes the payload valid only
// during the call, and transports that keep envelopes (queues,
// adversarial holds) copy them.
func (l *Link) SealEncodedAppend(dst, encoded []byte) ([]byte, error) {
	if need := len(encoded) + envelopeOverhead; cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	var out []byte
	var err error
	if l.cipher != nil {
		out, err = l.cipher.SealAppend(dst, nil, encoded)
	} else {
		out = l.model.sealAppend(dst, encoded)
	}
	if err == nil && l.ctr != nil {
		l.ctr.Seals.Inc()
		l.ctr.SealedBytes.Add(uint64(len(out) - len(dst)))
	}
	return out, err
}

// OpenRawAppend verifies and decrypts an envelope from the remote peer
// without interpreting the plaintext, appending it to dst; dst is
// untouched on failure, and any failure means the envelope must be
// treated as an omission (Theorem A.2, step 1). The receive path opens
// into a reused per-peer scratch, then dispatches on the plaintext's
// first byte — a batch container is unbatched entry by entry, a bare
// message decoded directly — and checks every decoded message's Sender
// against the link's remote peer itself.
func (l *Link) OpenRawAppend(dst, sealed []byte) ([]byte, error) {
	var out []byte
	var err error
	if l.cipher != nil {
		if out, err = l.cipher.OpenAppend(dst, sealed); err != nil {
			err = ErrAuth
		}
	} else {
		out, err = l.model.openAppend(dst, sealed)
	}
	if l.ctr != nil {
		if err != nil {
			l.ctr.OpenFailures.Inc()
		} else {
			l.ctr.Opens.Inc()
			l.ctr.OpenedBytes.Add(uint64(len(out) - len(dst)))
		}
	}
	return out, err
}

// FrameTag returns the link-unique identifier of a sealed envelope: the
// first eight header bytes, which both sealers fill with per-envelope
// material (the ModelSealer's strictly increasing counter, the
// RealSealer's random AES-CTR nonce prefix). Sender and receiver read
// the same bytes off the same envelope, so the tag lets an
// acknowledgment name a whole sealed frame without hashing it — content
// binding is inherited from the envelope's own authentication (P2): a
// receiver can only have opened the exact bytes the tag came from.
// Counter tags never repeat on a link; random nonce prefixes collide
// with probability 2^-64 per frame pair, which downstream users accept
// (a collision merely merges two ACK credits within one round).
func FrameTag(sealed []byte) uint64 {
	if len(sealed) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(sealed)
}
