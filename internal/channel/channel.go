// Package channel implements the paper's Blinded Peer channel
// (Appendix A, Figure 4): the secure pairwise channel between two enclaves
// that yields properties P2 (message integrity & authenticity) and P3
// (blind-box computation), and — together with the enclave's
// measurement-bound key derivation — the program-binding half of P1.
//
// A Link corresponds to one (sender, receiver) enclave pair after the
// setup phase: it owns the directional session keys derived from the
// Diffie-Hellman exchange and turns wire.Message values into sealed
// envelopes and back. Everything that crosses the trust boundary to the
// untrusted OS is a sealed envelope: the adversary can drop, hold,
// duplicate or corrupt envelopes but cannot read or forge them, which is
// exactly the reduction of Theorem A.2 (byzantine => replay/omit/delay).
//
// Sealing is pluggable via the Sealer interface:
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

// Errors returned when opening envelopes.
var (
	// ErrAuth indicates an envelope that failed authentication: tampered,
	// replayed from a different pair, or produced by a different program.
	ErrAuth = errors.New("channel: envelope authentication failed")
	// ErrSenderMismatch indicates a structurally valid message whose
	// Sender field does not match the link's remote peer. With honest
	// enclaves this cannot happen; it guards protocol invariants.
	ErrSenderMismatch = errors.New("channel: sender does not match link peer")
)

// Sealer converts plaintext to sealed envelopes under session keys.
// Implementations must be deterministic in size: SealedSize(n) bytes for
// an n-byte plaintext.
//
// The append-style variants are the hot path: they write into a
// caller-provided buffer so a warm caller seals and opens without
// allocating. For any sealer state, SealAppend must append exactly the
// bytes Seal would return, and OpenAppend must accept and reject exactly
// the envelopes Open would (pinned by the package equivalence tests).
type Sealer interface {
	// Seal produces the envelope.
	Seal(keys xcrypto.SessionKeys, plaintext []byte) ([]byte, error)
	// Open verifies and recovers the plaintext, returning an error for
	// any envelope not produced under keys.
	Open(keys xcrypto.SessionKeys, sealed []byte) ([]byte, error)
	// SealedSize returns the envelope size for a plaintext length.
	SealedSize(plaintextLen int) int
	// SealAppend appends the envelope for plaintext to dst and returns
	// the extended slice.
	SealAppend(keys xcrypto.SessionKeys, dst, plaintext []byte) ([]byte, error)
	// OpenAppend appends the recovered plaintext to dst and returns the
	// extended slice; dst is untouched when verification fails.
	OpenAppend(keys xcrypto.SessionKeys, dst, sealed []byte) ([]byte, error)
}

// RealSealer performs genuine AES-256-CTR encryption with an HMAC-SHA256
// tag (encrypt-then-MAC), the composition proven secure in Theorem A.1.
type RealSealer struct{}

// Seal implements Sealer.
func (RealSealer) Seal(keys xcrypto.SessionKeys, plaintext []byte) ([]byte, error) {
	return xcrypto.Seal(keys, nil, plaintext)
}

// Open implements Sealer.
func (RealSealer) Open(keys xcrypto.SessionKeys, sealed []byte) ([]byte, error) {
	out, err := xcrypto.Open(keys, sealed)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
}

// SealedSize implements Sealer.
func (RealSealer) SealedSize(plaintextLen int) int {
	return xcrypto.SealedSize(plaintextLen)
}

// SealAppend implements Sealer. Links established with a RealSealer do
// not call it — they hold a prepared xcrypto.LinkCipher and skip the
// per-envelope key-schedule rebuild this one-shot form pays.
func (RealSealer) SealAppend(keys xcrypto.SessionKeys, dst, plaintext []byte) ([]byte, error) {
	return xcrypto.SealAppend(keys, nil, dst, plaintext)
}

// OpenAppend implements Sealer.
func (RealSealer) OpenAppend(keys xcrypto.SessionKeys, dst, sealed []byte) ([]byte, error) {
	out, err := xcrypto.OpenAppend(keys, dst, sealed)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
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
type ModelSealer struct {
	counter uint64
}

// NewModelSealer returns a fresh ModelSealer.
func NewModelSealer() *ModelSealer { return &ModelSealer{} }

const (
	modelHeader = 16
	modelTag    = 32
)

// Seal implements Sealer.
func (s *ModelSealer) Seal(keys xcrypto.SessionKeys, plaintext []byte) ([]byte, error) {
	dst := make([]byte, 0, modelHeader+len(plaintext)+modelTag)
	return s.SealAppend(keys, dst, plaintext)
}

// SealAppend implements Sealer. The counter is shared with Seal and with
// every prepared link over s, so mixed usage stays byte-identical to an
// all-Seal sequence.
func (s *ModelSealer) SealAppend(keys xcrypto.SessionKeys, dst, plaintext []byte) ([]byte, error) {
	return newModelCipher(s, keys).sealAppend(dst, plaintext), nil
}

// Open implements Sealer.
func (s *ModelSealer) Open(keys xcrypto.SessionKeys, sealed []byte) ([]byte, error) {
	// Return a copy: envelopes may be aliased by replaying adversaries.
	return s.OpenAppend(keys, nil, sealed)
}

// OpenAppend implements Sealer.
func (s *ModelSealer) OpenAppend(keys xcrypto.SessionKeys, dst, sealed []byte) ([]byte, error) {
	return newModelCipher(s, keys).openAppend(dst, sealed)
}

// SealedSize implements Sealer.
func (s *ModelSealer) SealedSize(plaintextLen int) int {
	return modelHeader + plaintextLen + modelTag
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

// modelCipher is the keyed state of a ModelSealer session — the
// simulation analogue of xcrypto.LinkCipher, and the one place the model
// envelope is built and checked. Links prepare one at establishment, so
// every envelope checksum starts from the precomputed MAC-key seed
// instead of re-folding the key; the one-shot Sealer methods build one
// per call. The envelope counter stays on the shared *ModelSealer, so
// both paths emit byte-identical envelope streams (pinned by the package
// equivalence tests).
type modelCipher struct {
	s    *ModelSealer
	seed uint64
}

func newModelCipher(s *ModelSealer, keys xcrypto.SessionKeys) modelCipher {
	return modelCipher{s: s, seed: modelSum(modelKeyInit, 0, 0, keys.Mac[:])}
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
// and one remote peer, established during the setup phase.
type Link struct {
	// The dispatch pointers every seal/open touches lead the struct so
	// they share the Link's first cache line: a large topology holds one
	// Link per directed pair, and the per-envelope hot path reads only
	// these fields.
	//
	// cipher is the prepared per-link cipher state built at link
	// establishment for RealSealer links: the AES key schedule and the
	// HMAC pads are derived once here instead of on every envelope.
	// Stateful (scratch blocks, HMAC state), hence per-link and never
	// shared through the enclave key cache.
	cipher *xcrypto.LinkCipher
	// model is the prepared per-link state for *ModelSealer links (the
	// precomputed MAC-key checksum seed; model.s is nil otherwise), held
	// by value so a seal or open does not chase a second pointer.
	model modelCipher
	// ctr, when non-nil, tallies seal/open traffic. Every seal and open
	// funnels through sealAppend/openAppend, so counting there covers all
	// entry points.
	ctr    *Counters
	local  wire.NodeID
	remote wire.NodeID
	// sealer sizes every envelope (SealEncodedAppend) and seals or opens
	// when the link has no prepared state.
	sealer Sealer
	keys   xcrypto.SessionKeys
}

// SetCounters attaches metric counters to the link (nil detaches them).
func (l *Link) SetCounters(c *Counters) { l.ctr = c }

// NewLink derives the session keys with the remote enclave's public key
// and returns the established link. It fails if the local enclave has
// halted. For the real AES+HMAC sealer the per-link cipher state is
// prepared here, once, so every later seal and open skips the key
// schedule and HMAC pad derivation.
func NewLink(local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) (*Link, error) {
	if sealer == nil {
		return nil, errors.New("channel: nil sealer")
	}
	keys, err := local.SessionKeys(remotePub)
	if err != nil {
		return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	l := &Link{local: local.ID(), remote: remote, keys: keys, sealer: sealer}
	if _, ok := sealer.(RealSealer); ok {
		if l.cipher, err = xcrypto.NewLinkCipher(keys); err != nil {
			return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
		}
	}
	if ms, ok := sealer.(*ModelSealer); ok {
		l.model = newModelCipher(ms, keys)
	}
	return l, nil
}

// sealAppend appends the envelope for plaintext to dst via the prepared
// cipher when the link has one, the sealer otherwise.
func (l *Link) sealAppend(dst, plaintext []byte) ([]byte, error) {
	var out []byte
	var err error
	switch {
	case l.cipher != nil:
		out, err = l.cipher.SealAppend(dst, nil, plaintext)
	case l.model.s != nil:
		out = l.model.sealAppend(dst, plaintext)
	default:
		out, err = l.sealer.SealAppend(l.keys, dst, plaintext)
	}
	if err == nil && l.ctr != nil {
		l.ctr.Seals.Inc()
		l.ctr.SealedBytes.Add(uint64(len(out) - len(dst)))
	}
	return out, err
}

// openAppend appends the verified plaintext of sealed to dst.
func (l *Link) openAppend(dst, sealed []byte) ([]byte, error) {
	var out []byte
	var err error
	switch {
	case l.cipher != nil:
		out, err = l.cipher.OpenAppend(dst, sealed)
		if err != nil {
			err = ErrAuth
		}
	case l.model.s != nil:
		out, err = l.model.openAppend(dst, sealed)
	default:
		out, err = l.sealer.OpenAppend(l.keys, dst, sealed)
	}
	if l.ctr != nil {
		if err != nil {
			l.ctr.OpenFailures.Inc()
		} else {
			l.ctr.Opens.Inc()
			l.ctr.OpenedBytes.Add(uint64(len(out) - len(dst)))
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Remote returns the peer on the far side of the link.
func (l *Link) Remote() wire.NodeID { return l.remote }

// Seal encodes and seals a protocol message for the remote peer.
func (l *Link) Seal(msg *wire.Message) ([]byte, error) {
	plaintext, err := msg.Encode()
	if err != nil {
		return nil, fmt.Errorf("channel: encode: %w", err)
	}
	return l.SealEncodedAppend(nil, plaintext)
}

// SealEncoded seals an already-encoded message for the remote peer. It is
// the multicast hot path: a message sent to N-1 destinations is encoded
// once by the runtime and sealed per link, instead of being re-encoded
// inside every Seal. The envelope is byte-identical to Seal(msg) for the
// same sealer state (proven by the package's equivalence tests).
func (l *Link) SealEncoded(encoded []byte) ([]byte, error) {
	return l.SealEncodedAppend(nil, encoded)
}

// SealEncodedAppend is SealEncoded appending the envelope to dst. It
// pre-grows dst to the exact envelope size, so sealing into a nil dst
// costs one exactly-sized allocation and sealing into a warm buffer
// costs none; the envelope bytes are identical to SealEncoded for the
// same sealer state. The runtime seals every envelope into one reused
// per-peer scratch buffer — the Transport.Send contract makes the
// payload valid only during the call, and transports that keep
// envelopes (queues, adversarial holds) copy them.
func (l *Link) SealEncodedAppend(dst, encoded []byte) ([]byte, error) {
	if need := l.sealer.SealedSize(len(encoded)); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return l.sealAppend(dst, encoded)
}

// SealBatchAppend seals a wire batch container (wire.AppendBatchEntry)
// for the remote peer, appending the envelope to dst. The container is
// opaque plaintext to the channel, so this is SealEncodedAppend under a
// name marking the coalesced-outbox entry point: one seal pass covers
// every message in the batch.
func (l *Link) SealBatchAppend(dst, batch []byte) ([]byte, error) {
	return l.SealEncodedAppend(dst, batch)
}

// OpenRawAppend verifies and decrypts an envelope without interpreting
// the plaintext, appending it to dst. The runtime's receive path opens
// raw first, then dispatches on the plaintext's first byte: a batch
// container is unbatched entry by entry, a bare message is decoded
// directly — with the per-message decode and sender checks applied by
// the caller either way (wire.Decode plus a Sender == Remote() check,
// exactly what OpenEncodedAppend enforces).
func (l *Link) OpenRawAppend(dst, sealed []byte) ([]byte, error) {
	return l.openAppend(dst, sealed)
}

// Open verifies, decrypts and decodes an envelope received from the remote
// peer. Any failure means the envelope must be treated as an omission
// (Theorem A.2, step 1).
func (l *Link) Open(sealed []byte) (*wire.Message, error) {
	msg, _, err := l.OpenEncoded(sealed)
	return msg, err
}

// OpenEncoded is Open returning the decoded message together with its
// encoded plaintext. The receive path uses the plaintext to compute the
// ACK digest H(val) directly, instead of re-encoding the message it just
// decoded.
func (l *Link) OpenEncoded(sealed []byte) (*wire.Message, []byte, error) {
	return l.OpenEncodedAppend(nil, sealed)
}

// OpenEncodedAppend is OpenEncoded decrypting into dst: the returned
// plaintext is dst extended by the envelope's payload bytes. The receive
// hot path passes a per-peer scratch buffer (sliced to length 0), so a
// warm receive verifies, decrypts and digests without allocating the
// plaintext. The returned plaintext aliases dst's backing array and is
// only valid until the buffer's next use; the decoded message owns no
// part of it.
func (l *Link) OpenEncodedAppend(dst, sealed []byte) (*wire.Message, []byte, error) {
	plaintext, err := l.openAppend(dst, sealed)
	if err != nil {
		return nil, nil, err
	}
	msg, err := wire.Decode(plaintext[len(dst):])
	if err != nil {
		return nil, nil, fmt.Errorf("channel: decode: %w", err)
	}
	if msg.Sender != l.remote {
		return nil, nil, ErrSenderMismatch
	}
	return msg, plaintext, nil
}

// SealedMessageSize returns the on-wire envelope size for a message,
// letting callers budget traffic without sealing.
func (l *Link) SealedMessageSize(msg *wire.Message) int {
	return l.sealer.SealedSize(msg.EncodedSize())
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
