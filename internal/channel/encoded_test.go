package channel

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sgxp2p/internal/wire"
)

// TestSealEncodedByteIdentical pins the model envelope as a function of
// the sealer state alone: two links over the same enclave pair, each
// over a fresh ModelSealer, seal byte-identical envelopes, and outside
// the tag each is the little-endian counter, eight zero padding bytes
// and the plaintext in the clear, followed by four copies of one
// checksum word.
func TestSealEncodedByteIdentical(t *testing.T) {
	la1, _ := pairedLinks(t, func() Sealer { return NewModelSealer() })
	la2, _ := pairedLinks(t, func() Sealer { return NewModelSealer() })
	for i := 0; i < 5; i++ {
		msg := testMsg(0)
		msg.Seq = uint64(i)
		enc, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		env1, err := la1.SealEncodedAppend(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		env2, err := la2.SealEncodedAppend(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env1, env2) {
			t.Fatalf("msg %d: links over fresh sealers sealed different envelopes", i)
		}
		body := binary.LittleEndian.AppendUint64(nil, uint64(i+1))
		body = append(body, make([]byte, 8)...)
		body = append(body, enc...)
		if !bytes.Equal(env1[:len(body)], body) {
			t.Fatalf("msg %d: envelope body is not counter‖padding‖plaintext", i)
		}
		tag := env1[len(body):]
		for w := 8; w < modelTag; w += 8 {
			if !bytes.Equal(tag[w:w+8], tag[:8]) {
				t.Fatalf("msg %d: tag word %d differs from word 0", i, w/8)
			}
		}
	}
}

// TestSealEncodedRoundTrip proves an envelope sealed from an encoding is
// accepted by the receive path for both sealers and yields that encoding
// back (the RealSealer draws a random nonce, so its envelopes are
// compared semantically, not byte-wise).
func TestSealEncodedRoundTrip(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			msg := testMsg(0)
			enc, err := msg.Encode()
			if err != nil {
				t.Fatal(err)
			}
			env, err := la.SealEncodedAppend(nil, enc)
			if err != nil {
				t.Fatal(err)
			}
			plaintext, err := lb.OpenRawAppend(nil, env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plaintext, enc) {
				t.Fatal("opened plaintext differs from the sealed encoding")
			}
			got, err := wire.Decode(plaintext)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != msg.String() || got.Value != msg.Value {
				t.Fatalf("round trip mismatch: %v vs %v", got, msg)
			}
		})
	}
}
