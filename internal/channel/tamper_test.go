package channel

import (
	"encoding/binary"
	"testing"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
)

// batchFrameMsgs is the number of messages in testBatchFrame: enough to
// make a ~2 KB frame, the shape of a busy multiplexed round's frames.
const batchFrameMsgs = 30

// testBatchFrame returns a wire batch container of batchFrameMsgs
// distinct ECHO messages from node 0 (1981 bytes; 2029 sealed).
func testBatchFrame(tb testing.TB) []byte {
	tb.Helper()
	var frame []byte
	for i := 0; i < batchFrameMsgs; i++ {
		msg := testMsg(0)
		msg.Type = wire.TypeEcho
		msg.Seq = uint64(100 + i)
		msg.Value[1] = byte(i)
		enc, err := msg.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		frame = wire.AppendBatchEntry(frame, enc)
	}
	return frame
}

// TestModelSealerTamper exhaustively tampers with a 110-byte singleton
// envelope and a ~2 KB batch frame and requires every variant to be
// rejected by the receiving link's prepared cipher. It covers every
// single-bit flip; truncation and extension by 1–64 bytes; each tag word
// zeroed or replaced by the same word of another envelope's tag; the same
// bit flipped in two 8-byte words up to four words apart, adjacent ones
// included (which a bare xor-multiply fold cancels when they meet in one
// chain); and the envelope opened on another pair's link.
func TestModelSealerTamper(t *testing.T) {
	encl := []*enclave.Enclave{launch(t, 0, 1, program), launch(t, 1, 2, program), launch(t, 2, 3, program)}
	link := func(local, remote int) *Link {
		t.Helper()
		l, err := NewLink(encl[local], wire.NodeID(remote), encl[remote].DHPublic(), NewModelSealer())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	sender, receiver := link(0, 1), link(1, 0)
	// Links of the other pairs: none shares the 0↔1 session keys.
	others := []*Link{link(1, 2), link(2, 0), link(2, 1)}

	single, err := testMsg(0).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		plaintext []byte
		size      int
	}{
		{"singleton", single, 110},
		{"batch", testBatchFrame(t), 2029},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := sender.SealEncodedAppend(nil, tc.plaintext)
			if err != nil {
				t.Fatal(err)
			}
			if len(env) != tc.size {
				t.Fatalf("envelope is %d bytes, want %d", len(env), tc.size)
			}
			other, err := sender.SealEncodedAppend(nil, tc.plaintext)
			if err != nil {
				t.Fatal(err)
			}
			rejected := func(what string, mutant []byte) {
				t.Helper()
				if _, err := receiver.OpenRawAppend(nil, mutant); err == nil {
					t.Fatalf("%s: prepared link accepted the tampered envelope", what)
				}
			}
			mutate := func(f func(m []byte)) []byte {
				m := append([]byte(nil), env...)
				f(m)
				return m
			}
			if _, err := receiver.OpenRawAppend(nil, env); err != nil {
				t.Fatalf("untampered envelope rejected: %v", err)
			}

			for bit := 0; bit < 8*len(env); bit++ {
				rejected("bit flip", mutate(func(m []byte) { m[bit/8] ^= 1 << (bit % 8) }))
			}
			for k := 1; k <= 64; k++ {
				rejected("truncation", env[:len(env)-k])
				rejected("zero extension", append(append([]byte(nil), env...), make([]byte, k)...))
				// Extending with a repeat of the tag keeps a well-formed
				// four-copy tag at the end whenever k is a multiple of 8.
				ext := append([]byte(nil), env...)
				for i := 0; i < k; i++ {
					ext = append(ext, env[len(env)-modelTag+i%modelTag])
				}
				rejected("tag-repeat extension", ext)
			}
			tagAt := len(env) - modelTag
			for w := 0; w < modelTag/8; w++ {
				at := tagAt + 8*w
				rejected("tag word zeroed", mutate(func(m []byte) { clear(m[at : at+8]) }))
				rejected("tag word swapped", mutate(func(m []byte) { copy(m[at:at+8], other[at:at+8]) }))
			}
			// Gaps of one to four words cover adjacent words and words
			// that meet in consecutive steps of one checksum lane.
			for gap := 1; gap <= 4; gap++ {
				for w := 0; w+gap < len(env)/8; w++ {
					for bit := 0; bit < 64; bit++ {
						rejected("same bit in two words", mutate(func(m []byte) {
							for _, at := range []int{8 * w, 8 * (w + gap)} {
								x := binary.LittleEndian.Uint64(m[at:])
								binary.LittleEndian.PutUint64(m[at:], x^1<<bit)
							}
						}))
					}
				}
			}
			for i, l := range others {
				if _, err := l.OpenRawAppend(nil, env); err == nil {
					t.Fatalf("other pair %d: prepared link accepted the envelope", i)
				}
			}
		})
	}
}
