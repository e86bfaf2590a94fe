package service

import (
	"bytes"
	"testing"
)

// FuzzUnenvelope feeds arbitrary bytes to the durable store's blob
// reader, as they are and wrapped in a fresh envelope. unenvelope must
// never panic, must accept exactly the blobs envelope writes (magic,
// SHA-256 of the payload, payload) and must return their payload.
func FuzzUnenvelope(f *testing.F) {
	for _, p := range [][]byte{[]byte(`{"answer":42}`), []byte("ck"), []byte("not json"), nil} {
		blob := envelope(p)
		f.Add(blob)
		torn := append([]byte(nil), blob...)
		torn[len(torn)-1] ^= 0x01
		f.Add(torn)
		f.Add(blob[:len(blob)-1])
	}
	f.Add([]byte(envMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := unenvelope(data); err == nil && !bytes.Equal(envelope(p), data) {
			t.Fatalf("accepted %q, which is not the envelope of its payload %q", data, p)
		}
		p, err := unenvelope(envelope(data))
		if err != nil || !bytes.Equal(p, data) {
			t.Fatalf("envelope of %q read back as %q (%v)", data, p, err)
		}
	})
}
