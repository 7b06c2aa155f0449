package modules

import (
	"bytes"
	"math/rand"
	"testing"
)

// xorReference is the byte-at-a-time repeating-key XOR the kernel must
// reproduce.
func xorReference(data, key []byte) {
	for i := range data {
		data[i] ^= key[i%len(key)]
	}
}

// TestXORStreamMatchesReference checks the keystream kernel against the
// byte loop for key lengths 1-64 and payload lengths 0 to 3×keystream+17,
// with payloads at even and odd offsets. A short keystream covers every
// length; the production keystream covers the lengths around its chunk
// boundaries.
func TestXORStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for keyLen := 1; keyLen <= 64; keyLen++ {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, min := range []int{67, xorStreamMin} {
			stream := expandKey(key, min)
			if len(stream) < min || len(stream)%keyLen != 0 {
				t.Fatalf("key %d: keystream of %d octets for min %d", keyLen, len(stream), min)
			}
			last := 3*len(stream) + 17
			var lengths []int
			if min == xorStreamMin {
				for n := 0; n <= 33; n++ {
					lengths = append(lengths, n)
				}
				for j := 1; j <= 3; j++ {
					for d := -2; d <= 2; d++ {
						lengths = append(lengths, j*len(stream)+d)
					}
				}
				lengths = append(lengths, last)
			} else {
				for n := 0; n <= last; n++ {
					lengths = append(lengths, n)
				}
			}
			buf := make([]byte, last+2)
			want := make([]byte, last+2)
			for _, n := range lengths {
				for _, off := range []int{0, 1} {
					// The octet after the payload (and before it, at
					// offset 1) must come through untouched.
					got, ref := buf[:off+n+1], want[:off+n+1]
					rng.Read(got)
					copy(ref, got)
					xorStream(got[off:off+n], stream)
					xorReference(ref[off:off+n], key)
					if !bytes.Equal(got, ref) {
						t.Fatalf("key %d, keystream %d, payload %d at offset %d: kernel differs from the byte loop", keyLen, len(stream), n, off)
					}
				}
			}
		}
	}
}

func BenchmarkXORStream(b *testing.B) {
	stream := expandKey([]byte("dacapo-default-key"), xorStreamMin)
	data := make([]byte, 40<<10)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		xorStream(data, stream)
	}
}
