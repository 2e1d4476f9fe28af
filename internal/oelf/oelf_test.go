package oelf

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"testing/quick"
)

func sample() *Binary {
	return FromImage("hello", &Image{
		Code:      []byte{1, 2, 3, 4, 5},
		Data:      []byte{9, 8, 7},
		BSS:       128,
		Entry:     0,
		GuardSize: 4096,
	})
}

func TestMarshalRoundTrip(t *testing.T) {
	b := sample()
	k := NewSigningKey("test")
	k.Sign(b)
	got, err := Unmarshal(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || got.Image.BSS != b.Image.BSS ||
		got.Image.Entry != b.Image.Entry || got.Image.GuardSize != b.Image.GuardSize {
		t.Fatalf("header mismatch: %+v", got)
	}
	if string(got.Image.Code) != string(b.Image.Code) || string(got.Image.Data) != string(b.Image.Data) {
		t.Fatal("segment mismatch")
	}
	if err := k.Verify(got); err != nil {
		t.Fatalf("signature should survive round trip: %v", err)
	}
}

func TestSignatureTamperDetection(t *testing.T) {
	k := NewSigningKey("test")

	b := sample()
	if err := k.Verify(b); err == nil {
		t.Fatal("unsigned binary must not verify")
	}
	k.Sign(b)
	if err := k.Verify(b); err != nil {
		t.Fatal(err)
	}

	// Code tampering after signing is detected.
	b.Image.Code[0] ^= 1
	if err := k.Verify(b); err == nil {
		t.Fatal("tampered code must not verify")
	}
	b.Image.Code[0] ^= 1

	// Geometry tampering is detected (a wrong guard size would break
	// the range-analysis soundness argument).
	b.Image.GuardSize = 16
	if err := k.Verify(b); err == nil {
		t.Fatal("tampered guard size must not verify")
	}

	// A different key does not verify.
	k2 := NewSigningKey("other")
	b = sample()
	k.Sign(b)
	if err := k2.Verify(b); err == nil {
		t.Fatal("wrong key must not verify")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XELF" + string(make([]byte, 100))),
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: should fail", i)
		}
	}
	// Entry beyond code.
	b := sample()
	b.Image.Entry = 99
	if _, err := Unmarshal(b.Marshal()); err == nil {
		t.Fatal("entry beyond code should fail")
	}
}

func TestUnmarshalQuickNoPanic(t *testing.T) {
	// Property: arbitrary bytes never panic the parser.
	f := func(data []byte) bool {
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeReflectsContents(t *testing.T) {
	small := sample()
	big := sample()
	big.Image.Code = make([]byte, 100000)
	if big.Size() <= small.Size() {
		t.Fatal("size should grow with code")
	}
}

// TestDigestIsMarshalMinusSignature pins what Digest hashes: the encoded
// binary up to, not including, the signature — so every binary signed
// before Digest streamed its segments still verifies. The golden value
// is the digest the marshal-then-hash implementation gave for sample().
func TestDigestIsMarshalMinusSignature(t *testing.T) {
	k := NewSigningKey("test")
	signed := sample()
	k.Sign(signed)
	empty := FromImage("", &Image{})
	big := sample()
	big.Name = "a-longer-name/with/slashes"
	big.Image.Code = make([]byte, 3*4096+17)
	big.Image.Data = make([]byte, 70000)
	for i := range big.Image.Data {
		big.Image.Data[i] = byte(i * 7)
	}
	big.Image.Entry = 4096
	for _, b := range []*Binary{sample(), signed, empty, big} {
		enc := b.Marshal()
		body := enc[:len(enc)-4-len(b.Sig)]
		if got, want := b.Digest(), sha256.Sum256(body); got != want {
			t.Errorf("%q: Digest %x, sha256(Marshal minus signature) %x", b.Name, got, want)
		}
		if got, want := b.Size(), len(body)+len(b.Sig)+16; got != want {
			t.Errorf("%q: Size %d, want %d", b.Name, got, want)
		}
	}
	const golden = "26267cce587fb95430989011466668db93edc1d4bf655904792de7ee9a03058d"
	if got := fmt.Sprintf("%x", sample().Digest()); got != golden {
		t.Errorf("sample digest %s, want %s", got, golden)
	}
}
