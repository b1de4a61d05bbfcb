package oelf

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/asm"
)

func sample() *Binary {
	return FromImage("hello", &asm.Image{
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

// randomBinary draws a binary with random name, geometry and segments.
func randomBinary(r *rand.Rand) *Binary {
	seg := func(max int) []byte {
		b := make([]byte, r.Intn(max))
		r.Read(b)
		return b
	}
	b := FromImage(string(seg(40)), &asm.Image{
		Code:      seg(20000),
		Data:      seg(5000),
		BSS:       r.Uint32(),
		GuardSize: r.Uint32(),
	})
	if len(b.Image.Code) > 0 {
		b.Image.Entry = uint32(r.Intn(len(b.Image.Code)))
	}
	if r.Intn(2) == 0 {
		NewSigningKey("test").Sign(b)
	}
	return b
}

func TestDigestIsSHA256OfBody(t *testing.T) {
	// The streamed digest must stay bit-identical to hashing the
	// encoded body: every signature in existence covers those bytes.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		b := randomBinary(r)
		enc := b.Marshal()
		body := enc[:len(enc)-4-len(b.Sig)]
		if b.Digest() != sha256.Sum256(body) {
			t.Fatalf("binary %d: Digest differs from sha256(body)", i)
		}
		if want := len(body) + len(b.Sig) + 16; b.Size() != want {
			t.Fatalf("binary %d: Size %d, want %d", i, b.Size(), want)
		}
	}
}

// goldenSigned is sample() signed with NewSigningKey("golden") and
// marshaled by the buffer-assembling encoder that preceded the streamed
// digest.
const (
	goldenSigned = "4f454c4601000000050000000500000003000000800000000000000000100000" +
		"000000000000000068656c6c6f0102030405090807200000002cd15066b65f66" +
		"05b15a1cb83630bcb9b6457c4effde5621eb031b58a6b87db0"
	goldenDigest = "26267cce587fb95430989011466668db93edc1d4bf655904792de7ee9a03058d"
	goldenSize   = 101
)

func TestPreviouslySignedBinaryVerifies(t *testing.T) {
	raw, err := hex.DecodeString(goldenSigned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSigningKey("golden").Verify(b); err != nil {
		t.Fatalf("binary signed by the old encoder no longer verifies: %v", err)
	}
	if d := b.Digest(); hex.EncodeToString(d[:]) != goldenDigest {
		t.Fatalf("digest %x, want %s", d, goldenDigest)
	}
	if b.Size() != goldenSize {
		t.Fatalf("size %d, want %d", b.Size(), goldenSize)
	}
	if got := hex.EncodeToString(b.Marshal()); got != goldenSigned {
		t.Fatalf("re-marshal differs:\n got %s\nwant %s", got, goldenSigned)
	}
}
