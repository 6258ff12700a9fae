package value

import (
	"testing"
	"testing/quick"
)

func TestZero(t *testing.T) {
	v := Zero(16)
	if !v.IsZero() {
		t.Fatal("Zero value is not zero")
	}
	if v.SizeBytes() != 16 || v.SizeBits() != 128 {
		t.Fatalf("Zero(16) has size %dB/%db, want 16B/128b", v.SizeBytes(), v.SizeBits())
	}
}

func TestFromBytesCopies(t *testing.T) {
	src := []byte{1, 2, 3}
	v := FromBytes(src)
	src[0] = 9
	if v.Bytes()[0] != 1 {
		t.Fatal("FromBytes did not copy its input")
	}
	out := v.Bytes()
	out[1] = 9
	if v.Bytes()[1] != 2 {
		t.Fatal("Bytes did not return a copy")
	}
}

func TestFromString(t *testing.T) {
	v := FromString("hi", 8)
	b := v.Bytes()
	if b[0] != 'h' || b[1] != 'i' || b[7] != 0 {
		t.Fatalf("FromString produced %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromString with oversized string did not panic")
		}
	}()
	FromString("too long", 3)
}

func TestEqual(t *testing.T) {
	a := FromBytes([]byte{1, 2, 3})
	b := FromBytes([]byte{1, 2, 3})
	c := FromBytes([]byte{1, 2, 4})
	if !a.Equal(b) {
		t.Fatal("identical values not Equal")
	}
	if a.Equal(c) {
		t.Fatal("different values reported Equal")
	}
}

func TestSequencedDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for writer := 0; writer < 8; writer++ {
		for seq := 0; seq < 8; seq++ {
			v := Sequenced(writer, seq, 128)
			if v.SizeBytes() != 128 {
				t.Fatalf("Sequenced size %d, want 128", v.SizeBytes())
			}
			fp := v.Fingerprint()
			if seen[fp] {
				t.Fatalf("Sequenced(%d,%d) collides with an earlier value", writer, seq)
			}
			seen[fp] = true
		}
	}
}

func TestSequencedDeterministic(t *testing.T) {
	a := Sequenced(3, 7, 100)
	b := Sequenced(3, 7, 100)
	if !a.Equal(b) {
		t.Fatal("Sequenced is not deterministic")
	}
}

func TestFingerprintMatchesEquality(t *testing.T) {
	prop := func(a, b []byte) bool {
		va, vb := FromBytes(a), FromBytes(b)
		if va.Equal(vb) {
			return va.Fingerprint() == vb.Fingerprint()
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("fingerprint inconsistent with equality: %v", err)
	}
}

func TestStringForms(t *testing.T) {
	if s := FromBytes(nil).String(); s != "v(empty)" {
		t.Fatalf("empty value String = %q", s)
	}
	if s := FromBytes([]byte{1}).String(); s == "" {
		t.Fatal("String returned empty for non-empty value")
	}
}

func TestAdoptAndView(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	v := Adopt(buf)
	if &v.View()[0] != &buf[0] {
		t.Fatal("Adopt or View copied")
	}
	if !v.Equal(FromBytes([]byte{1, 2, 3, 4})) || v.SizeBytes() != 4 {
		t.Fatal("adopted value differs from its bytes")
	}
}
