package hashmix

import "testing"

// TestFinalisersPinned pins both finalisers to independently computed
// values: catalog sidecars and seeded layers depend on their exact bits.
func TestFinalisersPinned(t *testing.T) {
	for _, c := range []struct{ in, fmix, split uint64 }{
		{0, 0, 0xe220a8397b1dcdaf},
		{1, 0xb456bcfc34c2cb2c, 0x910a2dec89025cc1},
		{0xdeadbeef, 0xd24bd59f862a1dac, 0x4adfb90f68c9eb9b},
	} {
		if got := Fmix64(c.in); got != c.fmix {
			t.Errorf("Fmix64(%#x) = %#x, want %#x", c.in, got, c.fmix)
		}
		if got := SplitMix64(c.in); got != c.split {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.in, got, c.split)
		}
	}
}
