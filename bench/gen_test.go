package main

import "testing"

func mixedGen(seed int64) *opGen {
	ivs, span := genIntervals(seed, 500)
	return newOpGen(seed+1, span, ivs, 500, 1, func(i int) bool { return i%10 != 9 })
}

func TestSameSeedSameOpStream(t *testing.T) {
	a, b := streamHash(mixedGen(7), 5000), streamHash(mixedGen(7), 5000)
	if a != b {
		t.Errorf("seed 7 hashed to %x and then to %x", a, b)
	}
	if c := streamHash(mixedGen(8), 5000); c == a {
		t.Errorf("seeds 7 and 8 both hashed to %x", a)
	}
}

func TestWritesKeepLiveCountAndIDsDistinct(t *testing.T) {
	g := mixedGen(3)
	for i := 0; i < 5000; i++ {
		g.next()
	}
	if n := len(g.live); n < 499 || n > 501 {
		t.Errorf("live count drifted to %d from 500", n)
	}
	seen := make(map[uint64]bool)
	for _, iv := range g.live {
		if seen[iv.ID] {
			t.Fatalf("id %d is live twice", iv.ID)
		}
		seen[iv.ID] = true
	}
}
