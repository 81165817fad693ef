package disk

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocReadWrite(t *testing.T) {
	p := NewPager(16)
	id := p.Alloc()
	if id == NilBlock {
		t.Fatal("Alloc returned NilBlock")
	}
	in := make([]byte, 16)
	for i := range in {
		in[i] = byte(i + 1)
	}
	if err := p.Write(id, in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	if err := p.Read(id, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("byte %d: got %d want %d", i, out[i], in[i])
		}
	}
}

func TestStatsCounting(t *testing.T) {
	p := NewPager(8)
	a := p.Alloc()
	b := p.Alloc()
	buf := make([]byte, 8)
	p.MustWrite(a, buf)
	p.MustWrite(b, buf)
	p.MustRead(a, buf)
	s := p.Stats()
	if s.Reads != 1 || s.Writes != 2 || s.Allocs != 2 || s.Frees != 0 {
		t.Fatalf("unexpected stats %+v", s)
	}
	if s.IOs() != 3 {
		t.Fatalf("IOs = %d, want 3", s.IOs())
	}
	p.MustFree(a)
	if got := p.Allocated(); got != 1 {
		t.Fatalf("Allocated = %d, want 1", got)
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Reads: 5, Writes: 3, Allocs: 2, Frees: 1}
	b := Stats{Reads: 2, Writes: 1, Allocs: 1, Frees: 0}
	d := a.Sub(b)
	if d != (Stats{Reads: 3, Writes: 2, Allocs: 1, Frees: 1}) {
		t.Fatalf("Sub = %+v", d)
	}
	if a.Sub(b).Add(b) != a {
		t.Fatal("Sub then Add is not identity")
	}
}

func TestReadUnallocated(t *testing.T) {
	p := NewPager(8)
	buf := make([]byte, 8)
	if err := p.Read(5, buf); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("err = %v, want ErrBadBlock", err)
	}
	if err := p.Read(NilBlock, buf); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("err = %v, want ErrBadBlock for NilBlock", err)
	}
}

func TestWrongBufferSize(t *testing.T) {
	p := NewPager(8)
	id := p.Alloc()
	if err := p.Read(id, make([]byte, 4)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("Read err = %v, want ErrPageSize", err)
	}
	if err := p.Write(id, make([]byte, 9)); !errors.Is(err, ErrPageSize) {
		t.Fatalf("Write err = %v, want ErrPageSize", err)
	}
}

func TestDoubleFree(t *testing.T) {
	p := NewPager(8)
	id := p.Alloc()
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(id); !errors.Is(err, ErrFreedTwce) {
		t.Fatalf("err = %v, want ErrFreedTwce", err)
	}
}

func TestFreeReuseZeroes(t *testing.T) {
	p := NewPager(4)
	id := p.Alloc()
	p.MustWrite(id, []byte{1, 2, 3, 4})
	p.MustFree(id)
	id2 := p.Alloc()
	if id2 != id {
		t.Fatalf("expected page reuse, got %d want %d", id2, id)
	}
	out := make([]byte, 4)
	p.MustRead(id2, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("byte %d of reused page = %d, want 0", i, v)
		}
	}
}

func TestUseAfterFree(t *testing.T) {
	p := NewPager(8)
	id := p.Alloc()
	p.MustFree(id)
	if err := p.Read(id, make([]byte, 8)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("read after free: err = %v, want ErrBadBlock", err)
	}
}

func TestPagerPanicsOnBadPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for page size 0")
		}
	}()
	NewPager(0)
}

// Property: pages are independent — writing one page never changes another.
func TestPageIsolationProperty(t *testing.T) {
	f := func(vals [][8]byte) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		p := NewPager(8)
		ids := make([]BlockID, len(vals))
		for i, v := range vals {
			ids[i] = p.Alloc()
			b := v
			p.MustWrite(ids[i], b[:])
		}
		for i, v := range vals {
			out := make([]byte, 8)
			p.MustRead(ids[i], out)
			for j := 0; j < 8; j++ {
				if out[j] != v[j] {
					return false
				}
			}
		}
		return true
	}
	// Fixed-seed Rand keeps the property deterministic (testing/quick
	// defaults to a time-seeded generator).
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(74))}
	if testing.Short() {
		cfg.MaxCount = 12
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	p := NewPager(8)
	id := p.Alloc()
	p.MustWrite(id, make([]byte, 8))
	p.ResetStats()
	if p.Stats() != (Stats{}) {
		t.Fatalf("stats not reset: %+v", p.Stats())
	}
	// Allocation bookkeeping is tracked by counters, so Allocated is reset
	// too; this documents the contract.
	if p.Allocated() != 0 {
		t.Fatalf("Allocated after reset = %d", p.Allocated())
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Reads: 1, Writes: 2, Allocs: 3, Frees: 4, Spared: 5}
	if s.String() != "reads=1 writes=2 allocs=3 frees=4 spared=5" {
		t.Fatalf("String = %q", s.String())
	}
	if s.IOs() != 3 || s.ModelIOs() != 8 {
		t.Fatalf("IOs = %d, ModelIOs = %d, want 3 and 8", s.IOs(), s.ModelIOs())
	}
	if d := s.Add(s).Sub(s); d != s {
		t.Fatalf("Add/Sub round trip = %+v", d)
	}
}
