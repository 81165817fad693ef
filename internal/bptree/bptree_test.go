package bptree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ccidx/internal/disk"
)

// bulkLoad bulk-loads entries onto a fresh in-memory pager.
func bulkLoad(b int, entries []Entry, fill Fill) *Tree {
	return BulkLoad(disk.NewPager(PageSize(b)), b, entries, fill)
}

func collectRange(t *Tree, lo, hi int64) []Entry {
	var out []Entry
	t.Range(lo, hi, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(8)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := collectRange(tr, -100, 100); len(got) != 0 {
		t.Fatalf("range on empty tree returned %v", got)
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree reported ok")
	}
}

func TestInsertAndPointLookup(t *testing.T) {
	tr := New(4)
	for i := int64(0); i < 100; i++ {
		if !tr.Insert(i*3, uint64(i)) {
			t.Fatalf("insert %d reported duplicate", i)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := int64(0); i < 100; i++ {
		if !tr.Contains(i*3, uint64(i)) {
			t.Fatalf("missing key %d", i*3)
		}
		if tr.Contains(i*3+1, uint64(i)) {
			t.Fatalf("phantom key %d", i*3+1)
		}
	}
}

func TestDuplicateInsertIgnored(t *testing.T) {
	tr := New(4)
	if !tr.Insert(5, 1) || tr.Insert(5, 1) {
		t.Fatal("duplicate handling wrong")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Same key, different rid is a distinct entry.
	if !tr.Insert(5, 2) {
		t.Fatal("same key different rid rejected")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestRangeOrderedAndComplete(t *testing.T) {
	tr := New(5)
	rng := rand.New(rand.NewSource(7))
	ref := map[Entry]bool{}
	for i := 0; i < 500; i++ {
		e := Entry{Key: rng.Int63n(200), RID: uint64(rng.Intn(5))}
		tr.Insert(e.Key, e.RID)
		ref[e] = true
	}
	got := collectRange(tr, 50, 150)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return Less(got[i], got[j]) }) {
		t.Fatal("range output not sorted")
	}
	want := 0
	for e := range ref {
		if e.Key >= 50 && e.Key <= 150 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range returned %d entries, want %d", len(got), want)
	}
	for _, e := range got {
		if !ref[e] {
			t.Fatalf("phantom entry %v", e)
		}
	}
}

func TestRangeEmptyWhenLoGreaterThanHi(t *testing.T) {
	tr := New(4)
	tr.Insert(1, 1)
	if got := collectRange(tr, 5, 2); len(got) != 0 {
		t.Fatalf("inverted range returned %v", got)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New(4)
	for i := int64(0); i < 50; i++ {
		tr.Insert(i, 0)
	}
	count := 0
	tr.Range(0, 49, func(Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop emitted %d", count)
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := New(4)
	for i := int64(0); i < 64; i++ {
		tr.Insert(i, uint64(i))
	}
	for i := int64(0); i < 64; i += 2 {
		if !tr.Delete(i, uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Delete(0, 0) {
		t.Fatal("second delete of 0 succeeded")
	}
	if tr.Len() != 32 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collectRange(tr, 0, 63)
	if len(got) != 32 {
		t.Fatalf("range after deletes: %d entries", len(got))
	}
	for _, e := range got {
		if e.Key%2 == 0 {
			t.Fatalf("deleted key %d still present", e.Key)
		}
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := New(4)
	for i := int64(0); i < 200; i++ {
		tr.Insert(i, 0)
	}
	perm := rand.New(rand.NewSource(3)).Perm(200)
	for _, i := range perm {
		if !tr.Delete(int64(i), 0) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after deleting all: len=%d height=%d", tr.Len(), tr.Height())
	}
	// The tree must still work.
	tr.Insert(42, 9)
	if !tr.Contains(42, 9) {
		t.Fatal("insert after full drain failed")
	}
}

func TestDuplicateKeysAcrossLeaves(t *testing.T) {
	// Force many entries with the same key so they span several leaves; the
	// composite separators must keep range scans exact.
	tr := New(4)
	for r := uint64(0); r < 40; r++ {
		tr.Insert(7, r)
	}
	tr.Insert(6, 0)
	tr.Insert(8, 0)
	got := collectRange(tr, 7, 7)
	if len(got) != 40 {
		t.Fatalf("got %d duplicates, want 40", len(got))
	}
	for i, e := range got {
		if e.Key != 7 || e.RID != uint64(i) {
			t.Fatalf("entry %d = %v", i, e)
		}
	}
}

func TestMixedInsertDeleteRandomizedAgainstOracle(t *testing.T) {
	tr := New(6)
	rng := rand.New(rand.NewSource(11))
	oracle := map[Entry]bool{}
	for step := 0; step < 5000; step++ {
		e := Entry{Key: rng.Int63n(300), RID: uint64(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			in := tr.Insert(e.Key, e.RID)
			if in == oracle[e] {
				t.Fatalf("step %d: insert %v returned %v, oracle %v", step, e, in, oracle[e])
			}
			oracle[e] = true
		} else {
			rm := tr.Delete(e.Key, e.RID)
			if rm != oracle[e] {
				t.Fatalf("step %d: delete %v returned %v, oracle %v", step, e, rm, oracle[e])
			}
			delete(oracle, e)
		}
		if len(oracle) != tr.Len() {
			t.Fatalf("step %d: len mismatch %d vs %d", step, tr.Len(), len(oracle))
		}
	}
	// Final full scan must equal the oracle.
	var want []Entry
	for e := range oracle {
		want = append(want, e)
	}
	sort.Slice(want, func(i, j int) bool { return Less(want[i], want[j]) })
	var got []Entry
	tr.All(func(e Entry) bool { got = append(got, e); return true })
	if len(got) != len(want) {
		t.Fatalf("scan %d entries, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Key: rng.Int63n(1000), RID: uint64(i)})
	}
	sort.Slice(entries, func(i, j int) bool { return Less(entries[i], entries[j]) })
	bl := bulkLoad(16, entries, FillSlack)
	inc := New(16)
	for _, e := range entries {
		inc.Insert(e.Key, e.RID)
	}
	if bl.Len() != inc.Len() {
		t.Fatalf("len %d vs %d", bl.Len(), inc.Len())
	}
	a := collectRange(bl, 100, 900)
	b := collectRange(inc, 100, 900)
	if len(a) != len(b) {
		t.Fatalf("range sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBulkLoadEmptyAndSingleton(t *testing.T) {
	if tr := bulkLoad(8, nil, FillSlack); tr.Len() != 0 {
		t.Fatal("empty bulk load")
	}
	tr := bulkLoad(8, []Entry{{Key: 5, RID: 1}}, FillSlack)
	if tr.Len() != 1 || !tr.Contains(5, 1) {
		t.Fatal("singleton bulk load")
	}
}

func TestBulkLoadDeduplicates(t *testing.T) {
	tr := bulkLoad(8, []Entry{{Key: 1, RID: 1}, {Key: 1, RID: 1}, {Key: 2, RID: 1}}, FillSlack)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bulkLoad(8, []Entry{{Key: 2}, {Key: 1}}, FillSlack)
}

func TestBulkLoadSupportsFurtherInserts(t *testing.T) {
	entries := make([]Entry, 1000)
	for i := range entries {
		entries[i] = Entry{Key: int64(i * 2), RID: 1}
	}
	tr := bulkLoad(8, entries, FillSlack)
	for i := 0; i < 1000; i++ {
		tr.Insert(int64(i*2+1), 1)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collectRange(tr, 0, 3999)
	if len(got) != 2000 {
		t.Fatalf("scan %d", len(got))
	}
}

// --- I/O complexity tests (the Section 1.1 reference bounds) ---

// TestBulkLoadProperty checks every bulk-loaded tree shape for small B —
// where the internal fan-out cap equals maxSeps+1 — under both fill
// policies: contents, Len, minimum height, node capacities, the leaf
// chain, and that the build read nothing and wrote each page once.
func TestBulkLoadProperty(t *testing.T) {
	for b := 4; b <= 16; b++ {
		for _, fill := range []Fill{FillSlack, FillFull} {
			for n := 0; n <= 300; n++ {
				if err := checkBulkLoad(b, n, fill); err != nil {
					t.Fatalf("b=%d n=%d fill=%d: %v", b, n, fill, err)
				}
			}
		}
	}
}

func checkBulkLoad(b, n int, fill Fill) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	// n distinct entries, keys repeated in runs of three so equal keys
	// span leaves, with every seventh entry repeated to exercise dedup.
	var want, in []Entry
	for i := 0; i < n; i++ {
		e := Entry{Key: int64(i / 3), RID: uint64(i % 3), Val: uint64(i)}
		want = append(want, e)
		in = append(in, e)
		if i%7 == 0 {
			in = append(in, e)
		}
	}
	pager := disk.NewPager(PageSize(b))
	tr := BulkLoad(pager, b, in, fill)

	if st := pager.Stats(); st.Reads != 0 || st.Writes != pager.Allocated() {
		return fmt.Errorf("build did %d reads, %d writes for %d pages", st.Reads, st.Writes, pager.Allocated())
	}
	if tr.Len() != n {
		return fmt.Errorf("Len = %d", tr.Len())
	}
	var got []Entry
	tr.All(func(e Entry) bool {
		got = append(got, e)
		return true
	})
	if len(got) != n {
		return fmt.Errorf("All returned %d entries", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("All entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	leafCap, fanout := tr.caps(fill)
	minHeight := 1
	for span := leafCap; span < n; span *= fanout {
		minHeight++
	}
	if tr.Height() != minHeight {
		return fmt.Errorf("Height = %d, want %d", tr.Height(), minHeight)
	}

	// Walk the tree: capacities, uniform leaf depth, separators equal to
	// each right subtree's first entry, and the leaves in key order.
	var leaves []disk.BlockID
	var walk func(id disk.BlockID, depth int) (Entry, error)
	walk = func(id disk.BlockID, depth int) (Entry, error) {
		nd := tr.readNode(id)
		if nd.leaf {
			if depth != tr.Height() {
				return Entry{}, fmt.Errorf("leaf %d at depth %d", id, depth)
			}
			if len(nd.entries) > b || (len(nd.entries) == 0 && n > 0) {
				return Entry{}, fmt.Errorf("leaf %d holds %d entries", id, len(nd.entries))
			}
			leaves = append(leaves, id)
			if len(nd.entries) == 0 {
				return Entry{}, nil
			}
			return nd.entries[0], nil
		}
		if len(nd.seps) > tr.maxSeps || len(nd.children) != len(nd.seps)+1 || len(nd.children) < 2 {
			return Entry{}, fmt.Errorf("internal %d: %d seps, %d children", id, len(nd.seps), len(nd.children))
		}
		var first Entry
		for i, c := range nd.children {
			f, err := walk(c, depth+1)
			if err != nil {
				return Entry{}, err
			}
			if i == 0 {
				first = f
			} else if !sameKR(f, nd.seps[i-1]) {
				return Entry{}, fmt.Errorf("internal %d: separator %d = %v, subtree starts at %v", id, i-1, nd.seps[i-1], f)
			}
		}
		return first, nil
	}
	if _, err := walk(tr.root, 1); err != nil {
		return err
	}
	id := leaves[0]
	for i := range leaves {
		if id != leaves[i] {
			return fmt.Errorf("leaf chain step %d reaches %d, want %d", i, id, leaves[i])
		}
		id = tr.readNode(id).next
	}
	if id != disk.NilBlock {
		return fmt.Errorf("leaf chain continues past the last leaf to %d", id)
	}
	return nil
}

func TestRangeIOBound(t *testing.T) {
	// Query I/O must be <= c1*log_B(n) + c2*t/B + c3.
	b := 16
	tr := New(b)
	n := 20000
	for i := 0; i < n; i++ {
		tr.Insert(int64(i), 0)
	}
	for _, span := range []int64{0, 10, 100, 1000, 10000} {
		lo := int64(n / 3)
		hi := lo + span
		before := tr.Pager().Stats()
		got := collectRange(tr, lo, hi)
		ios := tr.Pager().Stats().Sub(before).IOs()
		t.Logf("span=%d t=%d ios=%d", span, len(got), ios)
		logBn := logB(n, b)
		bound := 3*int64(logBn) + 2*int64(len(got))/int64(b) + 4
		if ios > bound {
			t.Fatalf("span %d: %d I/Os exceeds bound %d", span, ios, bound)
		}
	}
}

func TestInsertIOBound(t *testing.T) {
	b := 16
	tr := New(b)
	for i := 0; i < 5000; i++ {
		tr.Insert(int64(i%977)*7, uint64(i))
	}
	before := tr.Pager().Stats()
	const extra = 500
	for i := 0; i < extra; i++ {
		tr.Insert(int64(i)*13+1, uint64(i+100000))
	}
	per := float64(tr.Pager().Stats().Sub(before).IOs()) / extra
	bound := float64(4*logB(tr.Len(), b) + 4)
	if per > bound {
		t.Fatalf("amortized insert I/O %.1f exceeds %f", per, bound)
	}
}

func TestSpaceBound(t *testing.T) {
	b := 16
	tr := New(b)
	n := 10000
	for i := 0; i < n; i++ {
		tr.Insert(int64(i), 0)
	}
	pages := tr.Pager().Allocated()
	// O(n/B): generous constant 4 covers half-full leaves plus internals.
	if pages > int64(4*n/b) {
		t.Fatalf("space %d pages exceeds 4n/B = %d", pages, 4*n/b)
	}
}

func logB(n, b int) int {
	l := 0
	v := 1
	for v < n {
		v *= b
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Property test: arbitrary operation sequences preserve the sorted-scan
// invariant and never lose or duplicate entries.
func TestPropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(4 + rng.Intn(12))
		oracle := map[Entry]bool{}
		for i := 0; i < 300; i++ {
			e := Entry{Key: rng.Int63n(40) - 20, RID: uint64(rng.Intn(2))}
			if rng.Intn(3) != 0 {
				tr.Insert(e.Key, e.RID)
				oracle[e] = true
			} else {
				tr.Delete(e.Key, e.RID)
				delete(oracle, e)
			}
		}
		var got []Entry
		tr.All(func(e Entry) bool { got = append(got, e); return true })
		if len(got) != len(oracle) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if !Less(got[i-1], got[i]) {
				return false
			}
		}
		for _, e := range got {
			if !oracle[e] {
				return false
			}
		}
		return true
	}
	// Fixed-seed Rand keeps the property deterministic (testing/quick
	// defaults to a time-seeded generator).
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(71))}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeKeys(t *testing.T) {
	tr := New(4)
	for i := int64(-50); i <= 50; i++ {
		tr.Insert(i, 0)
	}
	got := collectRange(tr, -20, 20)
	if len(got) != 41 {
		t.Fatalf("got %d entries", len(got))
	}
	if got[0].Key != -20 || got[40].Key != 20 {
		t.Fatalf("bounds wrong: %v .. %v", got[0], got[40])
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := New(8)
	for i := 0; i < 10000; i++ {
		tr.Insert(int64(i), 0)
	}
	// With fanout >= 5 (b=8 leaves, derived internal fanout), height should
	// be well under 8 for 10k entries.
	if tr.Height() > 8 {
		t.Fatalf("height %d too large", tr.Height())
	}
}

func TestNewPanicsOnTinyB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2)
}
