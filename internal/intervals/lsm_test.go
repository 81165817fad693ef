package intervals

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
)

func eqIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLSMChurnOracle drives an in-memory log-structured manager through a
// randomized insert/delete churn, checking Stab/Intersect and the batch
// paths against a live map oracle after every phase.
func TestLSMChurnOracle(t *testing.T) {
	for _, sync := range []bool{true, false} {
		sync := sync
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const span = 1 << 14
			m := New(Config{B: 8, Ingest: &IngestConfig{MemtableSize: 32, MaxRuns: 3, SyncCompaction: sync}}, nil)
			oracle := map[uint64]geom.Interval{}
			nextID := uint64(1)
			for round := 0; round < 60; round++ {
				for i := 0; i < 50; i++ {
					if len(oracle) > 0 && rng.Intn(3) == 0 {
						// delete a random live id
						for id := range oracle {
							if !m.Delete(id) {
								t.Fatalf("delete %d reported absent", id)
							}
							delete(oracle, id)
							break
						}
						continue
					}
					lo := rng.Int63n(span)
					iv := geom.Interval{Lo: lo, Hi: lo + rng.Int63n(256), ID: nextID}
					nextID++
					m.Insert(iv)
					oracle[iv.ID] = iv
				}
				if m.Len() != len(oracle) {
					t.Fatalf("round %d: Len=%d oracle=%d", round, m.Len(), len(oracle))
				}
				q := rng.Int63n(span)
				want := oracleStab(oracle, q)
				if got := collectStab(m, q); !eqIDs(got, want) {
					t.Fatalf("round %d: Stab(%d)=%v want %v", round, q, got, want)
				}
				qi := geom.Interval{Lo: rng.Int63n(span), Hi: 0}
				qi.Hi = qi.Lo + rng.Int63n(512)
				wantI := oracleIntersect(oracle, qi)
				if got := collectIntersect(m, qi); !eqIDs(got, wantI) {
					t.Fatalf("round %d: Intersect(%v)=%v want %v", round, qi, got, wantI)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			// Batched paths against the sequential ones.
			qs := make([]int64, 32)
			for i := range qs {
				qs[i] = rng.Int63n(span)
			}
			got := make([][]uint64, len(qs))
			m.StabBatch(qs, func(qi int, iv geom.Interval) bool {
				got[qi] = append(got[qi], iv.ID)
				return true
			})
			for i, q := range qs {
				sort.Slice(got[i], func(a, b int) bool { return got[i][a] < got[i][b] })
				if want := oracleStab(oracle, q); !eqIDs(got[i], want) {
					t.Fatalf("StabBatch[%d]=%v want %v", i, got[i], want)
				}
			}
			qivs := make([]geom.Interval, 16)
			for i := range qivs {
				lo := rng.Int63n(span)
				qivs[i] = geom.Interval{Lo: lo, Hi: lo + rng.Int63n(512)}
			}
			gotI := make([][]uint64, len(qivs))
			m.IntersectBatch(qivs, func(qi int, iv geom.Interval) bool {
				gotI[qi] = append(gotI[qi], iv.ID)
				return true
			})
			for i, q := range qivs {
				sort.Slice(gotI[i], func(a, b int) bool { return gotI[i][a] < gotI[i][b] })
				if want := oracleIntersect(oracle, q); !eqIDs(gotI[i], want) {
					t.Fatalf("IntersectBatch[%d]=%v want %v", i, gotI[i], want)
				}
			}
			st := m.IngestStats()
			if st.Flushes == 0 {
				t.Fatalf("no flushes recorded: %+v", st)
			}
			if st.Runs > 2*3+1 && sync {
				t.Fatalf("run set not bounded: %+v", st)
			}
		})
	}
}

func oracleStab(oracle map[uint64]geom.Interval, q int64) []uint64 {
	var ids []uint64
	for id, iv := range oracle {
		if iv.Contains(q) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func oracleIntersect(oracle map[uint64]geom.Interval, q geom.Interval) []uint64 {
	var ids []uint64
	for id, iv := range oracle {
		if iv.Intersects(q) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// TestLSMDurableReopen checkpoints a durable log-structured manager
// mid-churn, mutates past the checkpoint, closes WITHOUT checkpointing and
// reopens: the WAL replay must restore every acknowledged mutation.
func TestLSMDurableReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{B: 8, Ingest: &IngestConfig{MemtableSize: 16, MaxRuns: 2, SyncCompaction: true}}
	ivs := make([]geom.Interval, 100)
	for i := range ivs {
		lo := int64(i * 10)
		ivs[i] = geom.Interval{Lo: lo, Hi: lo + 50, ID: uint64(i + 1)}
	}
	m, err := CreateAt(dir, cfg, ivs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]geom.Interval{}
	for _, iv := range ivs {
		oracle[iv.ID] = iv
	}
	rng := rand.New(rand.NewSource(3))
	mutate := func(m *Manager, n int) {
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 && len(oracle) > 0 {
				for id := range oracle {
					m.Delete(id)
					delete(oracle, id)
					break
				}
				continue
			}
			lo := rng.Int63n(2000)
			iv := geom.Interval{Lo: lo, Hi: lo + rng.Int63n(100), ID: uint64(1000 + len(oracle) + i*7919)}
			if _, dup := oracle[iv.ID]; dup {
				continue
			}
			m.Insert(iv)
			oracle[iv.ID] = iv
		}
	}
	mutate(m, 200)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutate(m, 137) // un-checkpointed tail, recovered from the WAL
	if err := m.CloseFiles(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenAt(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.CloseFiles()
	if m2.Len() != len(oracle) {
		t.Fatalf("reopened Len=%d oracle=%d", m2.Len(), len(oracle))
	}
	for q := int64(0); q < 2000; q += 97 {
		if got, want := collectStab(m2, q), oracleStab(oracle, q); !eqIDs(got, want) {
			t.Fatalf("reopened Stab(%d)=%v want %v", q, got, want)
		}
	}
	// And the reopened instance keeps ingesting + checkpointing.
	mutate(m2, 50)
	if err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestLSMCrashSweep exhausts a write budget at every possible k across a
// log-structured workload — landing crashes mid-run-build, mid-merge,
// mid-runstate-stage, mid-manifest and inside WAL-replay-triggered builds
// — and checks the reopened manager equals the acked-set oracle.
func TestLSMCrashSweep(t *testing.T) {
	cfg := Config{B: 4, Ingest: &IngestConfig{MemtableSize: 8, MaxRuns: 2, SyncCompaction: true}}
	const churn = 80
	// Probe run: count total file writes with no fault injected.
	workload := func(dir string, budget *disk.WriteBudget) (acked map[uint64]geom.Interval, writes int64, err error) {
		defer func() {
			if p := recover(); p != nil {
				e, ok := p.(error)
				if !ok || !errors.Is(e, disk.ErrInjectedFault) {
					panic(p)
				}
				err = e
			}
		}()
		ivs := make([]geom.Interval, 20)
		for i := range ivs {
			lo := int64(i * 5)
			ivs[i] = geom.Interval{Lo: lo, Hi: lo + 20, ID: uint64(i + 1)}
		}
		acked = map[uint64]geom.Interval{}
		m, cerr := CreateAt(dir, cfg, ivs, DurableOptions{Budget: budget})
		if cerr != nil {
			return nil, 0, cerr
		}
		defer m.CloseFiles()
		for _, iv := range ivs {
			acked[iv.ID] = iv
		}
		for i := 0; i < churn; i++ {
			if i%4 == 3 {
				id := uint64(i/4*3 + 1)
				if _, live := acked[id]; live {
					m.Delete(id)
					delete(acked, id)
				}
				continue
			}
			lo := int64(i * 13 % 300)
			iv := geom.Interval{Lo: lo, Hi: lo + 25, ID: uint64(100 + i)}
			m.Insert(iv)
			acked[iv.ID] = iv
			if i == 30 {
				if cerr := m.Checkpoint(); cerr != nil {
					return nil, 0, cerr
				}
			}
		}
		if cerr := m.Checkpoint(); cerr != nil {
			return nil, 0, cerr
		}
		return acked, m.FileWrites(), nil
	}

	probeDir := t.TempDir()
	want, total, err := workload(probeDir, nil)
	if err != nil {
		t.Fatalf("probe workload failed: %v", err)
	}
	if total < 20 {
		t.Fatalf("suspiciously few file writes: %d", total)
	}
	mp, err := OpenAt(probeDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Len() != len(want) {
		t.Fatalf("probe reopen Len=%d want %d", mp.Len(), len(want))
	}
	mp.CloseFiles()

	// Every id the workload ever acknowledges (crashing before a delete
	// legitimately resurrects the deleted id, so the membership check is
	// against the ever-acked set, not the final one).
	everAcked := map[uint64]bool{}
	for i := 1; i <= 20; i++ {
		everAcked[uint64(i)] = true
	}
	for i := 0; i < churn; i++ {
		if i%4 != 3 {
			everAcked[uint64(100+i)] = true
		}
	}

	step := int64(3)
	if testing.Short() {
		step = 17
	}
	faulted := 0
	for k := int64(1); k < total; k += step {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			_, _, werr := workload(dir, disk.NewWriteBudget(k))
			if werr == nil {
				// FileWrites slightly overcounts budget-metered writes, so
				// the last few budgets may complete cleanly; the faulted
				// counter below catches a broken budget hookup.
				t.Skip("budget not exhausted")
			}
			faulted++
			// The workload "crashed". Reopen; recovery itself may need a
			// budget — give it unlimited here (crash-the-recovery is the
			// shard-level matrix's job).
			m, oerr := OpenAt(dir, DurableOptions{})
			if oerr != nil {
				// No committed manifest at all (crash before CreateAt
				// finished): treat as never created.
				if _, rerr := disk.ReadManifest(dir); rerr != nil {
					t.Skip("crash before initial checkpoint committed")
				}
				t.Fatalf("reopen after k=%d: %v", k, oerr)
			}
			defer m.CloseFiles()
			// Acked-set check: every mutation acknowledged BEFORE the fault
			// must be present. The workload stops at the first fault, so the
			// acked set is exactly the probe set truncated at the crash — we
			// can't know the cut here, but Stab answers must be a subset of
			// the probe's full acked set and a superset of the ivs committed
			// by checkpoints; the strong full-equality property is covered by
			// the shard crash matrix. Minimal invariant: reopen must not
			// error and queries must be self-consistent with Len.
			seen := map[uint64]bool{}
			m.Each(func(iv geom.Interval) bool {
				seen[iv.ID] = true
				return true
			})
			if len(seen) != m.Len() {
				t.Fatalf("directory/Len mismatch: %d vs %d", len(seen), m.Len())
			}
			for q := int64(0); q < 350; q += 13 {
				m.Stab(q, func(iv geom.Interval) bool {
					if !seen[iv.ID] {
						t.Fatalf("Stab(%d) reported dead/unknown id %d", q, iv.ID)
					}
					if !everAcked[iv.ID] {
						t.Fatalf("Stab(%d) reported never-acked id %d", q, iv.ID)
					}
					return true
				})
			}
		})
	}
	if faulted < int(total/step)/2 {
		t.Fatalf("only %d of ~%d budgets faulted — budget hookup broken?", faulted, total/step)
	}
}

// TestLSMCrashEveryWriteAcked is the strict acked-set variant: replay the
// SAME deterministic op sequence op-by-op, tracking exactly which ops were
// acknowledged before the fault; the reopened manager must contain exactly
// the acked set (WAL-at-ack durability, unchanged from the foreground
// path).
func TestLSMCrashEveryWriteAcked(t *testing.T) {
	cfg := Config{B: 4, Ingest: &IngestConfig{MemtableSize: 8, MaxRuns: 2, SyncCompaction: true}}
	type op struct {
		del bool
		iv  geom.Interval
	}
	var ops []op
	rng := rand.New(rand.NewSource(11))
	live := map[uint64]geom.Interval{}
	for i := 0; i < 80; i++ {
		if len(live) > 4 && rng.Intn(4) == 0 {
			for id, iv := range live {
				ops = append(ops, op{del: true, iv: iv})
				_ = id
				delete(live, id)
				break
			}
			continue
		}
		lo := rng.Int63n(400)
		iv := geom.Interval{Lo: lo, Hi: lo + rng.Int63n(60), ID: uint64(i + 1)}
		ops = append(ops, op{iv: iv})
		live[iv.ID] = iv
	}

	run := func(dir string, budget *disk.WriteBudget) (acked map[uint64]geom.Interval, err error) {
		acked = map[uint64]geom.Interval{}
		var m *Manager
		defer func() {
			if m != nil {
				m.CloseFiles()
			}
			if p := recover(); p != nil {
				e, ok := p.(error)
				if !ok || !errors.Is(e, disk.ErrInjectedFault) {
					panic(p)
				}
				err = e
			}
		}()
		m, cerr := CreateAt(dir, cfg, nil, DurableOptions{Budget: budget})
		if cerr != nil {
			return nil, cerr
		}
		for i, o := range ops {
			if o.del {
				m.Delete(o.iv.ID)
				delete(acked, o.iv.ID)
			} else {
				m.Insert(o.iv)
				acked[o.iv.ID] = o.iv
			}
			if i == 40 {
				if cerr := m.Checkpoint(); cerr != nil {
					return acked, cerr
				}
			}
		}
		err = m.Checkpoint()
		return acked, err
	}

	probeDir := t.TempDir()
	if _, err := run(probeDir, nil); err != nil {
		t.Fatalf("probe: %v", err)
	}
	mp, err := OpenAt(probeDir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := mp.FileWrites()
	mp.CloseFiles()

	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for k := int64(1); k < total; k += step {
		dir := t.TempDir()
		acked, werr := run(dir, disk.NewWriteBudget(k))
		if werr == nil {
			t.Fatalf("budget %d of %d did not fault", k, total)
		}
		m, oerr := OpenAt(dir, DurableOptions{})
		if oerr != nil {
			if _, rerr := disk.ReadManifest(dir); rerr != nil {
				continue // crash before the initial checkpoint: never created
			}
			t.Fatalf("k=%d: reopen: %v", k, oerr)
		}
		got := map[uint64]geom.Interval{}
		m.Each(func(iv geom.Interval) bool {
			got[iv.ID] = iv
			return true
		})
		// The op mid-flight at the crash may or may not have been logged:
		// allow the recovered set to differ from acked by AT MOST that one
		// op (the WAL's single-record loss bound).
		diff := 0
		for id := range acked {
			if _, ok := got[id]; !ok {
				diff++
			}
		}
		for id := range got {
			if _, ok := acked[id]; !ok {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("k=%d: recovered set differs from acked by %d ops (len got=%d acked=%d)",
				k, diff, len(got), len(acked))
		}
		// Query-vs-directory consistency on the recovered image.
		for q := int64(0); q < 450; q += 29 {
			m.Stab(q, func(iv geom.Interval) bool {
				if g, ok := got[iv.ID]; !ok || g != iv {
					t.Fatalf("k=%d: Stab(%d) reported %v not in directory", k, q, iv)
				}
				return true
			})
		}
		m.CloseFiles()
	}
}

// TestLSMBackgroundMergeHammer races background flush/merge/compaction
// against concurrent batched readers (run with -race): one writer mutates
// (mutations are externally serialized per the Manager contract) while
// reader goroutines hammer Stab/Intersect and the batch paths under an
// RWMutex, mirroring the shard layer's locking.
func TestLSMBackgroundMergeHammer(t *testing.T) {
	m := New(Config{B: 8, Ingest: &IngestConfig{MemtableSize: 64, MaxRuns: 3}}, nil)
	var mu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			qs := make([]int64, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range qs {
					qs[i] = rng.Int63n(1 << 12)
				}
				mu.RLock()
				m.StabBatch(qs, func(int, geom.Interval) bool { return true })
				m.Intersect(geom.Interval{Lo: qs[0], Hi: qs[0] + 512}, func(geom.Interval) bool { return true })
				mu.RUnlock()
			}
		}(int64(r))
	}
	rng := rand.New(rand.NewSource(99))
	live := map[uint64]struct{}{}
	nextID := uint64(1)
	for i := 0; i < 20000; i++ {
		mu.Lock()
		if len(live) > 100 && rng.Intn(4) == 0 {
			for id := range live {
				m.Delete(id)
				delete(live, id)
				break
			}
		} else {
			lo := rng.Int63n(1 << 12)
			m.Insert(geom.Interval{Lo: lo, Hi: lo + rng.Int63n(256), ID: nextID})
			live[nextID] = struct{}{}
			nextID++
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if m.Len() != len(live) {
		t.Fatalf("Len=%d live=%d", m.Len(), len(live))
	}
	st := m.IngestStats()
	if st.Flushes == 0 || st.Merges == 0 {
		t.Fatalf("expected background flushes and merges, got %+v", st)
	}
}

// TestLSMCloseQuiescesWorker closes a durable log-structured manager
// WITHOUT a checkpoint while its background worker is likely mid-build
// (each round writes past two memtable sizes immediately before), reopens
// it in process, and oracle-checks the WAL recovery. A worker that outlived
// CloseFiles would keep writing a run directory the reopen garbage-collects
// and whose name WAL replay reuses ("already holds a device"), and would
// read dead maps the closed manager no longer guards. Run with -race.
func TestLSMCloseQuiescesWorker(t *testing.T) {
	const memtable, span = 64, int64(1 << 12)
	dir := t.TempDir()
	cfg := Config{B: 8, Ingest: &IngestConfig{MemtableSize: memtable, MaxRuns: 2}}
	oracle := map[uint64]geom.Interval{}
	var init []geom.Interval
	for i := 0; i < 200; i++ {
		lo := int64(i) * span / 200
		init = append(init, geom.Interval{Lo: lo, Hi: lo + 40, ID: uint64(i + 1)})
		oracle[init[i].ID] = init[i]
	}
	m, err := CreateAt(dir, cfg, init, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { m.CloseFiles() }()
	rng := rand.New(rand.NewSource(17))
	nextID := uint64(1000)
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < 2*memtable+memtable/2; i++ {
			if rng.Intn(3) == 0 {
				// Mostly run-resident ids: the dead-map write the worker's
				// compaction trigger reads beside.
				for id := range oracle {
					if !m.Delete(id) {
						t.Fatalf("round %d: delete %d reported absent", round, id)
					}
					delete(oracle, id)
					break
				}
				continue
			}
			lo := rng.Int63n(span)
			iv := geom.Interval{Lo: lo, Hi: lo + rng.Int63n(128), ID: nextID}
			nextID++
			m.Insert(iv)
			oracle[iv.ID] = iv
		}
		if err := m.CloseFiles(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		re, err := OpenAt(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("round %d: reopen after unclean close: %v", round, err)
		}
		m = re
		if m.Len() != len(oracle) {
			t.Fatalf("round %d: reopened Len=%d oracle=%d", round, m.Len(), len(oracle))
		}
		for q := int64(0); q < span; q += span / 23 {
			if got, want := collectStab(m, q), oracleStab(oracle, q); !eqIDs(got, want) {
				t.Fatalf("round %d: reopened Stab(%d)=%v want %v", round, q, got, want)
			}
		}
	}
}
