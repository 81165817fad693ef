package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ccidx/internal/classindex"
	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/intervals"
	"ccidx/internal/workload"
)

func sortIDs(ids []uint64) []uint64 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func shardedStabIDs(s *Intervals, q int64) []uint64 {
	var ids []uint64
	s.Stab(q, func(iv geom.Interval) bool { ids = append(ids, iv.ID); return true })
	return sortIDs(ids)
}

func shardedIntersectIDs(s *Intervals, q geom.Interval) []uint64 {
	var ids []uint64
	s.Intersect(q, func(iv geom.Interval) bool { ids = append(ids, iv.ID); return true })
	return sortIDs(ids)
}

func bruteStab(live map[uint64]geom.Interval, q int64) []uint64 {
	var ids []uint64
	for id, iv := range live {
		if iv.Contains(q) {
			ids = append(ids, id)
		}
	}
	return sortIDs(ids)
}

func bruteIntersect(live map[uint64]geom.Interval, q geom.Interval) []uint64 {
	var ids []uint64
	for id, iv := range live {
		if iv.Intersects(q) {
			ids = append(ids, id)
		}
	}
	return sortIDs(ids)
}

// checkInvariants validates every shard's stabbing tree — control-cache
// coherence included — under that shard's read lock.
func (s *Intervals) checkInvariants() error {
	for i, sh := range s.shards {
		var err error
		sh.cell.read(func([]ivOp) { err = sh.mgr.CheckInvariants() })
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func compareSharded(t *testing.T, s *Intervals, live map[uint64]geom.Interval, span int64) {
	t.Helper()
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, oracle has %d", s.Len(), len(live))
	}
	for q := int64(0); q <= span; q += span / 29 {
		if !idsEqual(shardedStabIDs(s, q), bruteStab(live, q)) {
			t.Fatalf("Stab(%d) diverged from oracle", q)
		}
	}
	for lo := int64(0); lo <= span; lo += span / 9 {
		q := geom.Interval{Lo: lo, Hi: lo + span/7}
		if !idsEqual(shardedIntersectIDs(s, q), bruteIntersect(live, q)) {
			t.Fatalf("Intersect(%v) diverged from oracle", q)
		}
	}
}

// TestShardedDurableRoundTrip checkpoints a sharded manager mid-churn,
// reopens it, and oracle-compares every query — across both partitioning
// schemes, with pools on and off, with group-commit batching exercised and
// tombstone state crossing the checkpoint.
func TestShardedDurableRoundTrip(t *testing.T) {
	const span = int64(4000)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"hash-pools", Config{Shards: 3, B: 8, Batch: 4, Partition: PartitionHash, PoolFrames: 64}},
		{"hash-bare", Config{Shards: 3, B: 8, Batch: 1, Partition: PartitionHash, PoolFrames: -1}},
		{"range-pools", Config{Shards: 4, B: 8, Batch: 4, Partition: PartitionRange, Span: span, PoolFrames: 64}},
		{"range-bare", Config{Shards: 4, B: 8, Batch: 1, Partition: PartitionRange, Span: span, PoolFrames: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "sharded")
			init := workload.UniformIntervals(21, 240, span, 250)
			s, err := CreateIntervalsAt(dir, tc.cfg, init, intervals.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			live := map[uint64]geom.Interval{}
			for _, iv := range init {
				live[iv.ID] = iv
			}
			churn := workload.ChurnOps(23, workload.SeqIDs(240), 240, 400, span, 250)
			apply := func(s *Intervals, ops []workload.ChurnOp) {
				for _, op := range ops {
					switch op.Kind {
					case workload.ChurnInsert:
						s.Insert(op.Iv)
						live[op.Iv.ID] = op.Iv
					case workload.ChurnDelete:
						if _, ok := live[op.ID]; ok {
							if !s.Delete(op.ID) {
								t.Fatalf("Delete(%d) = false, oracle has it", op.ID)
							}
							delete(live, op.ID)
						}
					}
				}
			}
			apply(s, churn)
			compareSharded(t, s, live, span)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := OpenIntervals(dir, intervals.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got, want := reopened.Shards(), tc.cfg.shards(); got != want {
				t.Fatalf("reopened with %d shards, want %d", got, want)
			}
			compareSharded(t, reopened, live, span)

			// Serving must resume: more churn, another checkpoint cycle.
			churn2 := workload.ChurnOps(29, nil, 3000, 200, span, 250)
			apply(reopened, churn2)
			compareSharded(t, reopened, live, span)
			if err := reopened.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := reopened.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenIntervals(dir, intervals.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			compareSharded(t, again, live, span)
		})
	}
}

// shardedCrashOutcome records what a faulted sharded run acknowledged
// before the injected crash: the live map of every op that RETURNED, plus
// the single op that died mid-flight (nil when the crash hit a checkpoint).
type shardedCrashOutcome struct {
	acked    map[uint64]geom.Interval
	inflight *workload.ChurnOp
}

// oracles returns the admissible recovery states. Acknowledged mutations
// were WAL-logged on every replica shard before their caller returned, so
// they must all be recovered. The in-flight op may have reached the log on
// only a PREFIX of its replica shards, so a query routed to one slice may
// see its effect while another does not — each query is therefore checked
// against both the acked state and the acked-plus-in-flight state
// independently.
func (o *shardedCrashOutcome) oracles() []map[uint64]geom.Interval {
	out := []map[uint64]geom.Interval{o.acked}
	if op := o.inflight; op != nil {
		alt := make(map[uint64]geom.Interval, len(o.acked)+1)
		for id, iv := range o.acked {
			alt[id] = iv
		}
		switch op.Kind {
		case workload.ChurnInsert:
			alt[op.Iv.ID] = op.Iv
		case workload.ChurnDelete:
			delete(alt, op.ID)
		}
		out = append(out, alt)
	}
	return out
}

// TestShardedCrashEveryWrite is the sharded fault-injection reopen suite:
// one write budget is SHARED across every device and WAL of every shard
// (so the k-th write boundary is global), and reopening after a crash at
// any boundary must recover every acknowledged mutation — replicas
// included — tolerating only the single in-flight op, which under range
// partitioning may have reached some replica shards and not others.
func TestShardedCrashEveryWrite(t *testing.T) {
	total := runShardedCrashWorkload(t, filepath.Join(t.TempDir(), "probe"), -1, nil)
	if total < 200 {
		t.Fatalf("workload too small: %d writes", total)
	}
	// The sharded sweep is coarser than the single-manager one (which
	// steps every boundary): each run replays the workload from scratch
	// across 8 devices. Step through ~400 boundaries full-size, ~40 short.
	step := total/400 + 1
	if testing.Short() {
		step = total/40 + 1
	}
	for k := int64(1); k <= total; k += step {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			// Each crash point owns its directory and workload; nothing
			// is shared between subtests.
			t.Parallel()
			dir := filepath.Join(t.TempDir(), "sharded")
			var out shardedCrashOutcome
			runShardedCrashWorkload(t, dir, k, &out)
			reopened, err := OpenIntervals(dir, intervals.DurableOptions{})
			if err != nil {
				t.Fatalf("reopen after crash at write %d: %v", k, err)
			}
			defer reopened.Close()
			oracles := out.oracles()
			lenOK := false
			for _, om := range oracles {
				if reopened.Len() == len(om) {
					lenOK = true
				}
			}
			if !lenOK {
				t.Fatalf("crash at write %d: Len = %d, want %d acked (± the in-flight op)",
					k, reopened.Len(), len(out.acked))
			}
			check := func(desc string, got []uint64, want func(map[uint64]geom.Interval) []uint64) {
				t.Helper()
				for _, om := range oracles {
					if idsEqual(got, want(om)) {
						return
					}
				}
				t.Fatalf("crash at write %d: %s diverged from acked oracle", k, desc)
			}
			const span = int64(3000)
			for q := int64(0); q <= span; q += span / 17 {
				q := q
				check(fmt.Sprintf("Stab(%d)", q), shardedStabIDs(reopened, q),
					func(om map[uint64]geom.Interval) []uint64 { return bruteStab(om, q) })
			}
			for lo := int64(0); lo <= span; lo += span / 5 {
				q := geom.Interval{Lo: lo, Hi: lo + span/6}
				check(fmt.Sprintf("Intersect(%v)", q), shardedIntersectIDs(reopened, q),
					func(om map[uint64]geom.Interval) []uint64 { return bruteIntersect(om, q) })
			}
			if err := reopened.checkInvariants(); err != nil {
				t.Fatalf("crash at write %d: %v", k, err)
			}
		})
	}
}

// openUnder lists the files under dir that the process holds open, read
// from /proc/self/fd (empty where that is not available).
func openUnder(dir string) []string {
	root, err := filepath.EvalSymlinks(dir)
	if err != nil {
		return nil
	}
	ents, _ := os.ReadDir("/proc/self/fd")
	var open []string
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			open = append(open, target)
		}
	}
	return open
}

// TestCreateCrashEveryWrite faults a sharded tree-mode CreateIntervalsAt at
// every file write of an unfaulted create (every shard's tree build, WAL
// reset and the initial group checkpoint): each must return an error
// wrapping ErrInjectedFault, never panic, and leave no descriptor of any
// shard open. A budget of exactly the unfaulted write count must succeed.
func TestCreateCrashEveryWrite(t *testing.T) {
	cfg := Config{Shards: 4, B: 8, Batch: 3, Partition: PartitionRange, Span: 3000, PoolFrames: 64}
	init := workload.UniformIntervals(31, 100, 3000, 200)
	create := func(t *testing.T, dir string, budget *disk.WriteBudget) (s *Intervals, err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("CreateIntervalsAt panicked: %v", p)
			}
		}()
		return CreateIntervalsAt(dir, cfg, init, intervals.DurableOptions{Budget: budget})
	}
	probe, err := create(t, filepath.Join(t.TempDir(), "probe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	total := probe.FileWrites()
	probe.Close()
	for k := int64(0); k <= total; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			s, err := create(t, filepath.Join(dir, "sharded"), disk.NewWriteBudget(k))
			if k == total {
				if err != nil {
					t.Fatalf("create within a budget of all %d writes: %v", total, err)
				}
				s.Close()
			} else if !errors.Is(err, disk.ErrInjectedFault) {
				t.Fatalf("create faulted at write %d returned %v, want ErrInjectedFault", k+1, err)
			}
			if open := openUnder(dir); len(open) > 0 {
				t.Fatalf("create with a budget of %d writes left files open: %v", k, open)
			}
		})
	}
}

func runShardedCrashWorkload(t *testing.T, dir string, k int64, out *shardedCrashOutcome) int64 {
	t.Helper()
	const (
		span      = int64(3000)
		n0        = 100
		ops       = 240
		ckptEvery = 45
	)
	cfg := Config{Shards: 4, B: 8, Batch: 3, Partition: PartitionRange, Span: span, PoolFrames: 64}
	init := workload.UniformIntervals(31, n0, span, 200)
	s, err := CreateIntervalsAt(dir, cfg, init, intervals.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	live := map[uint64]geom.Interval{}
	for _, iv := range init {
		live[iv.ID] = iv
	}
	if k >= 0 {
		s.SetWriteBudget(disk.NewWriteBudget(k))
	}

	churn := workload.ChurnOps(37, workload.SeqIDs(n0), n0, ops, span, 200)
	crashed := false
	for i, op := range churn {
		op := op
		func() {
			defer func() {
				if p := recover(); p != nil {
					err, ok := p.(error)
					if !ok || !errors.Is(err, disk.ErrInjectedFault) {
						panic(p)
					}
					crashed = true
					if out != nil {
						out.inflight = &op
					}
				}
			}()
			switch op.Kind {
			case workload.ChurnInsert:
				s.Insert(op.Iv)
				live[op.Iv.ID] = op.Iv
			case workload.ChurnDelete:
				if _, ok := live[op.ID]; ok {
					s.Delete(op.ID)
					delete(live, op.ID)
				}
			}
			// Every fault lands on trees whose control caches are populated.
			s.Stab(int64(i*37)%span, func(geom.Interval) bool { return true })
		}()
		if crashed {
			break
		}
		if (i+1)%ckptEvery == 0 {
			if err := s.Checkpoint(); err != nil {
				if !errors.Is(err, disk.ErrInjectedFault) {
					t.Fatalf("checkpoint: %v", err)
				}
				crashed = true
				break
			}
		}
	}
	if out != nil {
		snap := make(map[uint64]geom.Interval, len(live))
		for id, iv := range live {
			snap[id] = iv
		}
		out.acked = snap
	}
	return s.FileWrites()
}

// TestShardedClassesDurableRoundTrip checkpoints a durable sharded class
// index (every strategy), reopens it — hierarchy rebuilt from the manifest
// — and oracle-compares full-extent queries.
func TestShardedClassesDurableRoundTrip(t *testing.T) {
	const span = int64(2000)
	h := workload.RandomHierarchy(41, 24)
	strategies := []classindex.StrategyKind{
		classindex.KindSimple, classindex.KindFullExtent, classindex.KindRakeContract,
	}
	for _, kind := range strategies {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "classes")
			cfg := Config{Shards: 3, B: 8, Batch: 4, Partition: PartitionRange, Span: span, PoolFrames: 64}
			s, err := CreateClassesAt(dir, cfg, h, kind, classindex.DurableOpts{})
			if err != nil {
				t.Fatal(err)
			}
			objs := workload.Objects(43, h, 600, span)
			for _, o := range objs {
				s.Insert(o)
			}
			oracle := NewClasses(Config{Shards: 1, B: 8, PoolFrames: -1}, h, func() ClassIndex {
				return classindex.NewSimple(h, 8)
			})
			for _, o := range objs {
				oracle.Insert(o)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, h2, err := OpenClasses(dir, classindex.DurableOpts{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if h2.Len() != h.Len() {
				t.Fatalf("hierarchy round trip: %d classes, want %d", h2.Len(), h.Len())
			}
			for c := 0; c < h.Len(); c++ {
				for _, q := range []struct{ a1, a2 int64 }{{0, span}, {span / 4, span / 2}, {100, 300}} {
					var want, got []uint64
					oracle.Query(c, q.a1, q.a2, func(_ int64, id uint64) bool {
						want = append(want, id)
						return true
					})
					reopened.Query(c, q.a1, q.a2, func(_ int64, id uint64) bool {
						got = append(got, id)
						return true
					})
					if !idsEqual(sortIDs(want), sortIDs(got)) {
						t.Fatalf("class %d query [%d,%d] diverged after reopen (%d vs %d results)",
							c, q.a1, q.a2, len(want), len(got))
					}
				}
			}
		})
	}
}

// TestShardedClassesWalRecoversAcked: objects inserted after the last
// checkpoint — including ones still sitting in the group-commit buffers
// (Batch > 1) — were WAL-logged at enqueue, so closing WITHOUT a
// checkpoint must lose nothing: reopening replays the per-shard logs and
// every acknowledged object answers queries again.
func TestShardedClassesWalRecoversAcked(t *testing.T) {
	const span = int64(2000)
	h := workload.RandomHierarchy(47, 20)
	dir := filepath.Join(t.TempDir(), "classes")
	cfg := Config{Shards: 3, B: 8, Batch: 8, Partition: PartitionRange, Span: span, PoolFrames: 64}
	s, err := CreateClassesAt(dir, cfg, h, classindex.KindSimple, classindex.DurableOpts{})
	if err != nil {
		t.Fatal(err)
	}
	objs := workload.Objects(53, h, 300, span)
	half := len(objs) / 2
	for _, o := range objs[:half] {
		s.Insert(o)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint inserts: with Batch 8 and no Flush, a tail of these
	// is still buffered in the shard cells when we pull the plug.
	for _, o := range objs[half:] {
		s.Insert(o)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, h2, err := OpenClasses(dir, classindex.DurableOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	oracle := NewClasses(Config{Shards: 1, B: 8, PoolFrames: -1}, h, func() ClassIndex {
		return classindex.NewSimple(h, 8)
	})
	for _, o := range objs {
		oracle.Insert(o)
	}
	for c := 0; c < h2.Len(); c++ {
		var want, got []uint64
		oracle.Query(c, 0, span, func(_ int64, id uint64) bool { want = append(want, id); return true })
		reopened.Query(c, 0, span, func(_ int64, id uint64) bool { got = append(got, id); return true })
		if !idsEqual(sortIDs(want), sortIDs(got)) {
			t.Fatalf("class %d lost acked objects after unclean close (%d vs %d results)",
				c, len(got), len(want))
		}
	}
}
