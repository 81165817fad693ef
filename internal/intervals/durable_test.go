package intervals

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ccidx/internal/disk"
	"ccidx/internal/geom"
	"ccidx/internal/workload"
)

// sortedIvs returns ivs sorted by id (for set comparison).
func sortedIvs(ivs []geom.Interval) []geom.Interval {
	out := append([]geom.Interval(nil), ivs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func managerContent(m *Manager) []geom.Interval {
	var out []geom.Interval
	m.Each(func(iv geom.Interval) bool { out = append(out, iv); return true })
	return sortedIvs(out)
}

func stabIDs(m *Manager, q int64) []uint64 {
	var ids []uint64
	m.Stab(q, func(iv geom.Interval) bool { ids = append(ids, iv.ID); return true })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func intersectIDs(m *Manager, q geom.Interval) []uint64 {
	var ids []uint64
	m.Intersect(q, func(iv geom.Interval) bool { ids = append(ids, iv.ID); return true })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func bruteStabIDs(ivs []geom.Interval, q int64) []uint64 {
	var ids []uint64
	for _, iv := range ivs {
		if iv.Contains(q) {
			ids = append(ids, iv.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func bruteIntersectIDs(ivs []geom.Interval, q geom.Interval) []uint64 {
	var ids []uint64
	for _, iv := range ivs {
		if iv.Intersects(q) {
			ids = append(ids, iv.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestDurableRoundTrip drives a fixed-seed churn workload against a
// file-backed manager and a never-closed in-memory oracle, checkpoints,
// reopens, and oracle-compares every Stab/Intersect result — with and
// without a buffer pool attached to the reopened instance, and with live
// tombstone state (post-churn, pre-rebuild) crossing the checkpoint.
func TestDurableRoundTrip(t *testing.T) {
	const (
		b    = 8
		n0   = 300
		ops  = 500
		span = int64(4000)
	)
	for _, pools := range []bool{false, true} {
		t.Run(fmt.Sprintf("pools=%v", pools), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ivm")
			init := workload.UniformIntervals(7, n0, span, 200)
			durable, err := CreateAt(dir, Config{B: b}, init, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			oracle := New(Config{B: b}, init)
			if pools {
				durable.AttachPool(128, 4)
			}

			churn := workload.ChurnOps(11, workload.SeqIDs(n0), uint64(n0), ops, span, 200)
			apply := func(m *Manager) {
				for i, op := range churn {
					switch op.Kind {
					case workload.ChurnInsert:
						m.Insert(op.Iv)
					case workload.ChurnDelete:
						m.Delete(op.ID)
					}
					// The control cache is warm at the checkpoint and close.
					m.Stab(int64(i*37)%span, func(geom.Interval) bool { return true })
				}
			}
			apply(durable)
			apply(oracle)
			if durable.stabber.DeadCount() == 0 {
				t.Fatal("workload produced no live tombstones; round trip would not cover them")
			}
			if err := durable.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := durable.CloseFiles(); err != nil {
				t.Fatal(err)
			}

			reopened, err := OpenAt(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.CloseFiles()
			if pools {
				reopened.AttachPool(128, 4)
			}
			compareManagers(t, oracle, reopened, span)

			// Keep mutating after reopen: the recovered structures must stay
			// fully functional (inserts, deletes, rebuild bookkeeping).
			churn2 := workload.ChurnOps(13, nil, uint64(n0+ops), 200, span, 200)
			for _, op := range churn2 {
				switch op.Kind {
				case workload.ChurnInsert:
					reopened.Insert(op.Iv)
					oracle.Insert(op.Iv)
				case workload.ChurnDelete:
					if got, want := reopened.Delete(op.ID), oracle.Delete(op.ID); got != want {
						t.Fatalf("post-reopen Delete(%d) = %v, oracle %v", op.ID, got, want)
					}
				}
			}
			compareManagers(t, oracle, reopened, span)
			if err := reopened.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func compareManagers(t *testing.T, oracle, got *Manager, span int64) {
	t.Helper()
	if oracle.Len() != got.Len() {
		t.Fatalf("Len: oracle %d, reopened %d", oracle.Len(), got.Len())
	}
	oc, gc := managerContent(oracle), managerContent(got)
	if len(oc) != len(gc) {
		t.Fatalf("content size: oracle %d, reopened %d", len(oc), len(gc))
	}
	for i := range oc {
		if oc[i] != gc[i] {
			t.Fatalf("content[%d]: oracle %v, reopened %v", i, oc[i], gc[i])
		}
	}
	for q := int64(0); q <= span; q += span / 37 {
		if !equalIDs(stabIDs(oracle, q), stabIDs(got, q)) {
			t.Fatalf("Stab(%d) diverged after reopen", q)
		}
	}
	for lo := int64(0); lo <= span; lo += span / 11 {
		q := geom.Interval{Lo: lo, Hi: lo + span/13}
		if !equalIDs(intersectIDs(oracle, q), intersectIDs(got, q)) {
			t.Fatalf("Intersect(%v) diverged after reopen", q)
		}
	}
}

// crashOutcome records what a faulted workload run acknowledged before the
// injected crash: the live set of every op that RETURNED (acked), plus the
// single op that died mid-flight (nil when the crash hit a checkpoint).
type crashOutcome struct {
	acked    []geom.Interval
	inflight *workload.ChurnOp
}

// candidates returns the recovery oracle: the acked set, and — when an op
// was in flight — the acked set with that op's effect. An acknowledged
// mutation is WAL-logged before it is applied, so it must always be
// recovered; the in-flight op may or may not have reached the log before
// the crash, so either state is legal. Nothing else is.
func (o *crashOutcome) candidates() [][]geom.Interval {
	base := sortedIvs(o.acked)
	cands := [][]geom.Interval{base}
	if op := o.inflight; op != nil {
		switch op.Kind {
		case workload.ChurnInsert:
			dup := false
			for _, iv := range o.acked {
				if iv.ID == op.Iv.ID {
					dup = true
					break
				}
			}
			if !dup {
				cands = append(cands, sortedIvs(append(append([]geom.Interval(nil), o.acked...), op.Iv)))
			}
		case workload.ChurnDelete:
			alt := make([]geom.Interval, 0, len(o.acked))
			for _, iv := range o.acked {
				if iv.ID != op.ID {
					alt = append(alt, iv)
				}
			}
			if len(alt) != len(o.acked) {
				cands = append(cands, sortedIvs(alt))
			}
		}
	}
	return cands
}

func equalIvs(a, b []geom.Interval) bool {
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

// TestDurableCrashEveryWrite is the manager-level fault-injection reopen
// suite: a fixed-seed workload with periodic checkpoints runs with a SHARED
// write budget across both devices and the WAL, crashing after the k-th
// file write for every k; reopening must recover EVERY acknowledged
// mutation (checkpointed or merely WAL-logged), tolerating only the one op
// that was in flight at the crash.
func TestDurableCrashEveryWrite(t *testing.T) {
	total := runCrashWorkload(t, filepath.Join(t.TempDir(), "probe"), -1, nil)
	if total < 200 {
		t.Fatalf("workload too small: %d writes", total)
	}
	step := int64(1)
	if testing.Short() {
		step = total/60 + 1
	}
	for k := int64(1); k <= total; k += step {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			// Each crash point owns its directory and workload; nothing
			// is shared between subtests.
			t.Parallel()
			dir := filepath.Join(t.TempDir(), "ivm")
			var out crashOutcome
			runCrashWorkload(t, dir, k, &out)
			reopened, err := OpenAt(dir, DurableOptions{})
			if err != nil {
				t.Fatalf("reopen after crash at write %d: %v", k, err)
			}
			defer reopened.CloseFiles()
			got := managerContent(reopened)
			var match []geom.Interval
			for _, cand := range out.candidates() {
				if equalIvs(got, cand) {
					match = cand
					break
				}
			}
			if match == nil {
				t.Fatalf("crash at write %d: recovered %d intervals, want the %d acknowledged (± the in-flight op)",
					k, len(got), len(out.acked))
			}
			for _, q := range []int64{50, 700, 1500, 2900} {
				if !equalIDs(stabIDs(reopened, q), bruteStabIDs(match, q)) {
					t.Fatalf("crash at write %d: Stab(%d) diverged from acked oracle", k, q)
				}
			}
			for _, q := range []geom.Interval{{Lo: 100, Hi: 400}, {Lo: 2000, Hi: 2600}} {
				if !equalIDs(intersectIDs(reopened, q), bruteIntersectIDs(match, q)) {
					t.Fatalf("crash at write %d: Intersect(%v) diverged from acked oracle", k, q)
				}
			}
			if err := reopened.CheckInvariants(); err != nil {
				t.Fatalf("crash at write %d: %v", k, err)
			}
		})
	}
}

// runCrashWorkload builds a durable manager, arms a shared write budget of
// k file writes (-1 = unfaulted) across both devices and the WAL, and
// replays the fixed churn workload with a checkpoint every ckptEvery ops,
// recording in out the acknowledged live set and the in-flight op at the
// crash. Returns total file writes of an unfaulted run.
func runCrashWorkload(t *testing.T, dir string, k int64, out *crashOutcome) int64 {
	t.Helper()
	const (
		b         = 8
		n0        = 120
		ops       = 270
		ckptEvery = 40
		span      = int64(3000)
	)
	init := workload.UniformIntervals(5, n0, span, 150)
	m, err := CreateAt(dir, Config{B: b}, init, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.CloseFiles()

	live := make(map[uint64]geom.Interval, n0)
	for _, iv := range init {
		live[iv.ID] = iv
	}
	snapshot := func() []geom.Interval {
		out := make([]geom.Interval, 0, len(live))
		for _, iv := range live {
			out = append(out, iv)
		}
		return out
	}

	if k >= 0 {
		m.SetWriteBudget(disk.NewWriteBudget(k))
	}

	churn := workload.ChurnOps(9, workload.SeqIDs(n0), uint64(n0), ops, span, 150)
	crashed := false
	for i, op := range churn {
		op := op
		func() {
			defer func() {
				if p := recover(); p != nil {
					// The mutation died mid-flight on the injected fault: it
					// was never acknowledged, so recovery may legally surface
					// either side of it.
					if !errors.Is(panicErr(p), disk.ErrInjectedFault) {
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
				m.Insert(op.Iv)
				live[op.Iv.ID] = op.Iv
			case workload.ChurnDelete:
				if m.Delete(op.ID) {
					delete(live, op.ID)
				}
			}
			// Every fault lands on a tree whose control cache is populated.
			m.Stab(int64(i*37)%span, func(geom.Interval) bool { return true })
		}()
		if crashed {
			break
		}
		if (i+1)%ckptEvery == 0 {
			if err := m.Checkpoint(); err != nil {
				if !errors.Is(err, disk.ErrInjectedFault) {
					t.Fatalf("checkpoint: %v", err)
				}
				crashed = true
				break
			}
		}
	}
	if out != nil {
		out.acked = snapshot()
	}
	return m.FileWrites()
}

// panicErr extracts an error from a recovered panic value.
func panicErr(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("%v", p)
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

// TestCreateCrashEveryWrite faults a tree-mode CreateAt at every file write
// of an unfaulted create (tree build, WAL reset and initial checkpoint):
// each must return an error wrapping ErrInjectedFault, never panic, and
// leave no device or WAL descriptor open. A budget of exactly the
// unfaulted write count must succeed.
func TestCreateCrashEveryWrite(t *testing.T) {
	init := workload.UniformIntervals(5, 120, 3000, 150)
	create := func(t *testing.T, dir string, budget *disk.WriteBudget) (m *Manager, err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("CreateAt panicked: %v", p)
			}
		}()
		return CreateAt(dir, Config{B: 8}, init, DurableOptions{Budget: budget})
	}
	probe, err := create(t, filepath.Join(t.TempDir(), "probe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	total := probe.FileWrites()
	probe.CloseFiles()
	for k := int64(0); k <= total; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			dir := t.TempDir()
			m, err := create(t, filepath.Join(dir, "ivm"), disk.NewWriteBudget(k))
			if k == total {
				if err != nil {
					t.Fatalf("create within a budget of all %d writes: %v", total, err)
				}
				m.CloseFiles()
			} else if !errors.Is(err, disk.ErrInjectedFault) {
				t.Fatalf("create faulted at write %d returned %v, want ErrInjectedFault", k+1, err)
			}
			if open := openUnder(dir); len(open) > 0 {
				t.Fatalf("create with a budget of %d writes left files open: %v", k, open)
			}
		})
	}
}

// TestCreateAtRefusesExistingDir: re-creating over an existing durable
// manager must fail (it would leak every old page under the new trees);
// OpenAt is the way back in.
func TestCreateAtRefusesExistingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ivm")
	init := workload.UniformIntervals(3, 50, 1000, 80)
	m, err := CreateAt(dir, Config{B: 8}, init, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	space := m.SpaceBlocks()
	m.CloseFiles()
	if _, err := CreateAt(dir, Config{B: 8}, init, DurableOptions{}); err == nil {
		t.Fatal("CreateAt over an existing directory did not error")
	}
	re, err := OpenAt(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseFiles()
	if got := re.SpaceBlocks(); got != space {
		t.Fatalf("SpaceBlocks after reopen = %d, want %d", got, space)
	}
}

// TestDurableCrashBetweenManifestAndCommit exercises the one boundary the
// write-budget sweep cannot hit (the manifest rename is not a device
// write): prepare a new generation, flip the manifest, crash BEFORE
// CommitCheckpoint. Reopening must serve the NEW generation — the rename is
// the commit point — with the stale journal of the previous generation
// discarded.
func TestDurableCrashBetweenManifestAndCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ivm")
	init := workload.UniformIntervals(3, 100, 1000, 80)
	m, err := CreateAt(dir, Config{B: 8}, init, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	extra := geom.Interval{Lo: 11, Hi: 222, ID: 9999}
	m.Insert(extra)
	want := append(append([]geom.Interval(nil), init...), extra)

	// Prepare + manifest flip, no commit: the "crash" window.
	seq := m.Seq() + 1
	if err := m.PrepareCheckpoint(seq); err != nil {
		t.Fatal(err)
	}
	mf, err := disk.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	mf.Seq = seq
	if err := disk.WriteManifest(dir, mf); err != nil {
		t.Fatal(err)
	}
	m.CloseFiles()

	reopened, err := OpenAt(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.CloseFiles()
	got := managerContent(reopened)
	if len(got) != len(want) {
		t.Fatalf("got %d intervals, want %d", len(got), len(want))
	}
	wantS := sortedIvs(want)
	for i := range wantS {
		if got[i] != wantS[i] {
			t.Fatalf("content[%d] = %v, want %v", i, got[i], wantS[i])
		}
	}
}
