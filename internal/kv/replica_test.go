package kv

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// replicaFeeder builds a primary-shaped record stream by hand: dense
// per-shard sequences, cross-shard participants flagged and matched by
// a marker stream — the exact shapes the wire client delivers.
type replicaFeeder struct {
	r      *Replica
	seqs   []uint64
	xseq   uint64
	xid    uint64
	t      *testing.T
	recs   []wal.Record // accumulated when buffered, for interleaving tests
	buffer bool
}

func newFeeder(t *testing.T, r *Replica) *replicaFeeder {
	return &replicaFeeder{r: r, seqs: make([]uint64, r.Shards()), t: t}
}

func (f *replicaFeeder) shardFor(key string) int { return f.r.Store().ShardOf(key) }

// set emits a single-shard set record.
func (f *replicaFeeder) set(key, val string) {
	i := f.shardFor(key)
	f.seqs[i]++
	f.emit(wal.Record{Shard: uint32(i), Seq: f.seqs[i],
		Ops: []wal.Op{{Kind: wal.KindSet, Key: key, Val: []byte(val)}}})
}

// xfer emits a cross-shard transfer: CounterSet on two keys that MUST
// route to different shards, plus the commit marker.
func (f *replicaFeeder) xfer(from, to string, nfrom, nto int64) {
	i, j := f.shardFor(from), f.shardFor(to)
	if i == j {
		f.t.Fatalf("keys %q and %q share shard %d; pick others", from, to, i)
	}
	f.seqs[i]++
	f.seqs[j]++
	f.xid++
	id := 0xFEED0000 + f.xid // the txn id binding records to their marker
	f.emit(wal.Record{Shard: uint32(i), Seq: f.seqs[i], Cross: true, Txn: id,
		Ops: []wal.Op{{Kind: wal.KindCounterSet, Key: from, N: nfrom}}})
	f.emit(wal.Record{Shard: uint32(j), Seq: f.seqs[j], Cross: true, Txn: id,
		Ops: []wal.Op{{Kind: wal.KindCounterSet, Key: to, N: nto}}})
	f.xseq++
	parts := wal.AppendTxnParts(nil, []wal.TxnPart{
		{Shard: uint32(i), Seq: f.seqs[i]},
		{Shard: uint32(j), Seq: f.seqs[j]},
	})
	f.emit(wal.Record{Shard: wal.TxnShard, Seq: f.xseq, Cross: true, Txn: id,
		Ops: []wal.Op{{Kind: wal.KindTxnMarker, Val: parts}}})
}

func (f *replicaFeeder) emit(rec wal.Record) {
	if f.buffer {
		f.recs = append(f.recs, rec)
		return
	}
	if err := f.r.ApplyRecord(rec); err != nil {
		f.t.Fatalf("ApplyRecord(shard %d seq %d): %v", rec.Shard, rec.Seq, err)
	}
}

// twoShardKeys finds two keys routing to distinct shards of r.
func twoShardKeys(t *testing.T, r *Replica, prefix string) (a, b string) {
	a = prefix + "-a0"
	for n := 0; n < 4096; n++ {
		b = fmt.Sprintf("%s-b%d", prefix, n)
		if r.Store().ShardOf(b) != r.Store().ShardOf(a) {
			return a, b
		}
	}
	t.Fatal("no key pair on distinct shards")
	return
}

func mustGet(t *testing.T, s *Store, key string) (string, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return string(v), ok
}

func mustCounter(t *testing.T, s *Store, key string) (int64, bool) {
	t.Helper()
	v, ok, err := s.CounterGet(key)
	if err != nil {
		t.Fatalf("CounterGet(%s): %v", key, err)
	}
	return v, ok
}

func TestReplicaApplyBasic(t *testing.T) {
	r, err := NewReplica(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	f := newFeeder(t, r)
	f.set("alpha", "1")
	f.set("beta", "2")
	f.set("alpha", "3")

	if v, ok := mustGet(t, r.Store(), "alpha"); !ok || v != "3" {
		t.Fatalf("alpha = %q, %v; want 3", v, ok)
	}
	if v, ok := mustGet(t, r.Store(), "beta"); !ok || v != "2" {
		t.Fatalf("beta = %q, %v; want 2", v, ok)
	}
	st := r.Stats()
	if st.Applied != 3 || st.Pending != 0 {
		t.Fatalf("stats = %+v; want applied 3 pending 0", st)
	}
	i := r.Store().ShardOf("alpha")
	if w := r.Watermark(i); w != f.seqs[i] {
		t.Fatalf("watermark(%d) = %d, want %d", i, w, f.seqs[i])
	}
}

func TestReplicaDuplicateAndGap(t *testing.T) {
	r, err := NewReplica(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	rec := func(seq uint64, val string) wal.Record {
		return wal.Record{Shard: 0, Seq: seq,
			Ops: []wal.Op{{Kind: wal.KindSet, Key: "k", Val: []byte(val)}}}
	}
	for _, seq := range []uint64{1, 2} {
		if err := r.ApplyRecord(rec(seq, "v")); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate below the watermark: ignored.
	if err := r.ApplyRecord(rec(1, "stale")); err != nil {
		t.Fatalf("duplicate: %v", err)
	}
	if v, _ := mustGet(t, r.Store(), "k"); v != "v" {
		t.Fatalf("duplicate overwrote: %q", v)
	}
	// Gap: rejected with ErrReplicaGap.
	if err := r.ApplyRecord(rec(5, "x")); err == nil {
		t.Fatal("gap accepted")
	}
	if r.Watermark(0) != 2 {
		t.Fatalf("watermark = %d, want 2", r.Watermark(0))
	}
}

func TestReplicaRejectsDurability(t *testing.T) {
	var c config
	WithShards(2)(&c)
	c.durDir = t.TempDir()
	if _, err := NewReplica(func(cc *config) { *cc = c }); err == nil {
		t.Fatal("replica accepted a durable store config")
	}
}

func TestReplicaReadiness(t *testing.T) {
	r, err := NewReplica(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	if r.Ready() {
		t.Fatal("ready with no target")
	}
	a, b := twoShardKeys(t, r, "rdy")
	f := newFeeder(t, r)
	f.set(a, "1")
	target := make([]uint64, r.Shards())
	copy(target, f.seqs)
	target[r.Store().ShardOf(b)]++ // primary is one ahead on b's shard
	r.SetTarget(target)
	if r.Ready() {
		t.Fatal("ready before catching up")
	}
	f.set(b, "1")
	if !r.Ready() {
		t.Fatal("not ready after catching up")
	}
}

// TestReplicaCrossShardLitmus is the replica-semantics litmus, run
// against every registered engine: a stream of cross-shard transfers
// between two counters whose sum is invariant. Subtests are named
// engine/shared after the one version clock, as in the earlier
// engine × clock matrix.
// Concurrent transactional readers must never see the sum mid-transfer
// — cross-shard transactions surface atomically — no matter how the
// record and marker streams interleave.
func TestReplicaCrossShardLitmus(t *testing.T) {
	for _, eng := range stm.Engines() {
		testReplicaCrossShardLitmus(t, eng)
	}
}

func testReplicaCrossShardLitmus(t *testing.T, eng stm.Engine) {
	t.Run(eng.String()+"/shared", func(t *testing.T) {
		r, err := NewReplica(WithShards(4), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Store().Close()
		a, b := twoShardKeys(t, r, "acct")
		f := newFeeder(t, r)
		f.buffer = true

		// Seed both accounts at 500 (sum 1000), then 200 transfers
		// of 1 from a to b, as absolute CounterSets.
		const seed, n = int64(500), 200
		f.xfer(a, b, seed, seed)
		for k := int64(1); k <= n; k++ {
			f.xfer(a, b, seed-k, seed+k)
		}
		recs := f.recs

		// Interleave: per-stream order must hold (per shard and for
		// markers), but across streams anything goes. Walk three
		// cursors, picking randomly among streams with pending work.
		rng := rand.New(rand.NewSource(42))
		byStream := map[uint32][]wal.Record{}
		for _, rec := range recs {
			byStream[rec.Shard] = append(byStream[rec.Shard], rec)
		}
		var streams [][]wal.Record
		for _, s := range byStream {
			streams = append(streams, s)
		}

		stop := make(chan struct{})
		var violations atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var sum int64
					var seen, half bool
					if err := r.Store().View([]string{a, b}, func(t *ViewTxn) error {
						va, oka := t.Counter(a)
						vb, okb := t.Counter(b)
						seen = oka || okb
						half = oka != okb
						sum = va + vb
						return nil
					}); err != nil {
						violations.Add(1)
						return
					}
					if seen && (half || sum != 2*seed) {
						violations.Add(1)
					}
				}
			}()
		}

		for len(streams) > 0 {
			i := rng.Intn(len(streams))
			rec := streams[i][0]
			streams[i] = streams[i][1:]
			if len(streams[i]) == 0 {
				streams = append(streams[:i], streams[i+1:]...)
			}
			if err := r.ApplyRecord(rec); err != nil {
				t.Fatalf("ApplyRecord: %v", err)
			}
		}
		close(stop)
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d atomicity violations: readers saw a partial cross-shard transaction", v)
		}
		var spread int64
		if err := r.Store().View([]string{a, b}, func(t *ViewTxn) error {
			va, _ := t.Counter(a)
			vb, _ := t.Counter(b)
			spread = vb - va
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if spread != 2*n {
			t.Fatalf("final spread = %d, want %d", spread, 2*n)
		}
		st := r.Stats()
		if st.XApplied != n+1 {
			t.Fatalf("xapplied = %d, want %d", st.XApplied, n+1)
		}
		if st.Pending != 0 || len(r.markers) != 0 {
			t.Fatalf("leftover pending %d / markers %d", st.Pending, len(r.markers))
		}
	})
}

// TestReplicaStallsWithoutMarker: a cross-shard participant must NOT
// apply before its marker arrives, and records queued behind it must
// wait too (per-shard prefix order).
func TestReplicaStallsWithoutMarker(t *testing.T) {
	r, err := NewReplica(WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	a, b := twoShardKeys(t, r, "stall")
	i, j := r.Store().ShardOf(a), r.Store().ShardOf(b)

	// Cross-shard parts on both shards, NO marker yet.
	part := func(shard int, seq uint64, key string, n int64) wal.Record {
		return wal.Record{Shard: uint32(shard), Seq: seq, Cross: true,
			Ops: []wal.Op{{Kind: wal.KindCounterSet, Key: key, N: n}}}
	}
	if err := r.ApplyRecord(part(i, 1, a, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyRecord(part(j, 1, b, 20)); err != nil {
		t.Fatal(err)
	}
	// A later single-shard record queues behind the stalled head.
	if err := r.ApplyRecord(wal.Record{Shard: uint32(i), Seq: 2,
		Ops: []wal.Op{{Kind: wal.KindSet, Key: a + "-later", Val: []byte("x")}}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustCounter(t, r.Store(), a); ok {
		t.Fatal("participant applied before marker")
	}
	if _, ok := mustGet(t, r.Store(), a+"-later"); ok {
		t.Fatal("later record overtook stalled cross-shard head")
	}
	if st := r.Stats(); st.Pending != 3 {
		t.Fatalf("pending = %d, want 3", st.Pending)
	}

	parts := wal.AppendTxnParts(nil, []wal.TxnPart{
		{Shard: uint32(i), Seq: 1}, {Shard: uint32(j), Seq: 1}})
	if err := r.ApplyRecord(wal.Record{Shard: wal.TxnShard, Seq: 1,
		Ops: []wal.Op{{Kind: wal.KindTxnMarker, Val: parts}}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustCounter(t, r.Store(), a); v != 10 {
		t.Fatalf("a = %d, want 10", v)
	}
	if v, _ := mustCounter(t, r.Store(), b); v != 20 {
		t.Fatalf("b = %d, want 20", v)
	}
	if _, ok := mustGet(t, r.Store(), a+"-later"); !ok {
		t.Fatal("queued record did not drain after marker")
	}
	if w := r.Watermark(i); w != 2 {
		t.Fatalf("watermark = %d, want 2", w)
	}
}

func TestReplicaResetShard(t *testing.T) {
	r, err := NewReplica(WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	f := newFeeder(t, r)
	f.set("old-key", "stale")
	i := r.Store().ShardOf("old-key")

	// Snapshot at seq 40 replaces the shard: stale value gone, snapshot
	// values in, watermark jumps.
	snap := []wal.Record{{Shard: uint32(i), Seq: 40, Ops: []wal.Op{
		{Kind: wal.KindSet, Key: "old-key", Val: []byte("fresh")},
		{Kind: wal.KindCounterSet, Key: "snap-ctr", N: 7},
	}}}
	if err := r.ResetShard(i, 40, snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, r.Store(), "old-key"); v != "fresh" {
		t.Fatalf("old-key = %q, want fresh", v)
	}
	if v, _ := mustCounter(t, r.Store(), "snap-ctr"); v != 7 {
		t.Fatalf("snap-ctr = %d, want 7", v)
	}
	if w := r.Watermark(i); w != 40 {
		t.Fatalf("watermark = %d, want 40", w)
	}
	// The stream resumes at 41.
	if err := r.ApplyRecord(wal.Record{Shard: uint32(i), Seq: 41,
		Ops: []wal.Op{{Kind: wal.KindSet, Key: "old-key", Val: []byte("41")}}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := mustGet(t, r.Store(), "old-key"); v != "41" {
		t.Fatalf("old-key = %q, want 41", v)
	}
}

// TestReplicaFromPrimaryLog is the end-to-end tentpole check at the
// package level: run a real durable primary (updates, deletes, and
// cross-shard transfers), then ship its actual on-disk log — segments
// and marker log, via the same ScanSegments the streamer uses — into a
// replica, and require identical state.
func TestReplicaFromPrimaryLog(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	p, err := Open(WithDurability(dir, wal.Batch), WithShards(shards), WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	for i, k := range keys {
		k := k
		if err := p.Update([]string{k, k + "/ctr"}, func(t *Txn) error {
			t.Set(k, []byte(fmt.Sprintf("v%d", i)))
			t.Add(k+"/ctr", int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-shard transfers between counters on distinct shards.
	a, b := keys[0], ""
	for _, k := range keys[1:] {
		if p.ShardOf(k+"/x") != p.ShardOf(a+"/x") {
			b = k
			break
		}
	}
	if b == "" {
		t.Fatal("no cross-shard pair")
	}
	for i := 0; i < 10; i++ {
		if err := p.Update([]string{a + "/x", b + "/x"}, func(t *Txn) error {
			t.Add(a+"/x", -1)
			t.Add(b+"/x", 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Delete(keys[3]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReplica(WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Store().Close()
	// Ship the on-disk log. Order across streams is free; shard-by-
	// shard then markers works because drain holds cross-shard parts
	// until their marker lands. Ship twice to exercise duplicate
	// suppression (reconnect overlap).
	ship := func() {
		for i := 0; i < shards; i++ {
			dir := fmt.Sprintf("%s/shard-%04d", dir, i)
			if _, err := wal.ScanSegments(dir, uint32(i), 1,
				func(rec wal.Record, _ []byte) error { return r.ApplyRecord(rec) }); err != nil {
				t.Fatalf("scan shard %d: %v", i, err)
			}
		}
		if _, err := wal.ScanSegments(dir+"/txn", wal.TxnShard, 1,
			func(rec wal.Record, _ []byte) error { return r.ApplyRecord(rec) }); err != nil {
			t.Fatalf("scan markers: %v", err)
		}
	}
	ship()
	ship()

	// Compare states via a reopened primary.
	p2, err := Open(WithDurability(dir, wal.Batch), WithShards(shards), WithMetrics(false))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, k := range keys {
		pv, pok := mustGet(t, p2, k)
		rv, rok := mustGet(t, r.Store(), k)
		if pok != rok || pv != rv {
			t.Fatalf("%s: primary %q,%v replica %q,%v", k, pv, pok, rv, rok)
		}
		pc, pok := mustCounter(t, p2, k+"/ctr")
		rc, rok := mustCounter(t, r.Store(), k+"/ctr")
		if pok != rok || pc != rc {
			t.Fatalf("%s/ctr: primary %d,%v replica %d,%v", k, pc, pok, rc, rok)
		}
	}
	for _, k := range []string{a + "/x", b + "/x"} {
		pc, _ := mustCounter(t, p2, k)
		rc, _ := mustCounter(t, r.Store(), k)
		if pc != rc {
			t.Fatalf("%s: primary %d replica %d", k, pc, rc)
		}
	}
	if st := r.Stats(); st.XApplied == 0 {
		t.Fatal("no cross-shard transactions were shipped")
	}
}

func BenchmarkKVReplicaApply(b *testing.B) {
	r, err := NewReplica(WithShards(8), WithMetrics(false))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Store().Close()
	keys := make([]string, 64)
	shard := make([]int, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%03d", i)
		shard[i] = r.Store().ShardOf(keys[i])
	}
	seqs := make([]uint64, r.Shards())
	val := []byte("0123456789abcdef")
	rec := wal.Record{Ops: []wal.Op{{Kind: wal.KindSet}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 63
		seqs[shard[k]]++
		rec.Shard = uint32(shard[k])
		rec.Seq = seqs[shard[k]]
		rec.Ops[0].Key = keys[k]
		rec.Ops[0].Val = val
		if err := r.ApplyRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}
