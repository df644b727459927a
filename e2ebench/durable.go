package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"modtx"
)

// wire-durable: mtx-kv serve -data DIR -durability none on two
// closed-loop connections. A round is a fixed number of operations on a
// fresh data directory: ~half TXN ADD transfers between account counters
// (almost always across shards), ~half SETs of fresh evt: keys. Then the
// server is SIGKILLed and restarted on the same directory, and every
// acknowledged write must read back. The fixed size makes recovery
// comparable across rounds and runs; rounds repeat until the phase length
// is used up. Cross-shard commits, WAL record encoding and the
// group-commit batcher's writes do most of the work.
const (
	// durLevel is the level of the timed rounds. At none a commit is
	// acknowledged once its record is queued for the log's batcher, which
	// writes it at once; the file reaches the disk when the kernel flushes
	// it. At fsync every acknowledgement waits for the disk, and the
	// throughput of two connections is the shared disk's fsync latency,
	// which drifts by more than the benchmark's bounds from one run to the
	// next. Traced runs add one round at fsync level, ungated, for the
	// wal.fsync_us and wal.records_per_fsync layer metrics.
	durLevel    = "none"
	durOps      = 16000 // operations per round, over all connections
	durAccounts = 64
	// durMinRounds bounds the rounds from below, so the medians over
	// rounds have a middle even on a slow machine.
	durMinRounds = 3
)

type durOp struct {
	transfer bool
	from, to int16
	delta    int64
}

func durStreamFor(seed uint64, round, w int) []durOp {
	r := workerRand(seed, round*workers+w)
	ops := make([]durOp, durOps/workers)
	for i := range ops {
		if r.IntN(2) == 0 {
			a := r.IntN(durAccounts)
			b := (a + 1 + r.IntN(durAccounts-1)) % durAccounts
			ops[i] = durOp{transfer: true, from: int16(a), to: int16(b), delta: 1 + r.Int64N(100)}
		}
	}
	return ops
}

// durWorker is one connection of a round.
type durWorker struct {
	wireWorker
	acked     []string // evt: keys whose SET was acknowledged
	userBytes int64    // key and value bytes of acknowledged writes
	records   uint64   // log records of the acknowledged writes
}

// durRound is what one round measured.
type durRound struct {
	setup, elapsed, recover time.Duration
	ws                      []*wireWorker
	acked                   []string
	userBytes, dirBytes     int64
	mem                     float64
	before, after           serverSample // around the timed phase
	hist                    histDoc      // traced rounds: the server's histograms over the phase
	wal                     walDoc       // the logs' counters once the phase's records are written
}

func runWireDurable(e *env) (*result, error) {
	res := newResult()
	if !e.traced {
		rs, err := durRounds(e, res, nil, 0)
		if err != nil {
			return nil, err
		}
		durReport(res, rs)
		return res, nil
	}
	// The untraced rounds give the end-to-end figures, the base of
	// trace.overhead_ratio and the CPU shares; the traced rounds give the
	// spans.
	base, err := durRounds(e, res, nil, 0)
	if err != nil {
		return nil, err
	}
	durReport(res, base)
	var ops int64
	var before, after serverSample
	var baseRates, rates []float64
	for _, dr := range base {
		for _, w := range dr.ws {
			ops += w.done
		}
		baseRates = append(baseRates, dr.opsPerSec())
		before.cpu += dr.before.cpu
		before.self += dr.before.self
		after.cpu += dr.after.cpu
		after.self += dr.after.self
	}
	setCPULayers(res, before, after, ops)
	tr := newTracer(wireSpanNames...)
	traced, err := durRounds(e, res, tr, len(base))
	if err != nil {
		return nil, err
	}
	// One ungated round at fsync level times the logs' fsyncs.
	fsync, err := durRoundRun(e, res, len(base)+len(traced), keyNames("acct:", durAccounts), "fsync", nil, false)
	if err != nil {
		return nil, err
	}
	for _, w := range fsync.ws {
		res.addCounts(w.done, w.failed, w.failures)
	}
	var h histDoc
	var wal walDoc
	before, after = serverSample{stats: map[string]int64{}}, serverSample{stats: map[string]int64{}}
	for _, dr := range traced {
		for _, w := range dr.ws {
			res.addCounts(w.done, w.failed, w.failures)
		}
		rates = append(rates, dr.opsPerSec())
		h.add(dr.hist)
		for _, k := range []string{"commits", "conflicts"} {
			after.stats[k] += dr.after.stats[k] - dr.before.stats[k]
		}
		wal.Appends += dr.wal.Appends
		wal.Bytes += dr.wal.Bytes
		wal.AppendN = wal.AppendN.add(dr.wal.AppendN)
	}
	res.set("trace.overhead_ratio", ratio(median(rates), median(baseRates)))
	setWireLayers(res, tr, h, before, after)
	res.set("wal.fsync_us", fsync.wal.FsyncN.mean()/1e3)
	res.set("wal.append_us", wal.AppendN.mean()/1e3)
	res.set("wal.records_per_fsync", ratio(float64(fsync.wal.Appends), float64(fsync.wal.Fsyncs)))
	res.set("wal.bytes_per_record", ratio(float64(wal.Bytes), float64(wal.Appends)))
	n, dropped, err := tr.write(e.spans)
	if err != nil {
		return nil, err
	}
	res.note("spans: %d written to %s, %d beyond the cap counted only in the aggregates", n, e.spans, dropped)
	return res, nil
}

// durRounds runs rounds, numbered from first, until they have used the
// phase length, and at least durMinRounds of them.
func durRounds(e *env, res *result, tr *tracer, first int) ([]*durRound, error) {
	accounts := keyNames("acct:", durAccounts)
	var out []*durRound
	var timed time.Duration
	for r := first; timed < e.seconds || len(out) < durMinRounds; r++ {
		// The first traced round also measures recovery in-process and a
		// replica's catch-up.
		deep := tr != nil && len(out) == 0
		dr, err := durRoundRun(e, res, r, accounts, durLevel, tr, deep)
		if err != nil {
			return nil, err
		}
		out = append(out, dr)
		timed += dr.elapsed
		if e.ctx.Err() != nil {
			return nil, e.ctx.Err()
		}
	}
	return out, nil
}

func (dr *durRound) opsPerSec() float64 {
	var done int64
	for _, w := range dr.ws {
		done += w.done
	}
	return ratio(float64(done), dr.elapsed.Seconds())
}

// durReport sets the metrics every round measures and merges the rounds'
// counts. Each timing is the median over the rounds: a round is one
// fixed-size trial, and the median trial does not move with the shared
// disk's occasional slow second.
func durReport(res *result, rs []*durRound) {
	var samples, user, disk int64
	var opsPerSec, p50s, p99s, keysPerSec, setups, mems, recovers []float64
	var perRound []string
	for _, dr := range rs {
		var h latencyHist
		for _, w := range dr.ws {
			h.merge(&w.hist)
			res.addCounts(w.done, w.failed, w.failures)
		}
		secs := dr.elapsed.Seconds()
		opsPerSec = append(opsPerSec, dr.opsPerSec())
		p50s = append(p50s, h.quantile(0.50)/1e3)
		p99s = append(p99s, h.quantile(0.99)/1e3)
		keysPerSec = append(keysPerSec, ratio(float64(len(dr.acked)), secs))
		perRound = append(perRound, fmt.Sprintf("%.0f", dr.opsPerSec()))
		samples += int64(h.n)
		setups = append(setups, dr.setup.Seconds())
		mems = append(mems, dr.mem)
		recovers = append(recovers, dr.recover.Seconds())
		user += dr.userBytes
		disk += dr.dirBytes
	}
	res.set("ops_per_s", median(opsPerSec))
	res.set("latency_p50_us", median(p50s))
	res.set("latency_p99_us", median(p99s))
	res.set("load_keys_per_s", median(keysPerSec))
	res.set("setup_s", median(setups))
	res.set("mem_mb", median(mems))
	res.set("mtx-kv.recover_s", median(recovers))
	res.set("wal.bytes_per_user_byte", ratio(float64(disk), float64(user)))
	res.note("rounds: %d of %d operations (%d latency samples, %d per round beyond p99); ops/s by round: %s",
		len(rs), durOps, samples, durOps/100, strings.Join(perRound, " "))
}

// durRoundRun runs round r on a fresh data directory at the given
// durability level.
func durRoundRun(e *env, res *result, r int, accounts []string, level string, tr *tracer, deep bool) (*durRound, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("round%d", r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	durable := []string{"-data", dir, "-durability", level}
	dr := &durRound{}

	t0 := time.Now()
	srv, err := e.serve(durable...)
	if err != nil {
		return nil, err
	}
	shardOf, err := accountShards(accounts, srv.shards)
	if err != nil {
		return nil, err
	}
	conns := make([]*client, workers)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()
	for i := range conns {
		if conns[i], err = dial(e.ctx, srv.addr); err != nil {
			return nil, err
		}
		if i == 0 {
			if err := conns[0].ping(); err != nil {
				return nil, err
			}
			dr.setup = time.Since(t0)
		}
	}
	ctl := conns[0]
	if tr != nil {
		if _, err := ctl.do("STATS RESET"); err != nil {
			return nil, err
		}
	}
	if dr.before, err = sampleServer(srv, ctl); err != nil {
		return nil, err
	}

	dws := make([]*durWorker, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range dws {
		w := &durWorker{wireWorker: wireWorker{c: conns[i]}}
		if tr != nil {
			w.spans = tr.buffer()
		}
		dws[i] = w
		ops := durStreamFor(e.seed, r, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.c.deadline(e.phaseEnd())
			w.loop(e, uint64(r*workers+i), ops, accounts, shardOf)
		}()
	}
	wg.Wait()
	dr.elapsed = time.Since(start)
	var records uint64
	for _, w := range dws {
		dr.ws = append(dr.ws, &w.wireWorker)
		dr.acked = append(dr.acked, w.acked...)
		dr.userBytes += w.userBytes
		records += w.records
	}
	if dr.wal, err = durAwaitWritten(ctl, records); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := ctl.statsJSON("HIST", &dr.hist); err != nil {
			return nil, err
		}
	}
	if dr.after, err = sampleServer(srv, ctl); err != nil {
		return nil, err
	}
	if dr.mem, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}

	// Crash, then recover on the same directory.
	e.procs.kill(srv)
	if dr.dirBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	if deep {
		if err := durRecoverInProcess(res, dir, srv.shards); err != nil {
			return nil, err
		}
	}
	restart := durable
	if deep {
		restart = append(durable[:len(durable):len(durable)], "-replicate-addr", "127.0.0.1:0")
	}
	t0 = time.Now()
	srv, err = e.serve(restart...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer e.procs.kill(srv)
	c, err := dial(e.ctx, srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.ping(); err != nil {
		return nil, err
	}
	dr.recover = time.Since(t0)
	if tr != nil {
		tr.buffer().add(spRecover, uint64(r), -1, t0, t0.Add(dr.recover))
	}
	c.deadline(e.phaseEnd())
	if err := durVerify(res, c, "restarted primary", dr.acked, accounts); err != nil {
		return nil, err
	}
	if deep {
		if err := durCatchUp(e, res, srv, dr.acked, accounts); err != nil {
			return nil, err
		}
	}
	return dr, nil
}

// loop runs the worker's operations of one round. shardOf gives each
// account's shard: a transfer within one shard logs one record, a
// transfer across two logs a record in each and a commit marker.
func (w *durWorker) loop(e *env, id uint64, ops []durOp, accounts []string, shardOf []int) {
	for i, o := range ops {
		if i&63 == 0 && e.ctx.Err() != nil {
			return
		}
		w.req = id<<48 | uint64(i)
		t0 := time.Now()
		var ok bool
		var err error
		if o.transfer {
			from, to := accounts[o.from], accounts[o.to]
			if ok, err = w.txnAdd(from, to, o.delta); ok {
				w.userBytes += int64(len(from) + len(to) + 16)
				w.records++
				if shardOf[o.from] != shardOf[o.to] {
					w.records += 2
				}
			}
		} else {
			key := fmt.Sprintf("evt:%d:%07d", id, i)
			val := makeValue(key, 1)
			if ok, err = w.set(key, val); ok {
				w.acked = append(w.acked, key)
				w.userBytes += int64(len(key) + len(val))
				w.records++
			}
		}
		t1 := time.Now()
		w.done++
		if err != nil {
			w.fail("connection %d: %v", id, err)
			return
		}
		w.hist.record(t1.Sub(t0))
	}
}

// accountShards routes the accounts with the store's own hash, through
// an empty in-memory store of the server's shard count.
func accountShards(accounts []string, shards int) ([]int, error) {
	store, err := modtx.OpenKV(modtx.KVWithShards(shards))
	if err != nil {
		return nil, err
	}
	defer store.Close()
	out := make([]int, len(accounts))
	for i, a := range accounts {
		out[i] = store.ShardOf(a)
	}
	return out, nil
}

// durAwaitWritten waits until the server's logs have written want
// records to their files (STATS WAL counts a record in appends once its
// batch's write returns) and returns the logs' counters then. Below the
// fsync level an acknowledged record may still sit in the server's
// memory for a moment, and a SIGKILL loses it; once written, it is in
// the kernel's page cache and must survive the kill. More records than
// want means the benchmark's count is wrong, which fails the run too.
func durAwaitWritten(c *client, want uint64) (walDoc, error) {
	deadline := time.Now().Add(startTimeout)
	for {
		var wal walDoc
		if err := c.statsJSON("WAL", &wal); err != nil {
			return wal, err
		}
		switch {
		case wal.Appends == want:
			return wal, nil
		case wal.Appends > want:
			return wal, fmt.Errorf("server logged %d records, the acknowledged writes make %d", wal.Appends, want)
		case time.Now().After(deadline):
			return wal, fmt.Errorf("server logged %d of %d records after %v", wal.Appends, want, startTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// durVerify checks the durability promise on a server that recovered the
// round's log: every acknowledged evt: key reads back with the value
// written, and the transfers conserved the accounts' sum of 0.
func durVerify(res *result, c *client, who string, acked, accounts []string) error {
	const chunk = 64
	for i := 0; i < len(acked); i += chunk {
		keys := acked[i:min(i+chunk, len(acked))]
		vals, ok, err := c.mget(keys)
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		for j, k := range keys {
			res.check(ok[j] && vals[j] == makeValue(k, 1),
				"%s: acknowledged %s reads back %q (present %v)", who, k, vals[j], ok[j])
		}
	}
	vals, ok, err := c.mget(accounts)
	if err != nil {
		return fmt.Errorf("%s: %w", who, err)
	}
	var sum int64
	for j := range accounts {
		if !ok[j] {
			continue // never touched: 0
		}
		var n int64
		if _, err := fmt.Sscan(vals[j], &n); err != nil {
			res.check(false, "%s: account %s reads %q", who, accounts[j], vals[j])
			continue
		}
		sum += n
	}
	res.check(sum == 0, "%s: account sum %d after recovery, want 0", who, sum)
	return nil
}

// durRecoverInProcess opens a copy of the crashed server's directory with
// kv.Open (through the facade) and times the recovery alone.
func durRecoverInProcess(res *result, dir string, shards int) error {
	cp := dir + "-copy"
	defer os.RemoveAll(cp)
	if err := copyDir(dir, cp); err != nil {
		return err
	}
	t0 := time.Now()
	store, err := modtx.OpenKV(modtx.KVWithShards(shards), modtx.KVWithDurability(cp, modtx.WALFsync))
	if err != nil {
		return fmt.Errorf("recover a copy in-process: %w", err)
	}
	d := time.Since(t0)
	ri := store.WALStats().Recover
	if err := store.Close(); err != nil {
		return err
	}
	res.set("kv.recover_s", d.Seconds())
	res.set("kv.recover_records_per_s", ratio(float64(ri.Records+ri.SnapshotRecords), d.Seconds()))
	return nil
}

// durCatchUp attaches a fresh replica to the recovered primary, times its
// catch-up and checks the durability promise on it too.
func durCatchUp(e *env, res *result, primary *proc, acked, accounts []string) error {
	t0 := time.Now()
	rp, err := e.procs.start(e.ctx, e.mtxkv, "replica", "-primary", primary.replAddr, "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer e.procs.kill(rp)
	c, err := dial(e.ctx, rp.addr)
	if err != nil {
		return err
	}
	defer c.close()
	c.deadline(e.phaseEnd())
	var st replDoc
	for {
		if err := c.statsJSON("REPL", &st); err != nil {
			return err
		}
		if st.Ready {
			break
		}
		if time.Since(t0) > startTimeout {
			return fmt.Errorf("replica not caught up after %v", startTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d := time.Since(t0)
	res.set("cluster.catchup_s", d.Seconds())
	res.set("cluster.catchup_records_per_s", ratio(float64(st.Applied), d.Seconds()))
	return durVerify(res, c, "caught-up replica", acked, accounts)
}
