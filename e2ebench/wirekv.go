package main

import (
	"fmt"
	"sync"
	"time"
)

// wire-kv: an in-memory mtx-kv serve with its defaults, on two
// connections, in two timed phases.
//
//   - load: pipelined SETs of fresh keys, a batch of them in flight per
//     connection. Key-table inserts and per-reply flushes do the work.
//   - serve: a closed loop, one request in flight per connection: ~90%
//     GET, 5% MGET of 4 keys and 5% SET over the loaded keys, Zipf-skewed.
//     Per-request wire cost does the work; the key index and pipelining
//     are idle.
const (
	wkKeys   = 1 << 15 // fresh keys loaded
	wkBatch  = 64      // pipelined SETs in flight per connection while loading
	wkStarts = 5       // servers started and loaded per run; setup_s and load_keys_per_s are medians
	wkStream = 1 << 16 // pre-generated serve operations per worker
)

const (
	wkGet = iota
	wkMGet
	wkSet
)

type wireOp struct {
	kind uint8
	keys [4]int32 // GET/SET: keys[0]; MGET: all four
}

func wkStreamFor(seed uint64, w int) []wireOp {
	r := workerRand(seed, w)
	keys := newSkewed(r, wkKeys)
	ops := make([]wireOp, wkStream)
	for i := range ops {
		o := &ops[i]
		switch p := r.IntN(100); {
		case p < 90:
			o.kind, o.keys[0] = wkGet, int32(keys.next())
		case p < 95:
			o.kind = wkMGet
			for j := range o.keys {
				o.keys[j] = int32(keys.next())
			}
		default:
			o.kind, o.keys[0] = wkSet, int32(keys.next())
		}
	}
	return ops
}

func runWireKV(e *env) (*result, error) {
	res := newResult()
	keys := keyNames("key:", wkKeys)
	var tr *tracer
	if e.traced {
		tr = newTracer(wireSpanNames...)
	}
	// Start and load several servers: setup_s is the median start and
	// load_keys_per_s the median load. The last server serves.
	var srv *proc
	var conns, opened []*client
	defer func() {
		for _, c := range opened {
			c.close()
		}
	}()
	var setups, loads []float64
	var tot loadTotals
	for i := range wkStarts {
		t0 := time.Now()
		p, err := e.serve()
		if err != nil {
			return nil, err
		}
		cs := make([]*client, workers)
		for j := range cs {
			if cs[j], err = dial(e.ctx, p.addr); err != nil {
				return nil, err
			}
			opened = append(opened, cs[j])
			if j == 0 {
				if err := cs[0].ping(); err != nil {
					return nil, err
				}
				setups = append(setups, time.Since(t0).Seconds())
			}
		}
		rate, err := wkLoad(e, res, cs, keys, tr, &tot)
		if err != nil {
			return nil, err
		}
		loads = append(loads, rate)
		st, err := cs[0].stats()
		if err != nil {
			return nil, err
		}
		res.check(st["keys"] == wkKeys, "STATS keys=%d after loading %d keys", st["keys"], wkKeys)
		if i < wkStarts-1 {
			e.procs.kill(p)
			continue
		}
		srv, conns = p, cs
	}
	res.set("setup_s", median(setups))
	res.set("load_keys_per_s", median(loads))
	ctl := conns[0] // control requests go between phases
	if tr != nil {
		// The server's STATS HIST so far covers its load alone.
		var h histDoc
		if err := ctl.statsJSON("HIST", &h); err != nil {
			return nil, err
		}
		res.set("kv.insert_us", h.Ops["set"].mean()/1e3)
		res.set("mtx-kv.load_batch_us", tr.agg(spLoadBatch).meanUs())
		res.set("mtx-kv.reads_per_batch", ratio(float64(tot.reads), float64(tot.batches)))
	}
	gens := make(generations, wkKeys)

	streams := make([][]wireOp, workers)
	for w := range streams {
		streams[w] = wkStreamFor(e.seed, w)
	}
	if tr == nil {
		ws, st := wkServe(e, conns, streams, keys, gens, nil)
		wireReport(res, ws, st)
	} else {
		before, err := sampleServer(srv, ctl)
		if err != nil {
			return nil, err
		}
		base, baseSt := wkServe(e, conns, streams, keys, gens, nil)
		after, err := sampleServer(srv, ctl)
		if err != nil {
			return nil, err
		}
		// The untraced phase gives the end-to-end figures, the base of
		// trace.overhead_ratio and the CPU shares; the traced phase gives
		// the spans.
		wireReport(res, base, baseSt)
		var baseOps int64
		for _, w := range base {
			baseOps += w.done
		}
		setCPULayers(res, before, after, baseOps)
		if _, err := ctl.do("STATS RESET"); err != nil {
			return nil, err
		}
		before, err = sampleServer(srv, ctl)
		if err != nil {
			return nil, err
		}
		ws, st := wkServe(e, conns, streams, keys, gens, tr)
		var h histDoc
		if err := ctl.statsJSON("HIST", &h); err != nil {
			return nil, err
		}
		after, err = sampleServer(srv, ctl)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			res.addCounts(w.done, w.failed, w.failures)
		}
		setWireLayers(res, tr, h, before, after)
		res.set("trace.overhead_ratio", ratio(st.opsPerSec, baseSt.opsPerSec))
	}
	mem, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.set("mem_mb", mem)
	if tr != nil {
		n, dropped, err := tr.write(e.spans)
		if err != nil {
			return nil, err
		}
		res.note("spans: %d written to %s, %d beyond the cap counted only in the aggregates", n, e.spans, dropped)
	}
	return res, nil
}

// wkLoad sets every key to its generation-0 value with pipelined SETs:
// each connection sends a batch of wkBatch requests, then reads their
// replies. A load is measured by count, not time: it returns the keys
// acknowledged per second.
func wkLoad(e *env, res *result, conns []*client, keys []string, tr *tracer, tot *loadTotals) (float64, error) {
	type loadWorker struct {
		failLog
		acked, batches, reads int64
		err                   error
		spans                 *spanBuf
	}
	ls := make([]*loadWorker, len(conns))
	for i := range ls {
		ls[i] = &loadWorker{}
		if tr != nil {
			ls[i].spans = tr.buffer()
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		lw := ls[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.deadline(e.phaseEnd())
			var buf []byte
			var batch []string
			for k := i; k < len(keys); {
				batch = batch[:0]
				for ; k < len(keys) && len(batch) < wkBatch; k += len(conns) {
					batch = append(batch, keys[k])
				}
				t0 := time.Now()
				buf = buf[:0]
				for _, key := range batch {
					buf = append(append(append(append(buf, "SET "...), key...), ' '), makeValue(key, 0)...)
					buf = append(buf, '\n')
				}
				c.w.Write(buf)
				if lw.err = c.w.Flush(); lw.err != nil {
					return
				}
				r0 := c.conn.reads
				for _, key := range batch {
					r, err := c.line()
					if err != nil {
						lw.err = err
						return
					}
					if r == "OK" {
						lw.acked++
					} else {
						lw.fail("load SET %s: reply %q", key, r)
					}
				}
				lw.reads += c.conn.reads - r0
				lw.batches++
				if lw.spans != nil {
					lw.spans.add(spLoadBatch, uint64(i)<<48|uint64(lw.batches), -1, t0, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var acked int64
	for _, lw := range ls {
		if lw.err != nil {
			return 0, fmt.Errorf("load: %w", lw.err)
		}
		res.addCounts(lw.acked+lw.failed, lw.failed, lw.failures)
		acked += lw.acked
		tot.batches += lw.batches
		tot.reads += lw.reads
	}
	return ratio(float64(acked), elapsed.Seconds()), nil
}

// loadTotals counts pipelined batches, and the reads that received their
// replies, over every load of a run.
type loadTotals struct{ batches, reads int64 }

// wkServe runs the serve phase's closed loop on every connection for the
// phase length.
func wkServe(e *env, conns []*client, streams [][]wireOp, keys []string, gens generations, tr *tracer) ([]*wireWorker, windowStats) {
	start := time.Now()
	deadline := start.Add(e.seconds)
	ws := make([]*wireWorker, len(conns))
	wins := make([]*windowed, len(conns))
	for i, c := range conns {
		wins[i] = newWindowed(start, e.seconds)
		ws[i] = &wireWorker{c: c, win: wins[i]}
		if tr != nil {
			ws[i].spans = tr.buffer()
		}
	}
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.c.deadline(e.phaseEnd())
			wkLoop(e, w, uint64(i), streams[i], keys, gens, deadline)
		}()
	}
	wg.Wait()
	return ws, summarise(wins)
}

// wkLoop is one connection's serve loop.
func wkLoop(e *env, w *wireWorker, id uint64, ops []wireOp, keys []string, gens generations, deadline time.Time) {
	mask := len(ops) - 1
	for i := 0; ; i++ {
		if i&63 == 0 && e.ctx.Err() != nil {
			return
		}
		o := &ops[i&mask]
		w.req = id<<48 | uint64(i)
		t0 := time.Now()
		var err error
		switch o.kind {
		case wkGet:
			err = w.get(keys, gens, int(o.keys[0]))
		case wkMGet:
			err = w.mget(keys, gens, o.keys[:])
		case wkSet:
			k := int(o.keys[0])
			_, err = w.set(keys[k], makeValue(keys[k], gens.issue(k)))
		}
		t1 := time.Now()
		w.done++
		if err != nil {
			w.fail("connection %d: %v", id, err)
			return
		}
		w.win.record(t0, t1)
		if !t1.Before(deadline) {
			return
		}
	}
}
