package main

import (
	"errors"
	"strconv"
	"strings"
	"time"
)

// Span names of the wire workloads: a client span around each request
// (its round trip), one around each pipelined load batch, and one from a
// restart's exec to its first answered PING.
var wireSpanNames = []string{"mtx-kv.get", "mtx-kv.set", "mtx-kv.mget", "mtx-kv.txn_add", "mtx-kv.load_batch", "mtx-kv.recover"}

const (
	spGet = iota
	spSet
	spMGet
	spTxnAdd
	spLoadBatch
	spRecover
)

// wireWorker drives one connection in a closed loop: one request in
// flight, the next sent when the reply is in. A wrong reply counts as a
// failed operation; an error that leaves the connection out of step with
// the server also ends the worker.
type wireWorker struct {
	failLog
	c     *client
	hist  latencyHist // a durable round's latencies
	win   *windowed   // a serve phase's latencies
	done  int64       // operations attempted
	spans *spanBuf
	req   uint64 // request id of the current request
	buf   []byte
}

// send writes one request line built in w.buf.
func (w *wireWorker) send() error {
	w.buf = append(w.buf, '\n')
	w.c.w.Write(w.buf)
	return w.c.w.Flush()
}

// span records the round trip of the request started at t0.
func (w *wireWorker) span(name int, t0 time.Time) {
	if w.spans != nil {
		w.spans.add(name, w.req, -1, t0, time.Now())
	}
}

// get sends GET keys[k] and checks the reply is a value written for it.
func (w *wireWorker) get(keys []string, gens generations, k int) error {
	t0 := time.Now()
	w.buf = append(append(w.buf[:0], "GET "...), keys[k]...)
	if err := w.send(); err != nil {
		return err
	}
	r, err := w.c.line()
	w.span(spGet, t0)
	if err != nil {
		return err
	}
	v, ok := strings.CutPrefix(r, "VALUE ")
	switch {
	case ok:
		if err := gens.check(keys, k, v); err != nil {
			w.fail("GET %v", err)
		}
	case r == "NIL":
		w.fail("GET %s: NIL for a loaded key", keys[k])
	default:
		w.fail("GET %s: reply %q", keys[k], r)
	}
	return nil
}

// set sends SET key val and checks for OK; it reports whether the write
// was acknowledged.
func (w *wireWorker) set(key, val string) (bool, error) {
	t0 := time.Now()
	w.buf = append(append(append(append(w.buf[:0], "SET "...), key...), ' '), val...)
	if err := w.send(); err != nil {
		return false, err
	}
	r, err := w.c.line()
	w.span(spSet, t0)
	if err != nil {
		return false, err
	}
	if r != "OK" {
		w.fail("SET %s: reply %q", key, r)
		return false, nil
	}
	return true, nil
}

// mget sends MGET for the keys at idx and checks every value.
func (w *wireWorker) mget(keys []string, gens generations, idx []int32) error {
	t0 := time.Now()
	w.buf = append(w.buf[:0], "MGET"...)
	for _, k := range idx {
		w.buf = append(append(w.buf, ' '), keys[k]...)
	}
	if err := w.send(); err != nil {
		return err
	}
	vals, ok, err := w.c.readValues(len(idx))
	w.span(spMGet, t0)
	if errors.Is(err, errServer) {
		w.fail("%v", err)
		return nil
	}
	if err != nil {
		return err
	}
	for i, k := range idx {
		if !ok[i] {
			w.fail("MGET %s: NIL for a loaded key", keys[k])
		} else if err := gens.check(keys, int(k), vals[i]); err != nil {
			w.fail("MGET %v", err)
		}
	}
	return nil
}

// txnAdd sends TXN ADD from -d to d and checks the reply carries the two
// new balances; it reports whether the transfer was acknowledged.
func (w *wireWorker) txnAdd(from, to string, d int64) (bool, error) {
	t0 := time.Now()
	w.buf = append(append(w.buf[:0], "TXN ADD "...), from...)
	w.buf = strconv.AppendInt(append(w.buf, ' '), -d, 10)
	w.buf = append(append(w.buf, ' '), to...)
	w.buf = strconv.AppendInt(append(w.buf, ' '), d, 10)
	if err := w.send(); err != nil {
		return false, err
	}
	r, err := w.c.line()
	w.span(spTxnAdd, t0)
	if err != nil {
		return false, err
	}
	f := strings.Fields(r)
	if len(f) != 3 || f[0] != "VALUES" {
		w.fail("TXN ADD %s %s: reply %q", from, to, r)
		return false, nil
	}
	for _, n := range f[1:] {
		if _, err := strconv.ParseInt(n, 10, 64); err != nil {
			w.fail("TXN ADD %s %s: reply %q", from, to, r)
			return false, nil
		}
	}
	return true, nil
}

// selfUs is a wire request's time outside the store: the client's mean
// round trip minus the server's mean time inside the kv operation.
func selfUs(rtt spanAgg, server histSnap) float64 {
	if rtt.n == 0 {
		return 0
	}
	return rtt.meanUs() - server.mean()/1e3
}

// serverSample is a server's cumulative counters at one instant.
type serverSample struct {
	cpu   time.Duration // server process CPU
	self  time.Duration // benchmark process CPU
	stats map[string]int64
}

func sampleServer(p *proc, c *client) (serverSample, error) {
	s := serverSample{self: selfCPU()}
	var err error
	if s.cpu, err = p.cpuTime(); err != nil {
		return s, err
	}
	s.stats, err = c.stats()
	return s, err
}

// setWireLayers sets the per-layer metrics of a traced wire phase from
// its spans, the server's histograms over the phase, and the server's
// counters before and after it.
func setWireLayers(res *result, tr *tracer, h histDoc, before, after serverSample) {
	get, set, mget, txn := tr.agg(spGet), tr.agg(spSet), tr.agg(spMGet), tr.agg(spTxnAdd)
	res.set("mtx-kv.rtt_us.get", get.meanUs())
	res.set("mtx-kv.rtt_us.set", set.meanUs())
	res.set("mtx-kv.rtt_us.mget", mget.meanUs())
	res.set("mtx-kv.rtt_us.txn_add", txn.meanUs())
	res.set("mtx-kv.self_us.get", selfUs(get, h.Ops["get"]))
	res.set("mtx-kv.self_us.set", selfUs(set, h.Ops["set"]))
	res.set("mtx-kv.self_us.txn_add", selfUs(txn, h.Ops["update"]))
	res.set("kv.get_us", h.Ops["get"].mean()/1e3)
	res.set("kv.set_us", h.Ops["set"].mean()/1e3)
	res.set("kv.mget_us", h.Ops["view"].mean()/1e3)
	res.set("kv.update_us", h.Ops["update"].mean()/1e3)
	res.set("stm.commit_us", h.Stm.CommitNs.mean()/1e3)
	res.set("stm.read_only_us", h.Stm.ReadOnlyNs.mean()/1e3)
	res.set("stm.attempts_mean", h.Stm.Attempts.mean())
	commits := float64(after.stats["commits"] - before.stats["commits"])
	conflicts := float64(after.stats["conflicts"] - before.stats["conflicts"])
	res.set("kv.commit_ratio", ratio(commits, commits+conflicts))
	res.set("stm.conflicts_per_kcommit", ratio(1000*conflicts, commits))
}

// setCPULayers sets the CPU cost per operation of server and generator
// over an untraced phase of ops operations.
func setCPULayers(res *result, before, after serverSample, ops int64) {
	res.set("mtx-kv.cpu_us_per_op", ratio((after.cpu-before.cpu).Seconds()*1e6, float64(ops)))
	res.set("client.cpu_us_per_op", ratio((after.self-before.self).Seconds()*1e6, float64(ops)))
}

// wireReport sets the end-to-end latency and throughput metrics of a
// closed-loop phase and merges the workers' counts.
func wireReport(res *result, ws []*wireWorker, st windowStats) {
	for _, w := range ws {
		res.addCounts(w.done, w.failed, w.failures)
	}
	setWindowMetrics(res, st)
}
