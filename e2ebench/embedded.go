package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"modtx"
)

// embedded-txn: the store as a library, through the modtx facade with
// its defaults. Two goroutines run a closed loop of Zipf-skewed
// operations over preloaded bytes keys and counters: ~30% Get, 10% MGet
// of 4 keys, 20% Set and 40% Update moving an amount between two
// counters. STM commit and validation and the store's routing do the
// work; there is no wire and no log, and the key index is idle after set
// up.
const (
	embKeys     = 1 << 16 // bytes keys
	embCounters = 1 << 10 // counters
	embInitial  = 1000    // each counter's preloaded amount
	embStream   = 1 << 16 // pre-generated operations per worker, replayed in a loop
	embSetups   = 7       // set-ups per run; setup_s is their median
)

const (
	embGet = iota
	embMGet
	embSet
	embUpdate
)

type embOp struct {
	kind  uint8
	keys  [4]int32 // Get/Set: keys[0]; MGet: all four; Update: counters keys[0] -> keys[1]
	delta int64
}

// embStreamFor pre-generates worker w's operations, so the timed loop
// spends nothing on drawing them.
func embStreamFor(seed uint64, w int) []embOp {
	r := workerRand(seed, w)
	keys, ctrs := newSkewed(r, embKeys), newSkewed(r, embCounters)
	ops := make([]embOp, embStream)
	for i := range ops {
		o := &ops[i]
		switch p := r.IntN(100); {
		case p < 30:
			o.kind, o.keys[0] = embGet, int32(keys.next())
		case p < 40:
			o.kind = embMGet
			for j := range o.keys {
				o.keys[j] = int32(keys.next())
			}
		case p < 60:
			o.kind, o.keys[0] = embSet, int32(keys.next())
		default:
			a := ctrs.next()
			o.kind, o.keys[0], o.keys[1], o.delta = embUpdate, int32(a), int32(ctrs.distinct(a)), 1+r.Int64N(10)
		}
	}
	return ops
}

// Span names of the embedded workload.
const (
	spEmbGet = iota
	spEmbMGet
	spEmbSet
	spEmbUpdate
	spEmbBody
)

type embWorker struct {
	failLog
	ops       []embOp
	win       *windowed
	done      int64 // operations completed
	bodies    int64 // Update body invocations
	updates   int64
	spans     *spanBuf
	reqBase   uint64
	mgetKeys  [4]string
	mgetIndex [4]int
}

type embState struct {
	store      *modtx.KV
	keys, ctrs []string
	gens       generations
}

// embSetup opens a store with the facade's defaults and preloads it:
// every key and counter is created in bulk, then given its first value.
func embSetup(keys, ctrs []string) (st *embState, ensure time.Duration, err error) {
	store, err := modtx.OpenKV()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	store.EnsureKeys(keys...)
	store.EnsureCounters(ctrs...)
	ensure = time.Since(t0)
	for _, k := range keys {
		if err := store.Set(k, []byte(makeValue(k, 0))); err != nil {
			store.Close()
			return nil, 0, fmt.Errorf("preload %s: %w", k, err)
		}
	}
	for _, c := range ctrs {
		if _, err := store.CounterAdd(c, embInitial); err != nil {
			store.Close()
			return nil, 0, fmt.Errorf("preload %s: %w", c, err)
		}
	}
	return &embState{store: store, keys: keys, ctrs: ctrs, gens: make(generations, len(keys))}, ensure, nil
}

func runEmbedded(e *env) (*result, error) {
	res := newResult()
	keys, ctrs := keyNames("key:", embKeys), keyNames("acct:", embCounters)
	var st *embState
	var setups, ensures, loads []float64
	for range embSetups {
		if st != nil {
			st.store.Close()
			st = nil
		}
		// Each set-up starts on a clean heap, as a process's first one
		// does, instead of paying to collect the store before it.
		runtime.GC()
		t0 := time.Now()
		s, ensure, err := embSetup(keys, ctrs)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		st = s
		setups = append(setups, d)
		ensures = append(ensures, ensure.Seconds())
		loads = append(loads, float64(len(keys)+len(ctrs))/d)
	}
	defer st.store.Close()
	res.set("setup_s", median(setups))
	res.set("load_keys_per_s", median(loads))

	streams := make([][]embOp, workers)
	for w := range streams {
		streams[w] = embStreamFor(e.seed, w)
	}
	var tr *tracer
	if e.traced {
		// The untraced phase gives the end-to-end figures, the base of
		// trace.overhead_ratio and the CPU share; the traced phase gives
		// the spans.
		base := embPhase(e, st, streams, nil)
		embReport(res, base)
		res.set("client.cpu_us_per_op", ratio(base.cpu.Seconds()*1e6, float64(base.ops)))
		res.set("kv.ensure_s", median(ensures))
		tr = newTracer("kv.get", "kv.mget", "kv.set", "kv.update", "kv.update.body")
		st.store.ResetMetrics()
		before := st.store.Stats()
		ph := embPhase(e, st, streams, tr)
		after := st.store.Stats()
		lat := st.store.StmLatencies()
		commits := float64(after.Commits - before.Commits)
		conflicts := float64(after.Conflicts - before.Conflicts)
		res.set("trace.overhead_ratio", ratio(ph.win.opsPerSec, base.win.opsPerSec))
		res.set("kv.get_us", tr.agg(spEmbGet).meanUs())
		res.set("kv.mget_us", tr.agg(spEmbMGet).meanUs())
		res.set("kv.set_us", tr.agg(spEmbSet).meanUs())
		upd := tr.agg(spEmbUpdate)
		res.set("kv.update_us", upd.meanUs())
		res.set("kv.update_self_us", upd.meanSelfUs())
		res.set("kv.update_attempts", ratio(float64(ph.bodies), float64(ph.updates)))
		res.set("kv.commit_ratio", ratio(commits, commits+conflicts))
		res.set("stm.commit_us", lat.CommitNs.Mean()/1e3)
		res.set("stm.read_only_us", lat.ReadOnlyNs.Mean()/1e3)
		res.set("stm.attempts_mean", lat.Attempts.Mean())
		res.set("stm.conflicts_per_kcommit", ratio(1000*conflicts, commits))
		res.addCounts(ph.ops, ph.failed, ph.failures)
	} else {
		embReport(res, embPhase(e, st, streams, nil))
	}

	// The money is conserved: one consistent snapshot of every counter.
	var sum int64
	err := st.store.View(ctrs, func(v *modtx.KVViewTxn) error {
		sum = 0
		for _, c := range ctrs {
			n, _ := v.Counter(c)
			sum += n
		}
		return nil
	})
	res.check(err == nil && sum == embCounters*embInitial,
		"counter sum %d, want %d (err %v)", sum, embCounters*embInitial, err)

	// Live heap after a full collection; the second GC frees what the
	// first only moved out of sync.Pools.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("mem_mb", float64(ms.HeapAlloc)/(1<<20))
	if tr != nil {
		n, dropped, err := tr.write(e.spans)
		if err != nil {
			return nil, err
		}
		res.note("spans: %d written to %s, %d beyond the cap counted only in the aggregates", n, e.spans, dropped)
	}
	return res, nil
}

// phaseResult is one timed phase of the embedded workload.
type phaseResult struct {
	ops      int64         // operations attempted
	cpu      time.Duration // the benchmark's own CPU time over the phase
	win      windowStats
	failed   int64
	failures []string
	bodies   int64
	updates  int64
}

// embReport sets the end-to-end metrics of a phase and merges its counts.
func embReport(res *result, ph *phaseResult) {
	setWindowMetrics(res, ph.win)
	res.addCounts(ph.ops, ph.failed, ph.failures)
}

// setWindowMetrics sets a closed-loop phase's throughput and latency: the
// median over its windows.
func setWindowMetrics(res *result, st windowStats) {
	res.set("ops_per_s", st.opsPerSec)
	res.set("latency_p50_us", st.p50us)
	res.set("latency_p99_us", st.p99us)
	per := make([]string, len(st.perWindow))
	for i, v := range st.perWindow {
		per[i] = fmt.Sprintf("%.0f", v)
	}
	res.note("latency: %d samples, %d beyond the windows' p99; ops/s by window: %s",
		st.samples, st.beyondP99, strings.Join(per, " "))
}

// embPhase runs the closed loop on every worker for the phase length.
func embPhase(e *env, st *embState, streams [][]embOp, tr *tracer) *phaseResult {
	ws := make([]*embWorker, len(streams))
	for i := range ws {
		ws[i] = &embWorker{ops: streams[i], reqBase: uint64(i) << 48}
		if tr != nil {
			ws[i].spans = tr.buffer()
		}
	}
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(e.seconds)
	wins := make([]*windowed, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		w.win = newWindowed(start, e.seconds)
		wins[i] = w.win
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(e, st, deadline)
		}()
	}
	wg.Wait()
	ph := &phaseResult{cpu: selfCPU() - cpu0, win: summarise(wins)}
	for _, w := range ws {
		ph.ops += w.done
		ph.failed += w.failed
		ph.failures = append(ph.failures, w.failures...)
		ph.bodies += w.bodies
		ph.updates += w.updates
	}
	return ph
}

func (w *embWorker) loop(e *env, st *embState, deadline time.Time) {
	s := st.store
	mask := len(w.ops) - 1
	for i := 0; ; i++ {
		if i&63 == 0 && e.ctx.Err() != nil {
			return
		}
		o := &w.ops[i&mask]
		req := w.reqBase | uint64(i)
		t0 := time.Now()
		switch o.kind {
		case embGet:
			k := int(o.keys[0])
			v, ok, err := s.Get(st.keys[k])
			if w.spans != nil {
				w.spans.add(spEmbGet, req, -1, t0, time.Now())
			}
			switch {
			case err != nil:
				w.fail("Get %s: %v", st.keys[k], err)
			case !ok:
				w.fail("Get %s: missing", st.keys[k])
			default:
				if err := st.gens.check(st.keys, k, string(v)); err != nil {
					w.fail("Get %v", err)
				}
			}
		case embMGet:
			for j, k := range o.keys {
				w.mgetKeys[j], w.mgetIndex[j] = st.keys[k], int(k)
			}
			got, err := s.MGet(w.mgetKeys[:]...)
			if w.spans != nil {
				w.spans.add(spEmbMGet, req, -1, t0, time.Now())
			}
			if err != nil {
				w.fail("MGet: %v", err)
				break
			}
			for j, k := range w.mgetKeys {
				v, ok := got[k]
				if !ok {
					w.fail("MGet %s: missing", k)
				} else if err := st.gens.check(st.keys, w.mgetIndex[j], string(v)); err != nil {
					w.fail("MGet %v", err)
				}
			}
		case embSet:
			k := int(o.keys[0])
			err := s.Set(st.keys[k], []byte(makeValue(st.keys[k], st.gens.issue(k))))
			if w.spans != nil {
				w.spans.add(spEmbSet, req, -1, t0, time.Now())
			}
			if err != nil {
				w.fail("Set %s: %v", st.keys[k], err)
			}
		case embUpdate:
			from, to, d := st.ctrs[o.keys[0]], st.ctrs[o.keys[1]], o.delta
			idx := int32(-1)
			var child time.Duration
			if w.spans != nil {
				idx = w.spans.open(spEmbUpdate, req, t0)
			}
			err := s.Update([]string{from, to}, func(t *modtx.KVTxn) error {
				w.bodies++
				var b0 time.Time
				if w.spans != nil {
					b0 = time.Now()
				}
				t.Add(from, -d)
				t.Add(to, d)
				if w.spans != nil {
					child += w.spans.add(spEmbBody, req, idx, b0, time.Now())
				}
				return nil
			})
			w.updates++
			if w.spans != nil {
				w.spans.close(idx, spEmbUpdate, t0, time.Now(), child)
			}
			if err != nil {
				w.fail("Update %s->%s: %v", from, to, err)
			}
		}
		t1 := time.Now()
		w.win.record(t0, t1)
		w.done++
		if !t1.Before(deadline) {
			return
		}
	}
}
