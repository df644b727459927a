package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers GET, SET and MGET like mtx-kv over loopback, except
// that GET number badAt (counting from 1 across connections) is answered
// with badReply.
type fakeServer struct {
	l        net.Listener
	mu       sync.Mutex
	vals     map[string]string
	gets     atomic.Int64
	badAt    int64
	badReply string
	wg       sync.WaitGroup
}

func startFake(t *testing.T, keys []string, badAt int64, badReply string) *fakeServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeServer{l: l, vals: map[string]string{}, badAt: badAt, badReply: badReply}
	for _, k := range keys {
		s.vals[k] = makeValue(k, 0)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c)
			}()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		s.wg.Wait()
	})
	return s
}

func (s *fakeServer) serve(c net.Conn) {
	defer c.Close()
	sc := bufio.NewScanner(c)
	w := bufio.NewWriter(c)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		s.mu.Lock()
		switch f[0] {
		case "GET":
			if s.gets.Add(1) == s.badAt {
				w.WriteString(s.badReply + "\n")
			} else {
				w.WriteString("VALUE " + s.vals[f[1]] + "\n")
			}
		case "SET":
			s.vals[f[1]] = f[2]
			w.WriteString("OK\n")
		case "MGET":
			w.WriteString("VALUES " + string(rune('0'+len(f)-1)) + "\n")
			for _, k := range f[1:] {
				w.WriteString("VALUE " + s.vals[k] + "\n")
			}
		}
		s.mu.Unlock()
		if w.Flush() != nil {
			return
		}
	}
}

// serveFake runs the wire-kv serve loop against a fake server for a
// short phase and returns the run's result.
func serveFake(t *testing.T, badAt int64, badReply string) *result {
	t.Helper()
	keys := keyNames("key:", 64)
	srv := startFake(t, keys, badAt, badReply)
	e := &env{ctx: context.Background(), seed: 7, seconds: 300 * time.Millisecond}
	conns := make([]*client, workers)
	streams := make([][]wireOp, workers)
	for i := range conns {
		c, err := dial(e.ctx, srv.l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		conns[i] = c
		streams[i] = make([]wireOp, 1024)
		for j := range streams[i] {
			streams[i][j] = wireOp{kind: uint8(j % 3), keys: [4]int32{int32(j % 64), 1, 2, 3}}
		}
	}
	res := newResult()
	ws, st := wkServe(e, conns, streams, keys, make(generations, len(keys)), nil)
	wireReport(res, ws, st)
	return res
}

func TestCorrectRepliesPass(t *testing.T) {
	res := serveFake(t, 0, "")
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("failed %d of %d: %v", res.failed, res.attempted, res.failures)
	}
}

// A wrong reply must be counted, and must fail the run: a non-zero exit
// code and "correct": false in the result line.
func TestInjectedBadReplyIsCountedAndFailsTheRun(t *testing.T) {
	for _, bad := range []string{
		"VALUE key:0000005.0.xxxxxxxxxxxxxxxxxxxxxxxxxxxxxx", // another key's value
		"VALUE key:0000000.99.xxxxxxxxxxxxxxxxxxxxxxxxxxxxx", // a generation never written
		"NIL",
		"ERR boom",
	} {
		t.Run(bad, func(t *testing.T) {
			res := serveFake(t, 10, bad)
			if res.failed != 1 {
				t.Fatalf("failed = %d, want exactly the injected reply: %v", res.failed, res.failures)
			}
			for _, m := range []string{"load_keys_per_s", "mem_mb", "setup_s"} {
				res.set(m, 1) // measured outside the serve loop
			}
			var out, errs bytes.Buffer
			if code := finish("wire-kv", res, nil, false, &out, &errs); code == 0 {
				t.Fatalf("exit code 0 with a failed check")
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatal(err)
			}
			if got.Correct || got.Failed != 1 || got.Attempted != res.attempted {
				t.Fatalf("result line %+v", got)
			}
		})
	}
}

func TestSelfTimeIsRoundTripMinusServerOp(t *testing.T) {
	rtt := spanAgg{n: 4, total: 4 * 50_000}      // 50 µs round trips
	server := histSnap{Count: 2, Sum: 2 * 1_500} // 1.5 µs inside kv
	if got := selfUs(rtt, server); got != 48.5 {
		t.Fatalf("self = %v µs, want 48.5", got)
	}
	if got := selfUs(spanAgg{}, server); got != 0 {
		t.Fatalf("self with no requests = %v, want 0", got)
	}
	// A layer with child spans: self time excludes them.
	a := spanAgg{n: 2, total: 10_000, child: 4_000}
	if got := a.meanSelfUs(); got != 3 {
		t.Fatalf("span self = %v µs, want 3", got)
	}
}

func TestGenerationsCheck(t *testing.T) {
	keys := keyNames("key:", 2)
	g := make(generations, 2)
	if err := g.check(keys, 0, makeValue(keys[0], 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.check(keys, 0, makeValue(keys[0], 1)); err == nil {
		t.Fatal("accepted a generation not yet issued")
	}
	g.issue(0)
	if err := g.check(keys, 0, makeValue(keys[0], 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.check(keys, 1, makeValue(keys[0], 0)); err == nil {
		t.Fatal("accepted another key's value")
	}
}

// BENCHMARK.json must name exactly the metrics a run reports.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
