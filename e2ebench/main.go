// Command e2ebench is the repository's end-to-end benchmark. One
// invocation runs one workload for one seed against the real system:
// mtx-kv serve subprocesses over TCP for the wire workloads, and the
// modtx facade in-process for the embedded one. It checks every output,
// and its last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs report the end-to-end metrics. A traced run (-trace 1)
// records a span around every call into a layer, writes the spans to a
// file and reports the per-layer metrics instead. The exit code is 0 only
// when every operation and check succeeded. README.md describes the
// workloads and metrics; run.sh builds everything and runs one workload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workers is the number of client goroutines and connections every
// workload runs: the 2 vCPUs the benchmark was designed on, which the
// generator shares with the server.
const workers = 2

type workload func(e *env) (*result, error)

var workloads = map[string]workload{
	"embedded-txn": runEmbedded,
	"wire-kv":      runWireKV,
	"wire-durable": runWireDurable,
}

// env is what a workload runs with.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration // length of the timed phase
	traced  bool
	mtxkv   string // mtx-kv binary
	dir     string // this run's scratch directory, removed at exit
	spans   string // span file of a traced run
	procs   procSet
}

// serve starts an mtx-kv server with the shipped defaults, listening on
// an ephemeral loopback port, plus any extra flags.
func (e *env) serve(extra ...string) (*proc, error) {
	return e.procs.start(e.ctx, e.mtxkv, append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)...)
}

// phaseEnd is the deadline of a timed phase starting now, with margin for
// the slowest request.
func (e *env) phaseEnd() time.Time { return time.Now().Add(e.seconds + time.Minute) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: embedded-txn, wire-kv or wire-durable")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	mtxkv := fs.String("mtx-kv", "", "mtx-kv binary built from the tree under test (wire workloads)")
	work := fs.String("work", os.TempDir(), "directory for scratch data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: need -workload {embedded-txn|wire-kv|wire-durable}, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if *name != "embedded-txn" && *mtxkv == "" {
		fmt.Fprintln(stderr, "e2ebench: wire workloads need -mtx-kv")
		return 2
	}
	if n := runtime.NumCPU(); n < workers {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(workers)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	e := &env{
		ctx: ctx, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, mtxkv: *mtxkv, dir: dir,
		spans: filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.tsv", *name, *seed)),
	}
	res, err := runWorkload(wl, e)
	return finish(*name, res, err, e.traced, stdout, stderr)
}

// finish reports a run and returns its exit code: 0 only when the
// workload ran, every metric was measured and every operation and check
// succeeded. A run that failed checks still prints its result.
func finish(name string, res *result, err error, traced bool, stdout, stderr io.Writer) int {
	if err == nil {
		err = res.report(stdout, traced)
	}
	if err != nil {
		if res != nil {
			for _, f := range res.failures {
				fmt.Fprintln(stderr, "e2ebench: FAILED:", f)
			}
		}
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", name, err)
		return 1
	}
	if !res.correct() {
		fmt.Fprintf(stderr, "e2ebench: %s: %d of %d operations and checks failed\n", name, res.failed, res.attempted)
		return 1
	}
	return 0
}

// runWorkload runs wl and, on every path, kills the servers it started
// and removes its scratch directory.
func runWorkload(wl workload, e *env) (res *result, err error) {
	defer func() {
		e.procs.killAll()
		if rerr := os.RemoveAll(e.dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	res, err = wl(e)
	if err == nil && e.ctx.Err() != nil {
		err = errors.New("interrupted")
	}
	return res, err
}
