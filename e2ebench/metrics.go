package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two catalogues
// below are the benchmark's contract: BENCHMARK.json lists the same names
// and units (pinned by TestCatalogueMatchesBenchmarkJSON), and every run
// reports every metric of its mode, whatever the workload.
type metricDef struct{ name, unit string }

// endToEnd holds what a user of the store sees, each gated by a bound in
// BENCHMARK.json. Untraced runs report these. Each applies to every
// workload; README.md says what each one measures on each workload.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"mem_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer holds one layer's share of the work, measured from outside
// the layer. Traced runs report these; a layer a workload bypasses
// reports 0. They have no bound, so the p99 latency and the key-loading
// rate are reported here too: every run prints them, but on a shared
// machine they spread wider from run to run than any bound the benchmark
// may set.
var perLayer = []metricDef{
	{"latency_p99_us", "us"},
	{"load_keys_per_s", "keys/s"},
	{"mtx-kv.rtt_us.get", "us"},
	{"mtx-kv.rtt_us.set", "us"},
	{"mtx-kv.rtt_us.mget", "us"},
	{"mtx-kv.rtt_us.txn_add", "us"},
	{"mtx-kv.self_us.get", "us"},
	{"mtx-kv.self_us.set", "us"},
	{"mtx-kv.self_us.txn_add", "us"},
	{"mtx-kv.cpu_us_per_op", "us"},
	{"mtx-kv.load_batch_us", "us"},
	{"mtx-kv.reads_per_batch", "count"},
	{"mtx-kv.recover_s", "s"},
	{"kv.get_us", "us"},
	{"kv.set_us", "us"},
	{"kv.mget_us", "us"},
	{"kv.update_us", "us"},
	{"kv.update_self_us", "us"},
	{"kv.insert_us", "us"},
	{"kv.update_attempts", "count"},
	{"kv.commit_ratio", "ratio"},
	{"kv.ensure_s", "s"},
	{"kv.recover_s", "s"},
	{"kv.recover_records_per_s", "records/s"},
	{"stm.commit_us", "us"},
	{"stm.read_only_us", "us"},
	{"stm.attempts_mean", "count"},
	{"stm.conflicts_per_kcommit", "count"},
	{"wal.fsync_us", "us"},
	{"wal.append_us", "us"},
	{"wal.records_per_fsync", "count"},
	{"wal.bytes_per_record", "bytes"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"cluster.catchup_s", "s"},
	{"cluster.catchup_records_per_s", "records/s"},
	{"client.cpu_us_per_op", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// maxFailureNotes bounds how many failure messages a run keeps for its
// report; the count is always exact.
const maxFailureNotes = 10

// result accumulates one run's outcome. Only the workload's own
// goroutine touches it; workers keep their own counts in a failLog and
// are merged in with addCounts once they have stopped.
type result struct {
	failLog
	attempted int64
	values    map[string]float64
	notes     []string // human-only lines: sample counts, paths
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one correctness check; a failed one counts as a failed
// operation and keeps its message.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// addCounts merges a worker's operation counts and failure messages.
func (r *result) addCounts(attempted, failed int64, failures []string) {
	r.attempted += attempted
	r.failed += failed
	for _, f := range failures {
		if len(r.failures) < maxFailureNotes {
			r.failures = append(r.failures, f)
		}
	}
}

// failLog is one worker's failed operations: the exact count and the
// first few messages.
type failLog struct {
	failed   int64
	failures []string
}

func (f *failLog) fail(format string, args ...any) {
	f.failed++
	if len(f.failures) < maxFailureNotes {
		f.failures = append(f.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.attempted > 0 && r.failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report writes the human-readable table followed by the one-line JSON
// result, which is always the last line. It fails, printing no JSON, when
// a metric of the mode is missing or not finite: that is a bug in the
// workload, not a measurement.
func (r *result) report(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && traced {
			v, ok = 0, true // a layer this workload bypasses costs nothing
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	var b strings.Builder
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %16.4f %s\n", n, r.values[n], unitOf(n))
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "%-32s %16.6f ratio (%d of %d)\n", "failed_ratio", ratio, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(&b, "# FAILED: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// unitOf looks a metric's unit up in the catalogues; metrics reported
// only in the human table carry their unit in their name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// median returns the middle value (mean of the two middle ones for an
// even count) of xs; 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
