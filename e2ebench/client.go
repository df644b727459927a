package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// countingConn counts Read calls: how many reads it takes to receive a
// batch of replies shows how the server flushes them.
type countingConn struct {
	net.Conn
	reads int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// client speaks mtx-kv's line protocol on one connection. It is used by
// one goroutine at a time.
type client struct {
	conn *countingConn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dial(ctx context.Context, addr string) (*client, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	// Until a phase sets its own, a deadline bounds every request, so a
	// wedged server fails the run instead of hanging it.
	cc.SetDeadline(time.Now().Add(time.Minute))
	return &client{conn: cc, r: bufio.NewReader(cc), w: bufio.NewWriter(cc)}, nil
}

func (c *client) close() { c.conn.Close() }

// deadline bounds every read and write until t, so a wedged server fails
// the run instead of hanging it.
func (c *client) deadline(t time.Time) { c.conn.SetDeadline(t) }

// line reads one reply line without its newline.
func (c *client) line() (string, error) {
	s, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return s[:len(s)-1], nil
}

// do sends one request line and reads the one-line reply.
func (c *client) do(req string) (string, error) {
	c.w.WriteString(req)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.line()
}

// ping sends PING and expects PONG.
func (c *client) ping() error {
	r, err := c.do("PING")
	if err != nil {
		return err
	}
	if r != "PONG" {
		return fmt.Errorf("PING: reply %q", r)
	}
	return nil
}

var (
	// errBadReply marks a reply that broke the protocol's grammar: the
	// connection can no longer be trusted to stay in step.
	errBadReply = errors.New("malformed reply")
	// errServer marks a well-formed ERR reply.
	errServer = errors.New("server error")
)

// readValues reads an MGET reply for n keys: a "VALUES n" header, then
// one "VALUE v" or "NIL" line per key. A NIL key reads as ok=false.
func (c *client) readValues(n int) (vals []string, ok []bool, err error) {
	h, err := c.line()
	if err != nil {
		return nil, nil, err
	}
	if h != "VALUES "+strconv.Itoa(n) {
		if strings.HasPrefix(h, "ERR ") {
			return nil, nil, fmt.Errorf("%w: MGET: %s", errServer, h)
		}
		return nil, nil, fmt.Errorf("%w: MGET header %q", errBadReply, h)
	}
	vals, ok = make([]string, n), make([]bool, n)
	for i := range n {
		l, err := c.line()
		if err != nil {
			return nil, nil, err
		}
		switch {
		case l == "NIL":
		case strings.HasPrefix(l, "VALUE "):
			vals[i], ok[i] = l[len("VALUE "):], true
		default:
			return nil, nil, fmt.Errorf("%w: MGET line %q", errBadReply, l)
		}
	}
	return vals, ok, nil
}

// mget reads keys in one MGET.
func (c *client) mget(keys []string) ([]string, []bool, error) {
	c.w.WriteString("MGET")
	for _, k := range keys {
		c.w.WriteByte(' ')
		c.w.WriteString(k)
	}
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return nil, nil, err
	}
	return c.readValues(len(keys))
}

// stats reads the aggregate STATS line as name → count.
func (c *client) stats() (map[string]int64, error) {
	r, err := c.do("STATS")
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(r, "STATS kv: ")
	if !ok {
		return nil, fmt.Errorf("%w: STATS %q", errBadReply, r)
	}
	out := map[string]int64{}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("STATS %s: %w", f, err)
		}
		out[k] = n
	}
	return out, nil
}

// statsJSON sends a STATS subcommand and decodes its one-line JSON reply.
func (c *client) statsJSON(sub string, v any) error {
	r, err := c.do("STATS " + sub)
	if err != nil {
		return err
	}
	if err := json.Unmarshal([]byte(r), v); err != nil {
		return fmt.Errorf("STATS %s: %w (reply %.80q)", sub, err, r)
	}
	return nil
}

// histSnap is the part of an obs.Snapshot the benchmark reads: sampled
// count and sum, in the histogram's unit.
type histSnap struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
}

func (h histSnap) mean() float64 { return ratio(float64(h.Sum), float64(h.Count)) }

func (h histSnap) add(o histSnap) histSnap { return histSnap{h.Count + o.Count, h.Sum + o.Sum} }

// histDoc is STATS HIST: per-op and STM-level latency histograms, in ns
// (attempts in attempts).
type histDoc struct {
	Ops map[string]histSnap `json:"ops"`
	Stm struct {
		CommitNs   histSnap `json:"commit_ns"`
		ReadOnlyNs histSnap `json:"read_only_ns"`
		Attempts   histSnap `json:"attempts"`
	} `json:"stm"`
}

// add sums o into d: the histograms of several servers' phases.
func (d *histDoc) add(o histDoc) {
	if d.Ops == nil {
		d.Ops = map[string]histSnap{}
	}
	for k, v := range o.Ops {
		d.Ops[k] = d.Ops[k].add(v)
	}
	d.Stm.CommitNs = d.Stm.CommitNs.add(o.Stm.CommitNs)
	d.Stm.ReadOnlyNs = d.Stm.ReadOnlyNs.add(o.Stm.ReadOnlyNs)
	d.Stm.Attempts = d.Stm.Attempts.add(o.Stm.Attempts)
}

// walDoc is the part of STATS WAL the benchmark reads.
type walDoc struct {
	Appends uint64   `json:"appends"`
	Fsyncs  uint64   `json:"fsyncs"`
	Bytes   uint64   `json:"bytes"`
	AppendN histSnap `json:"append_ns"`
	FsyncN  histSnap `json:"fsync_ns"`
}

// replDoc is the part of a replica's STATS REPL the benchmark reads.
type replDoc struct {
	Ready   bool   `json:"ready"`
	Applied uint64 `json:"applied"`
}
