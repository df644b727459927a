package fault

import (
	"context"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// NetPlan is a seeded schedule of connection faults. As with DiskPlan,
// the zero plan injects nothing.
type NetPlan struct {
	// Seed fixes the fault schedule.
	Seed uint64

	// CutProb closes the connection mid-write: a prefix of the bytes
	// lands (possibly splitting a frame) and then the conn dies — the
	// mid-frame cut the streamer's reconnect path must absorb.
	CutProb float64
	// DelayProb, with Delay, sleeps before a read or write proceeds.
	DelayProb float64
	Delay     time.Duration
	// StallProb, with Stall, holds a write for a long pause without
	// failing it — a congested or half-dead link rather than a broken
	// one. The peer's read deadline decides whether that kills the
	// session.
	StallProb float64
	Stall     time.Duration
	// DialErrProb fails a Dial attempt outright.
	DialErrProb float64
}

// NetStats counts injected network faults.
type NetStats struct {
	Cuts       int64 // connections cut mid-write
	Delays     int64 // read/write delays
	Stalls     int64 // write stalls
	DialErrs   int64 // failed dials
	Partitions int64 // operations refused while partitioned
	Kills      int64 // live conns closed by turning the partition on
}

// Net injects faults into connections. One Net is shared by every
// conn it wraps: the partition switch and the seeded schedule are
// global to it, which is what lets a chaos test cut "the network"
// rather than one socket.
type Net struct {
	mu          sync.Mutex
	rng         *rand.Rand
	plan        NetPlan
	partitioned bool
	healed      bool
	conns       map[*Conn]struct{}
	stats       NetStats
}

// NewNet builds a fault injector from plan.
func NewNet(plan NetPlan) *Net {
	return &Net{plan: plan, rng: newRNG(plan.Seed), conns: make(map[*Conn]struct{})}
}

// Partition flips the global partition: while set, every wrapped
// conn's reads and writes fail (closing the conn) and dials are
// refused. Turning it on closes every live wrapped conn, counted in
// Kills. Un-partitioning heals new connections; existing ones were
// already killed.
func (n *Net) Partition(on bool) {
	n.mu.Lock()
	n.partitioned = on
	var conns []*Conn
	if on {
		for c := range n.conns {
			conns = append(conns, c)
			delete(n.conns, c)
		}
		n.stats.Kills += int64(len(conns))
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Conn.Close()
	}
}

// Heal stops all scheduled injection (the partition switch is separate
// — heal + partition(false) is a fully healthy network).
func (n *Net) Heal() {
	n.mu.Lock()
	n.healed = true
	n.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (n *Net) Stats() NetStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Wrap interposes the injector on a conn.
func (n *Net) Wrap(c net.Conn) *Conn {
	fc := &Conn{Conn: c, net: n}
	n.mu.Lock()
	n.conns[fc] = struct{}{}
	n.mu.Unlock()
	return fc
}

// Dial dials through the injector: scheduled dial failures, partition
// refusal, and a fault-wrapped conn on success. Drop-in for a
// net.Dialer's DialContext.
func (n *Net) Dial(ctx context.Context, network, addr string) (net.Conn, error) {
	n.mu.Lock()
	if n.partitioned {
		n.stats.Partitions++
		n.mu.Unlock()
		return nil, ErrPartitioned
	}
	fail := !n.healed && n.plan.DialErrProb > 0 && n.rng.Float64() < n.plan.DialErrProb
	if fail {
		n.stats.DialErrs++
	}
	n.mu.Unlock()
	if fail {
		return nil, ErrIO
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return n.Wrap(c), nil
}

// decide draws one fault decision for an op of n bytes (reads pass 0:
// they can be delayed or refused, not cut or stalled).
type netFault struct {
	err   error
	keep  int // bytes to let through before a cut
	sleep time.Duration
}

func (n *Net) decide(c *Conn, nbytes int, write bool) netFault {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned {
		n.stats.Partitions++
		return netFault{err: ErrPartitioned}
	}
	if n.healed {
		return netFault{keep: nbytes}
	}
	f := netFault{keep: nbytes}
	if write && n.plan.CutProb > 0 && n.rng.Float64() < n.plan.CutProb {
		n.stats.Cuts++
		f.keep = nbytes / 2
		f.err = ErrPartitioned
		return f
	}
	if write && n.plan.StallProb > 0 && n.rng.Float64() < n.plan.StallProb {
		n.stats.Stalls++
		f.sleep = n.plan.Stall
		return f
	}
	if n.plan.DelayProb > 0 && n.rng.Float64() < n.plan.DelayProb {
		n.stats.Delays++
		f.sleep = n.plan.Delay
	}
	return f
}

func (n *Net) forget(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// Conn is a fault-injected net.Conn.
type Conn struct {
	net.Conn
	net *Net
}

// Read implements net.Conn. A partition kills the conn; scheduled
// delays apply before the read.
func (c *Conn) Read(p []byte) (int, error) {
	f := c.net.decide(c, 0, false)
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	if f.err != nil {
		c.kill()
		return 0, f.err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn. A cut lands a prefix of p (mid-frame)
// and closes the conn; stalls and delays sleep first.
func (c *Conn) Write(p []byte) (int, error) {
	f := c.net.decide(c, len(p), true)
	if f.sleep > 0 {
		time.Sleep(f.sleep)
	}
	if f.err != nil {
		n := 0
		if f.keep > 0 {
			n, _ = c.Conn.Write(p[:f.keep])
		}
		c.kill()
		return n, f.err
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.net.forget(c)
	return c.Conn.Close()
}

// kill closes the conn for an injected fault. It is forgotten first, so
// a later partition does not count it among the live conns it kills.
func (c *Conn) kill() {
	c.net.forget(c)
	c.Conn.Close()
}
