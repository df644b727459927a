package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync/atomic"
)

// Keys and values. A value is "<key>.<generation>.<padding>": it names the
// key it was written for and which write it was, so a read can be checked
// against the writes the benchmark issued. Keys contain no '.'.

// valueLen is the length every value is padded to.
const valueLen = 40

func keyNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return out
}

func makeValue(key string, gen uint32) string {
	var b strings.Builder
	b.Grow(valueLen)
	b.WriteString(key)
	b.WriteByte('.')
	b.WriteString(strconv.FormatUint(uint64(gen), 10))
	b.WriteByte('.')
	for b.Len() < valueLen {
		b.WriteByte('x')
	}
	return b.String()
}

// parseValue splits a value into the key and generation it encodes.
func parseValue(v string) (key string, gen uint32, ok bool) {
	key, rest, ok := strings.Cut(v, ".")
	if !ok {
		return "", 0, false
	}
	g, _, ok := strings.Cut(rest, ".")
	if !ok {
		return "", 0, false
	}
	n, err := strconv.ParseUint(g, 10, 32)
	if err != nil {
		return "", 0, false
	}
	return key, uint32(n), true
}

// generations tracks, per key, the newest generation issued for a write.
// Generation 0 is the preloaded value.
type generations []atomic.Uint32

// issue reserves the next generation of key i, before its write is sent.
func (g generations) issue(i int) uint32 { return g[i].Add(1) }

// check reports whether v is a value written for keys[i]: it names that
// key and a generation already issued. Call it after the read returns.
func (g generations) check(keys []string, i int, v string) error {
	k, gen, ok := parseValue(v)
	switch {
	case !ok:
		return fmt.Errorf("%s: unparsable value %q", keys[i], v)
	case k != keys[i]:
		return fmt.Errorf("%s: read the value of %s", keys[i], k)
	case gen > g[i].Load():
		return fmt.Errorf("%s: generation %d was never written", keys[i], gen)
	}
	return nil
}

// skewed draws key indexes in [0, n) with Zipf-skewed popularity; n is a
// power of two. Ranks are scattered by an odd multiplier so the popular
// keys land on different shards.
type skewed struct {
	z *rand.Zipf
	n uint64
}

func newSkewed(r *rand.Rand, n int) skewed {
	return skewed{z: rand.NewZipf(r, 1.1, 1, uint64(n-1)), n: uint64(n)}
}

func (s skewed) next() int { return int(s.z.Uint64() * 0x9E3779B1 & (s.n - 1)) }

// workerRand seeds worker w's generator from the run's seed; the same
// seed gives every worker the same inputs.
func workerRand(seed uint64, w int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(w)+1))
}

// distinct returns a second index from s that differs from a.
func (s skewed) distinct(a int) int {
	for {
		if b := s.next(); b != a {
			return b
		}
	}
}
