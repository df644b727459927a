// Package kv is a sharded, string-keyed transactional key-value store
// built on the internal/stm runtime. It is the repo's first serving-scale
// workload: transactional cross-key updates mixed with plain fast-path
// reads, which is exactly the mixed-mode territory the paper bounds.
//
// Values are arbitrary byte strings, carried end-to-end on the typed core
// (stm.TVar[[]byte]); numeric counters get a compatibility lane on the
// int64 specialization (stm.Var) via CounterAdd / FastCounterGet, so the
// hottest numeric path pays no boxing. A key holds exactly one kind —
// bytes or counter — fixed at first use; accessing it through the other
// kind's mutators fails with ErrWrongType (reads format counters as
// decimal, so GET works uniformly).
//
// Keys hash (FNV-1a) to one of N power-of-two shards. Each shard owns its
// own stm.STM instance and a copy-on-write key→entry table, so the
// plain-access path (FastGet) is lock-free: one atomic pointer load, one
// map lookup, one atomic value load. Multi-key operations run as a single
// transaction two-phased across the shards touched via stm.AtomicallyMulti
// with the shards in ascending index order, which makes cross-shard
// commits deadlock-free and invisible in partial states to consistent
// transactional readers. Read-only multi-key snapshots (View, MGet) ride
// stm.AtomicallyReadMulti instead and never take write locks at all.
//
// Whether a key exists is one transactional word per entry, its
// liveness. Creating, deleting and re-creating a key are all writes of
// that word inside the transaction that does them, so a key appears and
// disappears atomically with the rest of its transaction: a creator that
// aborts or has not committed is invisible to every reader. The
// copy-on-write table only holds memory; an entry leaves it once a
// reclaim transaction has retired its liveness word (see entry).
//
// Mixed-mode access follows the paper's §5 implementation model:
//
//   - FastGet is a plain read. Against the lazy engine it can miss a
//     logically-committed-but-unwritten value (the delayed-writeback
//     anomaly of §3.5); the store never promises otherwise.
//   - Privatize issues quiescence fences on the owning shards and hands
//     back raw TVar handles, after which plain access cannot race with
//     in-flight transactional writeback.
//   - Publish performs plain writes and then a sentinel transaction per
//     owning shard, so transactional readers that observe the sentinel
//     are ordered after the plain writes (publication by direct
//     dependency, safe by construction).
package kv

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modtx/internal/obs"
	"modtx/internal/stm"
	"modtx/internal/wal"
)

// ErrWrongType reports an operation against a key holding the other kind
// of value (bytes vs. counter).
var ErrWrongType = errors.New("kv: operation against a key holding the wrong kind of value")

// Option configures a Store (see New).
type Option func(*config)

type config struct {
	shards      int
	engine      stm.Engine
	maxRetries  int
	metricsOff  bool
	sampleEvery int

	// Durability (see durable.go / WithDurability).
	durDir       string
	durLevel     wal.Level
	segmentBytes int64
	flushEvery   time.Duration
	degradedMode DegradedMode
	walFS        wal.FS
}

// WithShards sets the shard count, rounded up to a power of two
// (default 16).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithEngine selects the STM engine backing every shard (default Lazy).
func WithEngine(e stm.Engine) Option { return func(c *config) { c.engine = e } }

// WithMaxRetries bounds commit attempts per operation (default: the stm
// package default).
func WithMaxRetries(n int) Option { return func(c *config) { c.maxRetries = n } }

// WithMetrics enables or disables metrics — the store's per-op latency
// histograms and every shard's stm.Metrics together (default enabled).
func WithMetrics(on bool) Option { return func(c *config) { c.metricsOff = !on } }

// WithMetricsSampling sets the latency-sampling period for both the
// store's per-op histograms and the shards' STM distributions: one call
// in every n carries timestamps (default 256, rounded up to a power of
// two). n <= 1 samples everything — the deterministic setting tests use.
func WithMetricsSampling(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.sampleEvery = n
	}
}

// entry is one key's storage: exactly one of b (bytes kind) or c
// (counter kind) is non-nil, fixed when the entry is made. dead is the
// key's liveness word and the only record of whether the key exists:
//
//   - keyLive: the key exists.
//   - keyAbsent: it does not. Transactional writers insert new entries
//     absent, and the transaction that creates the key writes keyLive in
//     its own write set; Delete writes keyAbsent back. A transaction
//     that reads the word serializes against both.
//   - keyReclaimed: terminal. A reclaim transaction moved the absent
//     entry here, and it is leaving the table (shard.reclaim). Readers
//     see an absent key; writers retry until a new entry replaces it.
//
// The key table itself is not transactional, so an entry leaves it only
// after its word is keyReclaimed, and readers that find no entry join
// the shard's keyspace version instead (see present).
type entry struct {
	b    *stm.TVar[[]byte]
	c    *stm.Var
	dead *stm.Var
}

// The values of entry.dead.
const (
	keyLive int64 = iota
	keyAbsent
	keyReclaimed
)

// errStale is a write body's report that it met an absent entry of the
// other kind: the caller reclaims it outside the transaction and runs
// the write again, which is how deleting a key frees its kind.
var errStale = errors.New("kv: absent entry of the other kind")

func (e *entry) isCounter() bool { return e.c != nil }

// Store is a sharded transactional key-value store. All methods are safe
// for concurrent use. Byte slices returned by reads are the stored boxes:
// treat them as read-only (writes always install defensive copies).
type Store struct {
	shards []*shard
	mask   uint64
	engine stm.Engine

	// fastGets is indexed by shard and cache-line padded: the lock-free
	// read path must not false-share one hot counter word across cores.
	fastGets []paddedCount

	// singleOps and multiOps recycle per-call scratch (operands, result
	// slots and pre-bound transaction bodies) for the hot operations, so
	// steady-state Get/Set/CounterAdd/Update/View allocate no closures.
	singleOps sync.Pool
	multiOps  sync.Pool

	// opHists holds the sampled per-operation latency histograms, nil
	// when metrics are disabled; sampleMask is the sampling period minus
	// one (period a power of two), shared by every pooled op's tick.
	opHists    *[numOps]obs.Histogram
	sampleMask uint64

	// Durability and changefeed state (durable.go, feed.go). tapOn is
	// the write paths' single gate: when false (no durability, no
	// subscriber ever registered) the only cost is its atomic load.
	dur         *durState
	tapOn       atomic.Bool
	tapOnce     sync.Once
	subs        atomic.Pointer[[]*Subscription]
	subMu       sync.Mutex
	feedDropped atomic.Uint64
}

type paddedCount struct {
	n atomic.Uint64
	_ [7]uint64
}

type shard struct {
	stm   *stm.STM
	index int
	pub   *stm.Var // publication sentinel (see Publish)

	// feed is the shard's commit stream: sequence counter, log and the
	// lock the commit tap runs under (durable.go). Always allocated;
	// feed.log is nil without durability.
	feed *shardFeed

	// kvers is the keyspace version: a transactional variable Touched
	// (version-stamped and waiter-notified, value untouched) after every
	// insertion into or removal from the copy-on-write key table. A
	// transaction that finds no entry for a key reads kvers instead, so
	// a later insertion conflicts it or wakes it (see present and
	// stm.STM.Touch).
	kvers *stm.Var

	mu   sync.Mutex                        // guards insertions into vars
	vars atomic.Pointer[map[string]*entry] // copy-on-write key table
}

// New creates a Store. It panics if the options cannot be honored,
// which only durability options can cause — stores opened with
// WithDurability should use Open to handle recovery errors.
func New(opts ...Option) *Store {
	s, err := Open(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Open creates a Store and, when WithDurability is set, recovers the
// durability directory into it and starts logging: per shard, the
// newest usable snapshot plus the log tail replay, then the log
// attaches and every subsequent committed write is appended in commit
// order at the configured level.
func Open(opts ...Option) (*Store, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	s := newStore(&c)
	if c.durDir == "" {
		return s, nil
	}
	s.dur = &durState{
		dir:   c.durDir,
		level: c.durLevel,
		opts: wal.Options{
			Level:         c.durLevel,
			SegmentBytes:  c.segmentBytes,
			FlushInterval: c.flushEvery,
			FS:            c.walFS,
			OnFail:        s.noteWALFault,
		},
		mode:     c.degradedMode,
		fs:       c.walFS,
		ckptBusy: make([]atomic.Bool, len(s.shards)),
	}
	if _, err := s.Recover(); err != nil {
		return nil, err
	}
	if err := s.attachLogs(); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(c *config) *Store {
	n := c.shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard routing is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	n = p
	s := &Store{
		shards:   make([]*shard, n),
		mask:     uint64(n - 1),
		engine:   c.engine,
		fastGets: make([]paddedCount, n),
	}
	se := uint64(c.sampleEvery)
	if se == 0 {
		se = 256
	}
	if se&(se-1) != 0 {
		se = 1 << bits.Len64(se) // round up to a power of two
	}
	s.sampleMask = se - 1
	stmOpts := []stm.Option{
		stm.WithEngine(c.engine),
		stm.WithMetrics(!c.metricsOff),
		stm.WithMetricsSampling(int(se)),
	}
	if c.maxRetries > 0 {
		stmOpts = append(stmOpts, stm.WithMaxRetries(c.maxRetries))
	}
	if !c.metricsOff {
		s.opHists = new([numOps]obs.Histogram)
	}
	for i := range s.shards {
		inst := stm.New(stmOpts...)
		sh := &shard{
			stm:   inst,
			index: i,
			pub:   inst.NewVar(fmt.Sprintf("shard%d.pub", i), 0),
			kvers: inst.NewVar(fmt.Sprintf("shard%d.keys", i), 0),
			feed:  &shardFeed{},
		}
		empty := make(map[string]*entry)
		sh.vars.Store(&empty)
		s.shards[i] = sh
	}
	s.singleOps.New = func() any {
		op := &singleOp{s: s}
		op.getFn = op.runGet
		op.cgetFn = op.runCounterGet
		op.setFn = op.runSet
		op.addFn = op.runAdd
		return op
	}
	s.multiOps.New = func() any {
		op := &multiOp{s: s}
		op.runUpdate = op.update
		op.runView = op.viewBody
		return op
	}
	return s
}

// fnv1a is the 64-bit FNV-1a hash, inlined to keep FastGet allocation-free.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Engine returns the engine backing the store.
func (s *Store) Engine() stm.Engine { return s.engine }

// ShardOf returns the index of the shard owning key.
func (s *Store) ShardOf(key string) int { return int(fnv1a(key) & s.mask) }

// ShardSTM exposes shard i's STM instance for stats, anomaly hooks and
// tests.
func (s *Store) ShardSTM(i int) *stm.STM { return s.shards[i].stm }

func (sh *shard) lookup(key string) *entry {
	return (*sh.vars.Load())[key]
}

func wrongType(key string) error {
	return fmt.Errorf("kv: key %q: %w", key, ErrWrongType)
}

func (sh *shard) newEntry(key string, counter bool, state int64) *entry {
	dead := sh.stm.NewVar(key+"\x00dead", state)
	if counter {
		return &entry{c: sh.stm.NewVar(key, 0), dead: dead}
	}
	return &entry{b: stm.NewTVar(sh.stm, key, []byte(nil)), dead: dead}
}

// insert adds an entry of the given kind and liveness for every key
// (all routed to sh) that the table lacks, with one table copy, and
// Touches the keyspace version. Keys already in the table keep their
// entry whatever its kind or state. It returns each key's entry,
// aligned with keys. Transactional writers insert keyAbsent and let
// their transaction create the key; keyLive is for keys no transaction
// can have read yet (EnsureKeys, Privatize). Steady-state reads stay
// lock-free because the table is copied, not mutated.
func (sh *shard) insert(keys []string, counter bool, state int64) []*entry {
	es := make([]*entry, len(keys))
	sh.mu.Lock()
	tbl := *sh.vars.Load()
	copied := false
	for i, k := range keys {
		if es[i] = tbl[k]; es[i] != nil {
			continue
		}
		if !copied {
			next := make(map[string]*entry, len(tbl)+len(keys))
			for k, v := range tbl {
				next[k] = v
			}
			tbl, copied = next, true
		}
		es[i] = sh.newEntry(k, counter, state)
		tbl[k] = es[i]
	}
	if copied {
		sh.vars.Store(&tbl)
	}
	sh.mu.Unlock()
	if copied {
		// Touch takes only leaf locks, so it is safe here even when
		// insert runs inside an open transaction (Txn.Set/Add).
		sh.stm.Touch(sh.kvers)
	}
	return es
}

// entryFor returns key's entry, first inserting an absent one of the
// given kind when the table has none; inserted reports that it did.
func (sh *shard) entryFor(key string, counter bool) (e *entry, inserted bool) {
	if e := sh.lookup(key); e != nil {
		return e, false
	}
	return sh.insert([]string{key}, counter, keyAbsent)[0], true
}

// claim readies entry e for a write of the given kind in tx. When the
// key is absent the write creates it: claim writes keyLive and reports
// created (a counter then starts from zero). A reclaimed entry retries
// the attempt, which finds its replacement. A live entry of the other
// kind is ErrWrongType; an absent one is errStale.
func claim(tx *stm.Tx, e *entry, key string, counter bool) (created bool, err error) {
	state := tx.Read(e.dead)
	switch {
	case state == keyReclaimed:
		tx.Retry()
	case e.isCounter() != counter && state == keyLive:
		return false, wrongType(key)
	case e.isCounter() != counter:
		return false, errStale
	case state == keyAbsent:
		tx.Write(e.dead, keyLive)
		return true, nil
	}
	return false, nil
}

// txReader is the part of a transaction handle present needs; both
// *stm.Tx and *stm.ReadTx have it.
type txReader interface {
	Read(*stm.Var) int64
	Retry()
}

// present returns key's entry if the key is live in r. A key found
// absent is in r's read set too, so the transaction serializes against
// the key's creation: through the entry's liveness word when the table
// has an entry, and otherwise through the shard's keyspace version,
// which every table edit Touches. The kvers read comes before the table
// is looked up again: an edit whose Touch landed before the read stored
// its table first, so the second lookup sees it and the attempt restarts
// (on the glock and tl2 engines the kvers read alone can absorb such a
// Touch without conflicting). A later edit fails validation, or wakes a
// parked transaction.
func present(r txReader, sh *shard, key string) (*entry, bool) {
	e := sh.lookup(key)
	if e != nil {
		switch r.Read(e.dead) {
		case keyLive:
			return e, true
		case keyAbsent:
			return nil, false
		}
	}
	// No entry, or a reclaimed one on its way out of the table.
	r.Read(sh.kvers)
	if sh.lookup(key) != e {
		r.Retry()
	}
	return nil, false
}

// reclaim frees the entries of keys (all routed to sh) that are not
// live: one transaction moves them to keyReclaimed, and only then do
// they leave the table, in one copy. It runs after an Update that
// inserted or deleted keys (Delete included), after a single-key write
// fails, and when a writer meets an absent entry of the other kind.
func (sh *shard) reclaim(keys []string) {
	gone := make(map[string]*entry, len(keys))
	err := sh.stm.Atomically(func(tx *stm.Tx) error {
		clear(gone)
		for _, k := range keys {
			if e := sh.lookup(k); e != nil && tx.Read(e.dead) != keyLive {
				tx.Write(e.dead, keyReclaimed)
				gone[k] = e
			}
		}
		return nil
	})
	if err != nil || len(gone) == 0 {
		return // a spent retry budget leaves the entries absent, which is safe
	}
	sh.mu.Lock()
	old := *sh.vars.Load()
	next := make(map[string]*entry, len(old))
	for k, v := range old {
		if gone[k] != v { // a key re-inserted since keeps its new entry
			next[k] = v
		}
	}
	sh.vars.Store(&next)
	sh.mu.Unlock()
	sh.stm.Touch(sh.kvers)
}

// byShard groups keys by owning shard.
func (s *Store) byShard(keys []string) map[int][]string {
	out := make(map[int][]string)
	for _, k := range keys {
		i := s.ShardOf(k)
		out[i] = append(out[i], k)
	}
	return out
}

// reclaim frees the absent entries among keys, shard by shard (see
// shard.reclaim).
func (s *Store) reclaim(keys []string) {
	for i, ks := range s.byShard(keys) {
		s.shards[i].reclaim(ks)
	}
}

// create makes every key live as the given kind, leaving live keys of
// either kind as they are, and records each key's entry in out when out
// is not nil. A key the table lacks is inserted live at once, with one
// table copy per shard: no transaction can have read an entry that was
// not there. Keys that already had an entry but not a live one (a
// deleted key's, say, or one whose creator has not committed) are
// created by one transaction, which reclaims an absent entry of the
// other kind on the way like any writer. The error is that
// transaction's, e.g. ErrWrongType when a key turned live as the other
// kind under it.
func (s *Store) create(counter bool, keys []string, out map[string]*entry) error {
	var rest []string
	for i, ks := range s.byShard(keys) {
		for j, e := range s.shards[i].insert(ks, counter, keyLive) {
			if out != nil {
				out[ks[j]] = e
			}
			if e.dead.Load() != keyLive {
				rest = append(rest, ks[j])
			}
		}
	}
	if len(rest) == 0 {
		return nil
	}
	return s.Update(rest, func(t *Txn) error {
		for _, k := range rest {
			tx, _, e, created := t.bind(k, counter)
			if out != nil && e != nil {
				out[k] = e
			}
			switch {
			case !created:
			case counter:
				tx.Write(e.c, 0)
			default:
				stm.WriteT(tx, e.b, []byte(nil))
			}
		}
		return nil
	})
}

// EnsureKeys creates all missing keys as bytes keys (present, nil value).
func (s *Store) EnsureKeys(keys ...string) { _ = s.create(false, keys, nil) }

// EnsureCounters creates all missing keys as counters initialized to 0.
func (s *Store) EnsureCounters(keys ...string) { _ = s.create(true, keys, nil) }

// Len returns the number of keys present.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += len(*sh.vars.Load())
	}
	return n
}

// copyVal defensively copies an incoming value so later caller mutation
// of its buffer cannot corrupt the store. Stored boxes are immutable.
func copyVal(val []byte) []byte {
	if val == nil {
		return nil
	}
	return append([]byte(nil), val...)
}

// formatCounter renders a counter the way reads surface it.
func formatCounter(v int64) []byte { return strconv.AppendInt(nil, v, 10) }

// FastGet is the lock-free mixed-mode read: a plain (non-transactional)
// load of the key's variable. It reports false when the key has never
// been written; counter keys are formatted as decimal. Per the §5
// implementation model it may miss a value whose transaction has
// validated but not yet written back (lazy engine); use Get for a
// consistent transactional read, or Privatize to fence.
func (s *Store) FastGet(key string) ([]byte, bool) {
	i := s.ShardOf(key)
	s.fastGets[i].n.Add(1)
	e := s.shards[i].lookup(key)
	switch {
	case e == nil, e.dead.Load() != 0:
		return nil, false
	case e.isCounter():
		return formatCounter(e.c.Load()), true
	default:
		return e.b.Load(), true
	}
}

// FastCounterGet is FastGet on the int64 specialization: a single plain
// atomic load with no formatting and no allocation. ok is false when the
// key is absent or holds bytes.
func (s *Store) FastCounterGet(key string) (int64, bool) {
	i := s.ShardOf(key)
	s.fastGets[i].n.Add(1)
	e := s.shards[i].lookup(key)
	if e == nil || !e.isCounter() || e.dead.Load() != 0 {
		return 0, false
	}
	return e.c.Load(), true
}

// singleOp is pooled per-call scratch for the single-key hot paths: the
// operands and result slots travel through the op instead of a closure
// environment, and the transaction bodies are method values bound once
// at pool fill, so a steady-state Get/Set/CounterAdd allocates nothing
// for its own plumbing.
type singleOp struct {
	s     *Store
	sh    *shard
	key   string
	val   []byte // Set input (already copied) / Get output
	delta int64  // CounterAdd input
	n     int64  // CounterAdd / CounterGet output
	ok    bool

	getFn  func(*stm.ReadTx) error
	cgetFn func(*stm.ReadTx) error
	setFn  func(*stm.Tx) error
	addFn  func(*stm.Tx) error

	// pend is the op's durability effect list (durable.go), attached to
	// the write bodies' transactions when the commit tap is on. Pooled
	// with the op, so steady-state emission reuses its capacity.
	pend pendingOps

	// tick is the latency-sampling tick (see nextSample in metrics.go);
	// deliberately NOT cleared by release, so it survives pool reuse.
	tick uint64
}

// release drops the operands so the pooled op does not pin values, and
// returns it to the pool.
func (op *singleOp) release() {
	s := op.s
	op.sh, op.key, op.val = nil, "", nil
	op.delta, op.n, op.ok = 0, 0, false
	op.pend.reset()
	s.singleOps.Put(op)
}

func (op *singleOp) runGet(r *stm.ReadTx) error {
	op.val, op.ok = nil, false
	e := op.sh.lookup(op.key) // re-resolve per attempt: the entry may be reclaimed
	if e == nil || r.Read(e.dead) != keyLive {
		return nil
	}
	if e.isCounter() {
		op.val = formatCounter(r.Read(e.c))
	} else {
		op.val = stm.ReadTVar(r, e.b)
	}
	op.ok = true
	return nil
}

func (op *singleOp) runCounterGet(r *stm.ReadTx) error {
	op.n, op.ok = 0, false
	e := op.sh.lookup(op.key)
	if e == nil || r.Read(e.dead) != keyLive {
		return nil
	}
	if !e.isCounter() {
		return wrongType(op.key)
	}
	op.n = r.Read(e.c)
	op.ok = true
	return nil
}

func (op *singleOp) runSet(tx *stm.Tx) error {
	e, _ := op.sh.entryFor(op.key, false)
	if _, err := claim(tx, e, op.key, false); err != nil {
		return err
	}
	stm.WriteT(tx, e.b, op.val)
	if op.s.tapOn.Load() {
		op.pend.reset()
		op.pend.ops = append(op.pend.ops, wal.Op{Kind: wal.KindSet, Key: op.key, Val: op.val})
		tx.SetTapData(&op.pend)
	}
	return nil
}

func (op *singleOp) runAdd(tx *stm.Tx) error {
	e, _ := op.sh.entryFor(op.key, true)
	created, err := claim(tx, e, op.key, true)
	if err != nil {
		return err
	}
	op.n = op.delta
	if !created {
		op.n += tx.Read(e.c)
	}
	tx.Write(e.c, op.n)
	if op.s.tapOn.Load() {
		// Logged absolute (KindCounterSet, the post-transaction value),
		// so replay over a snapshot is idempotent.
		op.pend.reset()
		op.pend.ops = append(op.pend.ops, wal.Op{Kind: wal.KindCounterSet, Key: op.key, N: op.n})
		tx.SetTapData(&op.pend)
	}
	return nil
}

// write runs a single-key write body to commit and waits for its
// durability. A write that fails leaves nothing behind: the key's entry
// is reclaimed if it is absent, e.g. one the write inserted. errStale
// reclaims the absent entry of the other kind the body met, and the
// write runs again.
func (s *Store) write(op *singleOp, body func(*stm.Tx) error) error {
	for {
		err := op.sh.stm.Atomically(body)
		if err == nil {
			return s.waitDurable(op.sh, &op.pend)
		}
		op.sh.reclaim([]string{op.key})
		if err != errStale {
			return err
		}
	}
}

// Get performs a consistent transactional read of one key (counters are
// formatted as decimal) on the read-only path: no write locks are ever
// taken, and on the tl2 engine the read is invisible (no read set, O(1)
// commit). ok reports whether the key exists; a non-nil error
// (retry-budget exhaustion) means the value could not be read and val is
// meaningless. Steady-state Get of a bytes key performs no heap
// allocation.
func (s *Store) Get(key string) (val []byte, ok bool, err error) {
	sh := s.shards[s.ShardOf(key)]
	if sh.lookup(key) == nil {
		return nil, false, nil
	}
	op := s.singleOps.Get().(*singleOp)
	op.sh, op.key = sh, key
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err = sh.stm.AtomicallyRead(op.getFn)
	val, ok = op.val, op.ok
	op.release()
	if sampled {
		s.opHists[OpGet].Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, false, err
	}
	return val, ok, nil
}

// CounterGet transactionally reads a counter key on the read-only path.
// ok is false when the key is absent; a bytes key returns ErrWrongType.
func (s *Store) CounterGet(key string) (val int64, ok bool, err error) {
	sh := s.shards[s.ShardOf(key)]
	if sh.lookup(key) == nil {
		return 0, false, nil
	}
	op := s.singleOps.Get().(*singleOp)
	op.sh, op.key = sh, key
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err = sh.stm.AtomicallyRead(op.cgetFn)
	val, ok = op.n, op.ok
	op.release()
	if sampled {
		s.opHists[OpCounterGet].Observe(time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return 0, false, err
	}
	return val, ok, nil
}

// Set transactionally writes one bytes key, creating it if absent. The
// value is copied on the way in.
func (s *Store) Set(key string, val []byte) error {
	if err := s.degradedGate(); err != nil {
		return err
	}
	sh := s.shards[s.ShardOf(key)]
	op := s.singleOps.Get().(*singleOp)
	op.sh, op.key, op.val = sh, key, copyVal(val)
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := s.write(op, op.setFn)
	op.release()
	if sampled {
		s.opHists[OpSet].Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// CounterAdd transactionally adds delta to a counter key (creating it at
// 0 if absent) and returns the new value. This is the compatibility lane
// on the int64 specialization: no boxing, no formatting, and (steady
// state) no heap allocation.
func (s *Store) CounterAdd(key string, delta int64) (int64, error) {
	if err := s.degradedGate(); err != nil {
		return 0, err
	}
	sh := s.shards[s.ShardOf(key)]
	op := s.singleOps.Get().(*singleOp)
	op.sh, op.key, op.delta = sh, key, delta
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := s.write(op, op.addFn)
	out := op.n
	op.release()
	if sampled {
		s.opHists[OpCounterAdd].Observe(time.Since(t0).Nanoseconds())
	}
	return out, err
}

// Delete transactionally removes a key of either kind. It reports
// whether the key existed. The transaction writes the key's liveness
// word absent; afterwards the entry is reclaimed from the table, so a
// later Set or CounterAdd starts a fresh entry and deletion also frees
// the key's kind.
func (s *Store) Delete(key string) (existed bool, err error) {
	err = s.Update([]string{key}, func(t *Txn) error {
		existed = t.Delete(key)
		return nil
	})
	return existed, err
}

// MGet reads the given keys in one read-only transaction spanning every
// shard touched; the snapshot is consistent across shards and no write
// locks are taken. Missing keys are omitted from the result; counters
// are formatted as decimal.
func (s *Store) MGet(keys ...string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	err := s.View(keys, func(t *ViewTxn) error {
		clear(out) // only the committed attempt's reads survive a retry
		for _, k := range keys {
			if v, ok := t.Get(k); ok {
				out[k] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MSet writes the given bytes keys in one cross-shard transaction.
func (s *Store) MSet(vals map[string][]byte) error {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	return s.Update(keys, func(t *Txn) error {
		for k, v := range vals {
			t.Set(k, v)
		}
		return nil
	})
}

// Txn is the handle passed to Update bodies. Accesses are restricted to
// the shards owning the declared footprint; an access outside it — or
// against a key of the wrong kind — makes the transaction fail with an
// error (no partial effects).
type Txn struct {
	s    *Store
	idxs []int     // sorted footprint shard indices
	txs  []*stm.Tx // per-shard transaction handles, aligned with idxs
	err  error

	// tap and pends are the durability effect lists, aligned with idxs
	// (durable.go): each shard transaction the body writes through gets
	// its shard's pendingOps attached on first emission. Cross-shard
	// transactions log one record per shard, so durability's prefix
	// guarantee is per shard — a crash can recover one shard's half of a
	// cross-shard transaction without the other's.
	tap   bool
	pends []pendingOps

	// touched collects, across attempts, the keys whose entries this
	// Update inserted or deleted: when it finishes, the ones left absent
	// are reclaimed. stale is the absent entry of the other kind (and
	// staleKey its key) that failed the attempt with errStale.
	touched  *[]string
	stale    *entry
	staleKey string
}

// emit appends op to footprint position j's effect list, attaching the
// list to the shard transaction on first use.
func (t *Txn) emit(j int, tx *stm.Tx, op wal.Op) {
	if !t.tap {
		return
	}
	p := &t.pends[j]
	p.ops = append(p.ops, op)
	if len(p.ops) == 1 {
		tx.SetTapData(p)
	}
}

func (t *Txn) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *Txn) outside(key string) error {
	return fmt.Errorf("kv: key %q is outside the transaction footprint", key)
}

// resolve routes key and returns its shard index, footprint position
// and shard transaction, or fails the transaction when the shard is
// outside the declared footprint. The footprint is a short sorted
// slice, so the membership test is a linear scan, not a map lookup.
func (t *Txn) resolve(key string) (int, int, *stm.Tx, bool) {
	i := t.s.ShardOf(key)
	for j, idx := range t.idxs {
		if idx == i {
			return i, j, t.txs[j], true
		}
	}
	t.fail(t.outside(key))
	return i, 0, nil, false
}

// bind resolves key for a write of the given kind inside the
// transaction (see claim), inserting an absent entry when the table has
// none. e is nil when the transaction failed instead; created reports
// that the write creates the key.
func (t *Txn) bind(key string, counter bool) (tx *stm.Tx, j int, e *entry, created bool) {
	i, j, tx, ok := t.resolve(key)
	if !ok {
		return nil, 0, nil, false
	}
	e, inserted := t.s.shards[i].entryFor(key, counter)
	if inserted {
		*t.touched = append(*t.touched, key)
	}
	created, err := claim(tx, e, key, counter)
	if err != nil {
		if err == errStale && t.err == nil {
			t.stale, t.staleKey = e, key
		}
		t.fail(err)
		return nil, 0, nil, false
	}
	return tx, j, e, created
}

// Get reads key inside the transaction; ok is false when the key is
// absent (including keys deleted earlier in this transaction). Counter
// keys are formatted as decimal.
func (t *Txn) Get(key string) ([]byte, bool) {
	i, _, tx, ok := t.resolve(key)
	if !ok {
		return nil, false
	}
	e, ok := present(tx, t.s.shards[i], key)
	if !ok {
		return nil, false
	}
	if e.isCounter() {
		return formatCounter(tx.Read(e.c)), true
	}
	return stm.ReadT(tx, e.b), true
}

// Set writes a bytes key inside the transaction, creating it if absent.
// The value is copied on the way in. A key deleted earlier in the same
// transaction is created again on the same entry, so its kind cannot
// change within one transaction.
func (t *Txn) Set(key string, val []byte) {
	tx, j, e, _ := t.bind(key, false)
	if e == nil {
		return
	}
	v := copyVal(val)
	stm.WriteT(tx, e.b, v)
	t.emit(j, tx, wal.Op{Kind: wal.KindSet, Key: key, Val: v})
}

// Add adds delta to a counter key inside the transaction and returns the
// new value; a key it creates, including one deleted earlier in the
// same transaction, starts from zero. The key is routed and resolved
// once (this is the hot path of TXN ADD and the transfer benchmarks).
func (t *Txn) Add(key string, delta int64) int64 {
	tx, j, e, created := t.bind(key, true)
	if e == nil {
		return 0
	}
	nv := delta
	if !created {
		nv += tx.Read(e.c)
	}
	tx.Write(e.c, nv)
	t.emit(j, tx, wal.Op{Kind: wal.KindCounterSet, Key: key, N: nv})
	return nv
}

// CounterSet sets a counter key to an absolute value inside the
// transaction, creating it if absent. It is the write the replication
// apply path uses to replay KindCounterSet records (counters are
// logged absolute so replay is idempotent), and is useful anywhere an
// absolute counter write is wanted transactionally.
func (t *Txn) CounterSet(key string, n int64) {
	tx, j, e, _ := t.bind(key, true)
	if e == nil {
		return
	}
	tx.Write(e.c, n)
	t.emit(j, tx, wal.Op{Kind: wal.KindCounterSet, Key: key, N: n})
}

// Delete removes a key of either kind inside the transaction, reporting
// whether it existed: it writes the key's liveness word absent, and the
// entry is reclaimed from the table after the Update finishes. Within
// the transaction the key then reads as absent, and a later Set/Add of
// it creates it again.
func (t *Txn) Delete(key string) bool {
	i, j, tx, ok := t.resolve(key)
	if !ok {
		return false
	}
	e, ok := present(tx, t.s.shards[i], key)
	if !ok {
		return false
	}
	tx.Write(e.dead, keyAbsent)
	*t.touched = append(*t.touched, key)
	t.emit(j, tx, wal.Op{Kind: wal.KindDelete, Key: key})
	return true
}

// appendShardSet appends the sorted, deduplicated shard indices owning
// keys to idxs (pass a truncated scratch slice). Footprints are small,
// so a sorted insert with linear shifts beats a map-and-sort and
// allocates nothing once the scratch has capacity.
func (s *Store) appendShardSet(idxs []int, keys []string) []int {
	for _, k := range keys {
		i := s.ShardOf(k)
		pos := sort.SearchInts(idxs, i)
		if pos < len(idxs) && idxs[pos] == i {
			continue
		}
		idxs = append(idxs, 0)
		copy(idxs[pos+1:], idxs[pos:])
		idxs[pos] = i
	}
	return idxs
}

// appendSTMs appends the shards' STM instances in idxs order.
func (s *Store) appendSTMs(stms []*stm.STM, idxs []int) []*stm.STM {
	for _, i := range idxs {
		stms = append(stms, s.shards[i].stm)
	}
	return stms
}

// multiOp is pooled per-call scratch for the footprint-scoped operations
// (Update, View): the sorted shard set, the aligned instance list and
// the reusable transaction handle, with the attempt bodies bound once at
// pool fill so the per-attempt plumbing allocates nothing.
type multiOp struct {
	s     *Store
	idxs  []int
	stms  []*stm.STM
	pends []pendingOps // durability effect lists, aligned with idxs
	txn   Txn
	view  ViewTxn

	// touched is the Update's Txn.touched: kept across attempts, and
	// reclaimed when the Update finishes.
	touched []string

	updateFn  func(*Txn) error     // the user's Update body
	viewFn    func(*ViewTxn) error // the user's View body
	runUpdate func([]*stm.Tx) error
	runView   func([]*stm.ReadTx) error

	// tick is the latency-sampling tick; like singleOp's it survives
	// release on purpose.
	tick uint64
}

func (op *multiOp) update(txs []*stm.Tx) error {
	t := &op.txn
	t.s = op.s
	t.idxs = op.idxs
	t.txs = txs
	t.err = nil
	t.touched = &op.touched
	t.stale, t.staleKey = nil, ""
	t.tap = op.s.tapOn.Load()
	if t.tap {
		for len(op.pends) < len(op.idxs) {
			op.pends = append(op.pends, pendingOps{})
		}
		t.pends = op.pends[:len(op.idxs)]
		for j := range t.pends {
			t.pends[j].reset() // only the committed attempt's ops are logged
		}
	} else {
		t.pends = nil
	}
	if err := op.updateFn(t); err != nil {
		return err
	}
	if t.err == nil {
		t.linkCross()
	}
	return t.err
}

// linkCross links this attempt's effect lists into one pendingTxn when
// the attempt wrote through more than one shard on a durable store:
// the commit taps then flag each shard's record as a cross-shard
// participant and the last tap appends the commit marker (durable.go).
// Runs at body end, before the two-phase commit; a retried attempt
// simply links a fresh pendingTxn (reset clears the old link, and taps
// only ever fire for the committing attempt).
func (t *Txn) linkCross() {
	if !t.tap || t.s.dur == nil || !t.s.dur.attached {
		return
	}
	n := 0
	for j := range t.pends {
		if len(t.pends[j].ops) > 0 {
			n++
		}
	}
	if n < 2 {
		return
	}
	pt := newPendingTxn(n)
	for j := range t.pends {
		if len(t.pends[j].ops) > 0 {
			t.pends[j].txn = pt
		}
	}
}

func (op *multiOp) viewBody(rtxs []*stm.ReadTx) error {
	t := &op.view
	t.s = op.s
	t.idxs = op.idxs
	t.rtxs = rtxs
	t.err = nil
	if err := op.viewFn(t); err != nil {
		return err
	}
	return t.err
}

// release drops the per-call references (keeping the scratch slices'
// capacity) and returns the op to the pool.
func (op *multiOp) release() {
	s := op.s
	op.idxs = op.idxs[:0]
	clear(op.stms)
	op.stms = op.stms[:0]
	for j := range op.pends {
		op.pends[j].reset() // drop key/value references, keep capacity
	}
	clear(op.touched)
	op.touched = op.touched[:0]
	op.txn = Txn{}
	op.view = ViewTxn{}
	op.updateFn, op.viewFn = nil, nil
	s.multiOps.Put(op)
}

// Update runs fn as one transaction over the shards owning keys (the
// transaction's footprint). The per-shard transactions two-phase in
// ascending shard order: every shard prepares (locks + validation) before
// any publishes, so concurrent transactional readers never observe a
// partial cross-shard commit, and the consistent lock order avoids
// deadlock. fn may touch any key routed to a declared shard, not just the
// declared keys; it may be re-executed on conflict and must be pure.
func (s *Store) Update(keys []string, fn func(*Txn) error) error {
	return s.UpdateCtx(context.Background(), keys, fn)
}

// UpdateCtx is Update honoring ctx between retry attempts (see
// stm.AtomicallyMultiCtx): cancellation surfaces as an error wrapping
// stm.ErrCanceled and the context's error.
func (s *Store) UpdateCtx(ctx context.Context, keys []string, fn func(*Txn) error) error {
	if err := s.degradedGate(); err != nil {
		return err
	}
	op := s.multiOps.Get().(*multiOp)
	op.idxs = s.appendShardSet(op.idxs[:0], keys)
	op.stms = s.appendSTMs(op.stms[:0], op.idxs)
	op.updateFn = fn
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := stm.AtomicallyMultiCtx(ctx, op.stms, op.runUpdate)
	for err == errStale {
		// An absent entry of the other kind: reclaim it and run again. If
		// reclaim left it in place it is live, so the absence was this
		// transaction's own Delete, and the kind cannot change within one
		// transaction.
		sh, key := s.shards[s.ShardOf(op.txn.staleKey)], op.txn.staleKey
		if sh.reclaim([]string{key}); sh.lookup(key) == op.txn.stale {
			err = wrongType(key)
			break
		}
		err = stm.AtomicallyMultiCtx(ctx, op.stms, op.runUpdate)
	}
	if len(op.touched) > 0 {
		s.reclaim(op.touched)
	}
	if err == nil && op.txn.tap && s.fsyncLevel() {
		var xt *pendingTxn
		for j, i := range op.idxs {
			if p := &op.pends[j]; p.txn != nil {
				xt = p.txn
			}
			if err = s.waitDurable(s.shards[i], &op.pends[j]); err != nil {
				break
			}
		}
		// A cross-shard commit is acknowledged only once its marker is
		// durable too: records without the marker roll back on recovery.
		if err == nil {
			err = s.waitTxnDurable(xt)
		}
	}
	op.release()
	if sampled {
		s.opHists[OpUpdate].Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// ViewTxn is the handle passed to View bodies: a consistent, read-only,
// possibly cross-shard snapshot. It can only read, so the underlying
// transactions never take write locks; on the tl2 engine a single-shard
// View additionally keeps no read set and commits in O(1).
type ViewTxn struct {
	s    *Store
	idxs []int         // sorted footprint shard indices
	rtxs []*stm.ReadTx // read-only handles, aligned with idxs
	err  error
}

func (t *ViewTxn) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// resolve routes key to its live entry within the view's footprint.
// ok is false (with no error) for absent keys, and the view fails when
// the key's shard is outside the footprint.
func (t *ViewTxn) resolve(key string) (*stm.ReadTx, *entry, bool) {
	i := t.s.ShardOf(key)
	var r *stm.ReadTx
	for j, idx := range t.idxs {
		if idx == i {
			r = t.rtxs[j]
			break
		}
	}
	if r == nil {
		t.fail(fmt.Errorf("kv: key %q is outside the view footprint", key))
		return nil, nil, false
	}
	e, ok := present(r, t.s.shards[i], key)
	return r, e, ok
}

// Get reads key inside the view; ok is false when the key is absent.
// Counter keys are formatted as decimal.
func (t *ViewTxn) Get(key string) ([]byte, bool) {
	r, e, ok := t.resolve(key)
	if !ok {
		return nil, false
	}
	if e.isCounter() {
		return formatCounter(r.Read(e.c)), true
	}
	return stm.ReadTVar(r, e.b), true
}

// Counter reads a counter key inside the view on the int64 lane (no
// boxing, no formatting). ok is false when the key is absent or holds
// bytes.
func (t *ViewTxn) Counter(key string) (int64, bool) {
	r, e, ok := t.resolve(key)
	if !ok || !e.isCounter() {
		return 0, false
	}
	return r.Read(e.c), true
}

// View runs fn as one read-only transaction over the shards owning keys
// (the view's footprint): a multi-key snapshot consistent across shards
// that never takes write locks — commit validates the read sets with no
// locking at all (see stm.AtomicallyReadMulti), and a single-shard view
// on the tl2 engine runs with invisible reads. fn may read any key
// routed to a declared shard; it may be re-executed on conflict and must
// be pure.
func (s *Store) View(keys []string, fn func(*ViewTxn) error) error {
	return s.ViewCtx(context.Background(), keys, fn)
}

// ViewCtx is View honoring ctx between retry attempts.
func (s *Store) ViewCtx(ctx context.Context, keys []string, fn func(*ViewTxn) error) error {
	op := s.multiOps.Get().(*multiOp)
	op.idxs = s.appendShardSet(op.idxs[:0], keys)
	op.stms = s.appendSTMs(op.stms[:0], op.idxs)
	op.viewFn = fn
	var t0 time.Time
	sampled := s.opHists != nil && op.nextSample()
	if sampled {
		t0 = time.Now()
	}
	err := stm.AtomicallyReadMultiCtx(ctx, op.stms, op.runView)
	op.release()
	if sampled {
		s.opHists[OpView].Observe(time.Since(t0).Nanoseconds())
	}
	return err
}

// Privatize fences the shards owning keys and returns the keys' raw
// typed handles, aligned with keys (creating missing keys as nil-valued
// bytes keys). When it returns, every transaction admitted before the
// call on those shards has resolved, so the §3.5 delayed-writeback race
// is excluded and the caller may use plain Load/Store on the handles —
// provided it has already made the keys logically private (e.g. cleared a
// routing flag inside a transaction), exactly as in the paper's
// privatization idiom. Counter keys return ErrWrongType.
func (s *Store) Privatize(keys ...string) ([]*stm.TVar[[]byte], error) {
	// Check kinds before creating anything, so a wrong-type failure does
	// not leave phantom bytes keys behind for the keys processed first.
	err := s.View(keys, func(t *ViewTxn) error {
		for _, k := range keys {
			if _, ok := t.Counter(k); ok {
				return wrongType(k)
			}
		}
		return nil
	})
	es := make(map[string]*entry, len(keys))
	if err == nil {
		err = s.create(false, keys, es)
	}
	if err != nil {
		return nil, err
	}
	vars := make([]*stm.TVar[[]byte], len(keys))
	for i, k := range keys {
		if es[k].isCounter() { // turned live as a counter after the check
			return nil, wrongType(k)
		}
		vars[i] = es[k].b
	}
	for _, i := range s.appendShardSet(nil, keys) {
		s.shards[i].stm.Quiesce()
	}
	return vars, nil
}

// Publish plainly stores vals (copied on the way in) and commits a
// sentinel write on each owning shard, all in one transaction whose
// plain stores precede its commit. A transactional reader ordered after
// the sentinel write (any transaction on the shard that starts after
// Publish returns, or one that observes the bumped sentinel) also sees
// the plain writes: publication by direct dependency, safe on every
// engine without fences. A key Publish creates comes to life with the
// sentinel commit, like any transactional creation. Counter keys return
// ErrWrongType before any plain store happens. The sentinel transaction
// logs the published values as SET ops, so publication is durable (and
// fed to subscribers) even though the value writes themselves are plain.
func (s *Store) Publish(vals map[string][]byte) error {
	keys := make([]string, 0, len(vals))
	copies := make([][]byte, 0, len(vals))
	for k, v := range vals {
		keys = append(keys, k)
		copies = append(copies, copyVal(v))
	}
	es := make([]*entry, len(keys))
	return s.Update(keys, func(t *Txn) error {
		for n, k := range keys {
			if _, _, es[n], _ = t.bind(k, false); es[n] == nil {
				return nil // t.err says why
			}
		}
		for n, k := range keys {
			es[n].b.Store(copies[n])
			_, j, tx, _ := t.resolve(k)
			t.emit(j, tx, wal.Op{Kind: wal.KindSet, Key: k, Val: copies[n]})
		}
		for j, i := range t.idxs {
			pub := t.s.shards[i].pub
			t.txs[j].Write(pub, t.txs[j].Read(pub)+1)
		}
		return nil
	})
}

// Stats is an aggregate snapshot across shards. The JSON field names are
// a stable wire format — the admin plane and bench reports emit them.
type Stats struct {
	Shards          int    `json:"shards"`
	Keys            int    `json:"keys"`
	FastGets        uint64 `json:"fast_gets"`
	Commits         uint64 `json:"commits"`
	Conflicts       uint64 `json:"conflicts"`
	UserAborts      uint64 `json:"user_aborts"`
	MultiCommits    uint64 `json:"multi_commits"`
	ReadOnlyCommits uint64 `json:"read_only_commits"`
	Quiesces        uint64 `json:"quiesces"`

	// Blocking counters (WaitGet/Watch and any blocked Update bodies):
	// parks taken, parks ended by a commit notification, and parks ended
	// by the safety-net timer (see stm.Stats).
	Waits           uint64 `json:"waits"`
	Wakeups         uint64 `json:"wakeups"`
	SpuriousWakeups uint64 `json:"spurious_wakeups"`
}

// Stats aggregates per-shard STM counters and store-level counters.
func (s *Store) Stats() Stats {
	st := Stats{Shards: len(s.shards)}
	for i, sh := range s.shards {
		st.FastGets += s.fastGets[i].n.Load()
		st.Keys += len(*sh.vars.Load())
		snap := sh.stm.Snapshot()
		st.Commits += snap.Commits
		st.Conflicts += snap.Conflicts
		st.UserAborts += snap.UserAborts
		st.MultiCommits += snap.MultiCommits
		st.ReadOnlyCommits += snap.ReadOnlyCommits
		st.Quiesces += snap.Quiesces
		st.Waits += snap.Waits
		st.Wakeups += snap.Wakeups
		st.SpuriousWakeups += snap.SpuriousWakeups
	}
	return st
}

// String implements fmt.Stringer for diagnostics.
func (st Stats) String() string {
	return fmt.Sprintf("kv: shards=%d keys=%d fastgets=%d commits=%d conflicts=%d user-aborts=%d multi-commits=%d ro-commits=%d quiesces=%d waits=%d wakeups=%d spurious-wakeups=%d",
		st.Shards, st.Keys, st.FastGets, st.Commits, st.Conflicts, st.UserAborts, st.MultiCommits, st.ReadOnlyCommits, st.Quiesces, st.Waits, st.Wakeups, st.SpuriousWakeups)
}
