package stm

import (
	"sync"
	"sync/atomic"
)

// adaptiveEngine is the contention-adaptive strategy: it owns no
// protocol of its own, but delegates every attempt to one of two
// registered protocols chosen per instance by the contention controller
// below — tl2 while the instance is calm, eager encounter locking while
// it is contended. Each attempt pins its delegate at begin (tx.del), so
// a mid-attempt flip never mixes protocols within one attempt.
//
// Soundness of mixing attempts across a flip: tl2 (write-buffering with
// commit-time locks) and eager (encounter locking with undo) speak the
// same versioned-lock wire protocol over the same varBase words — the
// lock bit excludes concurrent owners, a version above the snapshot
// aborts the reader, and commits release with a fresh version while
// holding the lock. Each protocol is correct against any peer honoring
// those invariants, not just against itself, so an in-flight tl2
// attempt racing a post-flip eager attempt composes exactly like two
// attempts of either fixed engine. (The global-lock engine is excluded
// from the rotation precisely because it does not speak this protocol:
// its reads take no locks and tolerate no concurrent committers.)
//
// The anomaly surface is the union of the delegates': write-buffering
// attempts exhibit the §3.5 delayed-writeback window, eager attempts
// the §3.4 speculative windows. Fences are required for privatization
// exactly as on the fixed engines.
type adaptiveEngine struct{}

// strategy values stored in STM.strategy; indexes adaptiveStrategies.
const (
	strategyTL2 int32 = iota
	strategyEager
)

// adaptiveStrategies are the delegate protocols, by strategy value.
var adaptiveStrategies = [...]engine{strategyTL2: tl2Engine{}, strategyEager: eagerEngine{}}

func (adaptiveEngine) begin(tx *Tx) {
	tx.del = adaptiveStrategies[tx.s.strategy.Load()]
	tx.del.begin(tx)
}

func (adaptiveEngine) finish(tx *Tx) { tx.del.finish(tx) }

func (adaptiveEngine) read(tx *Tx, v *Var) int64         { return tx.del.read(tx, v) }
func (adaptiveEngine) write(tx *Tx, v *Var, x int64)     { tx.del.write(tx, v, x) }
func (adaptiveEngine) readBoxed(tx *Tx, b boxed) any     { return tx.del.readBoxed(tx, b) }
func (adaptiveEngine) writeBoxed(tx *Tx, b boxed, x any) { tx.del.writeBoxed(tx, b, x) }

func (adaptiveEngine) prepare(tx *Tx) bool       { return tx.del.prepare(tx) }
func (adaptiveEngine) lockWrites(tx *Tx) bool    { return tx.del.lockWrites(tx) }
func (adaptiveEngine) validateReads(tx *Tx) bool { return tx.del.validateReads(tx) }
func (adaptiveEngine) commit(tx *Tx)             { tx.del.commit(tx) }
func (adaptiveEngine) rollback(tx *Tx)           { tx.del.rollback(tx) }

func (adaptiveEngine) wakeSet(tx *Tx, f func(*varBase)) { tx.del.wakeSet(tx, f) }

func (adaptiveEngine) invisibleReadOnly(tx *Tx) bool { return tx.del.invisibleReadOnly(tx) }

// The contention controller: an Adaptive instance retunes its strategy
// from its own telemetry. It runs on the conflict slow path only —
// every conflicted attempt ticks a counter, and once per adaptEvery
// conflicts one loser (TryLock, so never two) recomputes the strategy
// from the windowed deltas of the instance's Stats (the conflict rate
// against commits) and from the obs.HotTable contention sketch, which
// tells it whether the conflicts concentrate on a single hot variable.
// Fixed engines and conflict-free workloads never run it, so the
// zero-allocation commit path is untouched.
const (
	// adaptEvery is the conflict period between controller runs; a
	// power of two so the gate is a mask test.
	adaptEvery = 256
	// adaptHi/adaptLo are the hysteresis thresholds on the windowed
	// conflict rate conflicts/(commits+conflicts): above adaptHi the
	// instance is contended (prefer encounter locking); below adaptLo
	// it is calm (return to tl2). The dead band between them is what
	// keeps the controller from oscillating.
	adaptHi = 0.50
	adaptLo = 0.10
	// adaptSkew marks a window as hotspot-skewed when the top slot of
	// the contention sketch absorbed at least this share of the window's
	// conflicts — the "everyone lost to the same variable" shape, which
	// counts as contended regardless of the aggregate rate.
	adaptSkew = 0.75
)

// adaptState is the controller's bookkeeping. It shares a cache line
// with nothing hot: the tick is bumped only by conflicted attempts and
// everything else is touched once per adaptEvery conflicts under mu.
type adaptState struct {
	tick atomic.Uint32
	mu   sync.Mutex

	// Window baselines: the Stats readings at the last controller run.
	lastCommits   uint64
	lastConflicts uint64
	lastHot       uint64 // top contention-sketch count at the last run
}

// Strategy returns the protocol new attempts of the instance begin
// under: the engine itself for the fixed engines, and the current
// delegate (TL2 or Eager) for the Adaptive engine.
func (s *STM) Strategy() Engine {
	if s.engine != Adaptive {
		return s.engine
	}
	if s.strategy.Load() == strategyEager {
		return Eager
	}
	return TL2
}

// maybeAdapt is the controller entry point, called by every conflicted
// attempt (captureConflict / captureConflictMulti). It is a compare on
// fixed engines, and a tick and a mask test on Adaptive until the
// window closes.
func (s *STM) maybeAdapt() {
	if s.engine != Adaptive {
		return
	}
	if s.adapt.tick.Add(1)&(adaptEvery-1) != 0 {
		return
	}
	if !s.adapt.mu.TryLock() {
		return // another loser is already retuning; skip, don't queue
	}
	defer s.adapt.mu.Unlock()

	a := &s.adapt
	commits := s.stats.Commits.Load()
	conflicts := s.stats.Conflicts.Load()
	dCommits := commits - a.lastCommits
	dConflicts := conflicts - a.lastConflicts
	a.lastCommits, a.lastConflicts = commits, conflicts

	total := dCommits + dConflicts
	if total == 0 {
		return
	}
	rate := float64(dConflicts) / float64(total)
	s.retune(rate, s.hotSkewed(dConflicts))
}

// hotSkewed reports whether the contention sketch attributes at least
// adaptSkew of the window's conflicts to a single variable. The sketch
// is cumulative, so the top slot is windowed against its reading at the
// last run; sketch counts are approximate (space-saving decay), which
// is fine — this steers a heuristic, not a ledger.
func (s *STM) hotSkewed(dConflicts uint64) bool {
	if s.metrics == nil || dConflicts == 0 {
		return false
	}
	var top uint64
	for _, e := range s.metrics.Contention.Snapshot() {
		if e.Count > top {
			top = e.Count
		}
	}
	prev := s.adapt.lastHot
	s.adapt.lastHot = top
	if top <= prev {
		return false // sketch decayed or reset; no usable window
	}
	return float64(top-prev) >= adaptSkew*float64(dConflicts)
}

// retune applies the hysteresis policy to one closed window. Split from
// maybeAdapt so tests can drive it with synthetic windows.
//
//   - Contended (rate above adaptHi, or hotspot-skewed): flip new
//     attempts to eager encounter locking, which detects the conflict
//     at the first write instead of after the whole body ran against
//     doomed state.
//   - Calm (rate below adaptLo): return new attempts to tl2.
//   - In the dead band: change nothing.
//
// Only the Adaptive engine has a strategy to move; on fixed engines
// retune is a no-op.
func (s *STM) retune(rate float64, skewed bool) {
	if s.engine != Adaptive {
		return
	}
	switch {
	case rate > adaptHi || skewed:
		s.strategy.Store(strategyEager)
	case rate < adaptLo:
		s.strategy.Store(strategyTL2)
	}
}
