package kv

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"modtx/internal/stm"
	"modtx/internal/wal"
)

// Regression tests for key existence as one transactional word: a key's
// creation belongs to the transaction that creates it, so a creator
// that aborts, or has not committed yet, must be invisible everywhere.

// TestAbortedCreateLeavesNoKey: an Update that creates keys and then
// fails leaves nothing behind — on every read path, in Len, in the WAL
// and in the changefeed.
func TestAbortedCreateLeavesNoKey(t *testing.T) {
	boom := errors.New("boom")
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			s := openDurable(t, t.TempDir(), wal.Fsync, WithEngine(eng))
			defer s.Close()
			sub := s.Subscribe(context.Background(), "")
			defer sub.Close()
			if _, err := s.CounterAdd("n", 1); err != nil {
				t.Fatal(err)
			}
			<-sub.Events()
			appends := s.WALStats().Appends

			// The body's own error aborts it.
			err := s.Update([]string{"fresh", "ctr"}, func(tx *Txn) error {
				tx.Set("fresh", []byte("x"))
				tx.Add("ctr", 1)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err=%v, want boom", err)
			}
			// A kind mismatch after a creation aborts it too.
			err = s.Update([]string{"fresh2", "n"}, func(tx *Txn) error {
				tx.Set("fresh2", []byte("y"))
				tx.Set("n", []byte("not a counter"))
				return nil
			})
			if !errors.Is(err, ErrWrongType) {
				t.Fatalf("err=%v, want ErrWrongType", err)
			}

			for _, k := range []string{"fresh", "ctr", "fresh2"} {
				if v, ok, err := s.Get(k); err != nil || ok {
					t.Errorf("Get(%s)=%q,%v,%v after an aborted create", k, v, ok, err)
				}
				if v, ok := s.FastGet(k); ok {
					t.Errorf("FastGet(%s)=%q after an aborted create", k, v)
				}
			}
			if _, ok := s.FastCounterGet("ctr"); ok {
				t.Error("FastCounterGet(ctr) ok after an aborted create")
			}
			got, err := s.MGet("fresh", "ctr", "fresh2")
			if err != nil || len(got) != 0 {
				t.Errorf("MGet=%v,%v after an aborted create", got, err)
			}
			if err := s.View([]string{"fresh", "ctr"}, func(v *ViewTxn) error {
				if _, ok := v.Get("fresh"); ok {
					t.Error("View sees fresh after an aborted create")
				}
				if _, ok := v.Counter("ctr"); ok {
					t.Error("View sees ctr after an aborted create")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if n := s.Len(); n != 1 {
				t.Errorf("Len=%d, want 1 (only n)", n)
			}
			if a := s.WALStats().Appends; a != appends {
				t.Errorf("WAL appends %d -> %d across aborted creates", appends, a)
			}
			// The next event on the feed is the next commit, not the
			// aborted creations.
			if err := s.Set("marker", []byte("m")); err != nil {
				t.Fatal(err)
			}
			if ev := <-sub.Events(); ev.Key != "marker" {
				t.Errorf("changefeed event %+v before the marker", ev)
			}
		})
	}
}

// TestWaitGetIgnoresUncommittedCreator: a WaitGet parked on a missing
// key is not answered by a creator that has not committed — and, when
// that creator aborts, keeps waiting for the one that does.
func TestWaitGetIgnoresUncommittedCreator(t *testing.T) {
	boom := errors.New("boom")
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			s := New(WithEngine(eng), WithShards(2))
			ctx := watchdog(t)
			got := make(chan string, 1)
			go func() {
				v, err := s.WaitGet(ctx, "k")
				if err != nil {
					got <- "error: " + err.Error()
					return
				}
				got <- string(v)
			}()
			waitForParked(t, s, 1)

			inBody, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			aborted := make(chan error, 1)
			go func() {
				aborted <- s.Update([]string{"k"}, func(tx *Txn) error {
					tx.Set("k", []byte("uncommitted"))
					once.Do(func() { close(inBody) })
					<-release
					return boom
				})
			}()
			<-inBody
			select {
			case v := <-got:
				t.Fatalf("WaitGet answered %q by a creator that had not committed", v)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := <-aborted; !errors.Is(err, boom) {
				t.Fatalf("creator: %v", err)
			}
			select {
			case v := <-got:
				t.Fatalf("WaitGet answered %q by a creator that aborted", v)
			case <-time.After(20 * time.Millisecond):
			}
			if err := s.Set("k", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if v := <-got; v != "v" {
				t.Fatalf("WaitGet=%q, want the committed value", v)
			}
		})
	}
}

// TestDeletedBytesKeyBecomesCounter: deleting a key frees its kind, also
// while the deleted entry is still in the table (its deletion committed,
// its reclaim not yet run): the next writer of the other kind reclaims
// it and creates the key afresh.
func TestDeletedBytesKeyBecomesCounter(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			s := New(WithEngine(eng), WithShards(2))
			// deleted commits a deletion of key without the reclaim a
			// Delete runs afterwards, leaving the absent entry in place.
			deleted := func(key string) {
				t.Helper()
				if err := s.Set(key, []byte("bytes")); err != nil {
					t.Fatal(err)
				}
				sh := s.shards[s.ShardOf(key)]
				e := sh.lookup(key)
				if err := sh.stm.Atomically(func(tx *stm.Tx) error {
					tx.Write(e.dead, 1) // absent
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			deleted("a")
			if n, err := s.CounterAdd("a", 5); err != nil || n != 5 {
				t.Fatalf("CounterAdd over a deleted bytes key = %d,%v, want 5", n, err)
			}
			deleted("b")
			var n int64
			if err := s.Update([]string{"b"}, func(tx *Txn) error {
				n = tx.Add("b", 2)
				return nil
			}); err != nil || n != 2 {
				t.Fatalf("Txn.Add over a deleted bytes key = %d,%v, want 2", n, err)
			}
			if _, err := s.Delete("c"); err != nil {
				t.Fatal(err)
			}
			if err := s.Set("c", []byte("bytes")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Delete("c"); err != nil {
				t.Fatal(err)
			}
			if n, err := s.CounterAdd("c", 7); err != nil || n != 7 {
				t.Fatalf("CounterAdd after Delete = %d,%v, want 7", n, err)
			}
			for k, want := range map[string]int64{"a": 5, "b": 2, "c": 7} {
				if v, ok, err := s.CounterGet(k); err != nil || !ok || v != want {
					t.Errorf("CounterGet(%s)=%d,%v,%v, want %d", k, v, ok, err, want)
				}
				if v, ok := s.FastCounterGet(k); !ok || v != want {
					t.Errorf("FastCounterGet(%s)=%d,%v, want %d", k, v, ok, want)
				}
			}
			if n := s.Len(); n != 3 {
				t.Fatalf("Len=%d, want 3", n)
			}
		})
	}
}
