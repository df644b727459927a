package kv

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modtx/internal/stm"
)

func TestDeleteBasic(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.Set("a", []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CounterAdd("c", 7); err != nil {
				t.Fatal(err)
			}
			if n := s.Len(); n != 2 {
				t.Fatalf("Len=%d, want 2", n)
			}

			if ok, err := s.Delete("missing"); err != nil || ok {
				t.Fatalf("Delete(missing)=%v,%v, want false", ok, err)
			}
			if ok, err := s.Delete("a"); err != nil || !ok {
				t.Fatalf("Delete(a)=%v,%v, want true", ok, err)
			}
			if ok, err := s.Delete("a"); err != nil || ok {
				t.Fatalf("second Delete(a)=%v,%v, want false", ok, err)
			}
			// Gone on every read path, and reclaimed from the table.
			if _, ok, _ := s.Get("a"); ok {
				t.Fatal("Get sees deleted key")
			}
			if _, ok := s.FastGet("a"); ok {
				t.Fatal("FastGet sees deleted key")
			}
			if got, _ := s.MGet("a", "c"); len(got) != 1 || string(got["c"]) != "7" {
				t.Fatalf("MGet after delete: %v", got)
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("Len after delete=%d, want 1", n)
			}

			// Deleting a counter frees the kind: the key can come back as
			// bytes.
			if ok, err := s.Delete("c"); err != nil || !ok {
				t.Fatalf("Delete(c)=%v,%v", ok, err)
			}
			if err := s.Set("c", []byte("now bytes")); err != nil {
				t.Fatalf("re-create with new kind: %v", err)
			}
			if v, ok, _ := s.Get("c"); !ok || string(v) != "now bytes" {
				t.Fatalf("re-created key reads %q,%v", v, ok)
			}
		})
	}
}

func TestTxnDelete(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(4), WithEngine(e))
			if err := s.MSet(map[string][]byte{"x": []byte("1"), "y": []byte("2")}); err != nil {
				t.Fatal(err)
			}
			// Delete inside a transaction: the key reads as absent within
			// the same transaction and is reclaimed after commit.
			err := s.Update([]string{"x", "y"}, func(tx *Txn) error {
				if !tx.Delete("x") {
					t.Error("Txn.Delete(x) reported absent")
				}
				if tx.Delete("x") {
					t.Error("second Txn.Delete(x) reported present")
				}
				if _, ok := tx.Get("x"); ok {
					t.Error("deleted key visible inside its own transaction")
				}
				if v, ok := tx.Get("y"); !ok || string(v) != "2" {
					t.Errorf("unrelated key disturbed: %q,%v", v, ok)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("x"); ok {
				t.Fatal("committed Txn.Delete did not remove the key")
			}
			if n := s.Len(); n != 1 {
				t.Fatalf("Len=%d, want 1", n)
			}

			// An aborted transaction rolls the deletion back.
			boom := errors.New("boom")
			err = s.Update([]string{"y"}, func(tx *Txn) error {
				tx.Delete("y")
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err=%v", err)
			}
			if v, ok, _ := s.Get("y"); !ok || string(v) != "2" {
				t.Fatalf("aborted delete leaked: %q,%v", v, ok)
			}

			// Delete-then-Set in one transaction re-creates the key with
			// the new value, atomically.
			err = s.Update([]string{"y"}, func(tx *Txn) error {
				tx.Delete("y")
				tx.Set("y", []byte("reborn"))
				if v, ok := tx.Get("y"); !ok || string(v) != "reborn" {
					t.Errorf("re-created key reads %q,%v in-txn", v, ok)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := s.Get("y"); !ok || string(v) != "reborn" {
				t.Fatalf("re-created key reads %q,%v", v, ok)
			}
		})
	}
}

func TestTxnDeleteAddRestartsCounter(t *testing.T) {
	// Delete-then-Add of a counter in one transaction must match the
	// committed sequential semantics: the re-created counter restarts at
	// zero, not at its pre-delete value.
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(e))
			if _, err := s.CounterAdd("k", 7); err != nil {
				t.Fatal(err)
			}
			var got int64
			if err := s.Update([]string{"k"}, func(tx *Txn) error {
				tx.Delete("k")
				got = tx.Add("k", 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("in-txn delete+add returned %d, want 1 (counter restarts)", got)
			}
			if v, ok, err := s.CounterGet("k"); err != nil || !ok || v != 1 {
				t.Fatalf("committed value %d,%v,%v, want 1", v, ok, err)
			}
			// A second Add in the same transaction accumulates normally.
			if err := s.Update([]string{"k"}, func(tx *Txn) error {
				tx.Delete("k")
				tx.Add("k", 5)
				got = tx.Add("k", 2)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got != 7 {
				t.Fatalf("re-create then second add = %d, want 7", got)
			}
		})
	}
}

// deleteUnreclaimed commits key's liveness word absent WITHOUT
// reclaiming the entry, reproducing the window between a concurrent
// Delete's commit and its reclaim.
func deleteUnreclaimed(t *testing.T, s *Store, key string) *entry {
	t.Helper()
	sh := s.shards[s.ShardOf(key)]
	e := sh.lookup(key)
	if e == nil {
		t.Fatalf("key %q has no entry to delete", key)
	}
	if err := sh.stm.Atomically(func(tx *stm.Tx) error {
		tx.Write(e.dead, keyAbsent)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPublishPrivatizeEnsureOnDeletedEntry: Publish, Privatize and
// EnsureKeys over an entry whose deletion has committed but whose
// reclaim has not must bring the key to life on an entry that stays in
// the table; the deleter's reclaim, landing late, must not discard
// their writes.
func TestPublishPrivatizeEnsureOnDeletedEntry(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(eng))
			lateReclaim := func(key string) {
				s.shards[s.ShardOf(key)].reclaim([]string{key})
			}

			// Publish into a deleted entry must survive the reclaim.
			if err := s.Set("p", []byte("old")); err != nil {
				t.Fatal(err)
			}
			deleteUnreclaimed(t, s, "p")
			if err := s.Publish(map[string][]byte{"p": []byte("published")}); err != nil {
				t.Fatal(err)
			}
			lateReclaim("p")
			if v, ok, err := s.Get("p"); err != nil || !ok || string(v) != "published" {
				t.Fatalf("published value lost to the reclaim: %q,%v,%v", v, ok, err)
			}

			// Privatize must hand back a handle on a live entry.
			if err := s.Set("q", []byte("old")); err != nil {
				t.Fatal(err)
			}
			deleteUnreclaimed(t, s, "q")
			vars, err := s.Privatize("q")
			if err != nil {
				t.Fatal(err)
			}
			vars[0].Store([]byte("private"))
			lateReclaim("q")
			if v, ok := s.FastGet("q"); !ok || string(v) != "private" {
				t.Fatalf("privatized write lost to the reclaim: %q,%v", v, ok)
			}

			// EnsureKeys over a deleted entry re-creates the key, with a
			// fresh (nil) value rather than the deleted one.
			if err := s.Set("r", []byte("old")); err != nil {
				t.Fatal(err)
			}
			deleteUnreclaimed(t, s, "r")
			s.EnsureKeys("r")
			lateReclaim("r")
			if v, ok := s.FastGet("r"); !ok || v != nil {
				t.Fatalf("EnsureKeys over a deleted entry: %q,%v, want nil,true", v, ok)
			}
			if n := s.Len(); n != 3 {
				t.Fatalf("Len=%d, want 3", n)
			}
		})
	}
}

// TestWriterRetriesPastReclaimedEntry: an entry whose reclaim has
// committed but which is still in the table is the one state writers
// wait out; the write lands on the fresh entry inserted after removal.
func TestWriterRetriesPastReclaimedEntry(t *testing.T) {
	for _, eng := range stm.Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(eng))
			if err := s.Set("k", []byte("old")); err != nil {
				t.Fatal(err)
			}
			e := deleteUnreclaimed(t, s, "k")
			sh := s.shards[s.ShardOf("k")]
			if err := sh.stm.Atomically(func(tx *stm.Tx) error {
				tx.Write(e.dead, keyReclaimed)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { _, err := s.CounterAdd("k", 3); done <- err }()
			time.Sleep(10 * time.Millisecond) // let the writer meet the reclaimed entry
			sh.reclaim([]string{"k"})         // the reclaimer removes the entry
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v, ok, err := s.CounterGet("k"); err != nil || !ok || v != 3 {
				t.Fatalf("CounterGet=%d,%v,%v, want 3", v, ok, err)
			}
			if sh.lookup("k") == e {
				t.Fatal("write landed on the reclaimed entry")
			}
		})
	}
}

func TestTxnDeleteKindStaysFixedInTxn(t *testing.T) {
	// Re-creating a key deleted earlier in the same transaction reuses
	// its entry, so the kind cannot change within one transaction; the
	// mismatch aborts with no effects (including the deletion).
	s := New(WithShards(2))
	if _, err := s.CounterAdd("k", 3); err != nil {
		t.Fatal(err)
	}
	err := s.Update([]string{"k"}, func(tx *Txn) error {
		tx.Delete("k")
		tx.Set("k", []byte("bytes now"))
		return nil
	})
	if !errors.Is(err, ErrWrongType) {
		t.Fatalf("err=%v, want ErrWrongType", err)
	}
	if v, ok, err := s.CounterGet("k"); err != nil || !ok || v != 3 {
		t.Fatalf("failed txn disturbed the key: %d,%v,%v", v, ok, err)
	}
}

// TestDeleteSetRace hammers Delete against Set/CounterAdd on a small hot
// keyspace on every engine: writers must never land on a reclaimed
// entry (lost update into a removed entry), and the store must end in a
// coherent state where a final Set is durably readable. Run under -race.
func TestDeleteSetRace(t *testing.T) {
	for _, e := range kvEngines {
		t.Run(e.String(), func(t *testing.T) {
			s := New(WithShards(2), WithEngine(e))
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("hot-%d", i)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						k := keys[(i+w)%len(keys)]
						switch (i + w) % 3 {
						case 0:
							if err := s.Set(k, []byte("v")); err != nil {
								t.Errorf("Set: %v", err)
								return
							}
						case 1:
							if _, err := s.Delete(k); err != nil {
								t.Errorf("Delete: %v", err)
								return
							}
						default:
							if _, ok, err := s.Get(k); err != nil {
								t.Errorf("Get: %v,%v", ok, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			// Every key must be writable and durably readable afterwards.
			for _, k := range keys {
				if err := s.Set(k, []byte("final")); err != nil {
					t.Fatalf("final Set(%s): %v", k, err)
				}
				if v, ok, err := s.Get(k); err != nil || !ok || string(v) != "final" {
					t.Fatalf("final Get(%s)=%q,%v,%v", k, v, ok, err)
				}
			}
			if n := s.Len(); n != len(keys) {
				t.Fatalf("Len=%d, want %d (reclaim leaked or lost entries)", n, len(keys))
			}
		})
	}
}
