package experiments

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemo pins the one cache the Runner keeps runs, workloads and oracle
// brackets in: sixteen concurrent callers of one key compute it once; a
// failed computation is not stored, so its waiters and the next caller
// compute again and none of them gets the zero value; hits and misses are
// counted exactly.
func TestMemo(t *testing.T) {
	var m memo[int]
	var fills atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := m.get("a", func() (int, error) {
				fills.Add(1)
				time.Sleep(time.Millisecond) // hold the key while the others arrive
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("get(a) = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("16 callers of one key computed it %d times", n)
	}
	if hits, misses := m.stats(); hits != 15 || misses != 1 {
		t.Errorf("after one key: hits %d misses %d, want 15 and 1", hits, misses)
	}

	// A leader that fails while eight callers wait on it: one waiter takes
	// over as the new leader and the other seven get its value.
	boom := errors.New("boom")
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error)
	go func() {
		_, err := m.get("b", func() (int, error) {
			close(entered)
			<-release
			return 0, boom
		})
		leaderDone <- err
	}()
	<-entered
	const waiters = 8
	got := make([]int, waiters)
	for k := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.get("b", func() (int, error) { return 7, nil })
			if err != nil {
				t.Errorf("waiter %d: %v", k, err)
			}
			got[k] = v
		}()
	}
	// Time for the waiters to park on the leader; the values and counts
	// checked below hold whichever way they arrive.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Errorf("failing leader returned %v, want %v", err, boom)
	}
	wg.Wait()
	for k, v := range got {
		if v != 7 {
			t.Errorf("waiter %d got %d, want 7 from the computation after the failure", k, v)
		}
	}
	if hits, misses := m.stats(); hits != 15+waiters-1 || misses != 3 {
		t.Errorf("after the failure: hits %d misses %d, want %d and 3", hits, misses, 15+waiters-1)
	}

	// A failure is not stored: the next caller computes again.
	if _, err := m.get("c", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("get(c) = %v, want %v", err, boom)
	}
	if v, err := m.get("c", func() (int, error) { return 9, nil }); v != 9 || err != nil {
		t.Errorf("get(c) after a failure = %d, %v; want a fresh 9", v, err)
	}
	if hits, misses := m.stats(); hits != 15+waiters-1 || misses != 5 {
		t.Errorf("at the end: hits %d misses %d, want %d and 5", hits, misses, 15+waiters-1)
	}
	if got, want := m.snapshot(), map[string]int{"a": 42, "b": 7, "c": 9}; !maps.Equal(got, want) {
		t.Errorf("stored %v, want %v", got, want)
	}
}
