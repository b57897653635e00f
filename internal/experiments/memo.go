package experiments

import (
	"maps"
	"sync"
)

// memo is a concurrent fill-once cache, the one the Runner keeps its
// results, workloads and oracle brackets in. The first caller of a key
// computes the value while concurrent callers of that key wait for it. A
// failed computation is not stored: its waiters look again, and the first
// of them computes anew, so an error is never cached and no caller gets the
// zero value of a failed key. The zero memo is ready to use.
type memo[V any] struct {
	mu      sync.Mutex
	vals    map[string]V
	pending map[string]chan struct{}
	hits    int64 // calls a stored value answered
	misses  int64 // computations started
}

// get returns key's value, computing it with fill if no caller has.
func (m *memo[V]) get(key string, fill func() (V, error)) (V, error) {
	m.mu.Lock()
	for {
		if v, ok := m.vals[key]; ok {
			m.hits++
			m.mu.Unlock()
			return v, nil
		}
		wait, ok := m.pending[key]
		if !ok {
			break
		}
		m.mu.Unlock()
		<-wait
		m.mu.Lock()
	}
	if m.pending == nil {
		m.vals = make(map[string]V)
		m.pending = make(map[string]chan struct{})
	}
	done := make(chan struct{})
	m.pending[key] = done
	m.misses++
	m.mu.Unlock()

	v, err := fill()

	m.mu.Lock()
	delete(m.pending, key)
	if err == nil {
		m.vals[key] = v
	}
	m.mu.Unlock()
	close(done)
	return v, err
}

// stats returns the hit and miss counts.
func (m *memo[V]) stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// snapshot returns a copy of the stored values by key.
func (m *memo[V]) snapshot() map[string]V {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.vals)
}
