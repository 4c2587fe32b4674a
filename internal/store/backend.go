package store

import (
	"errors"
	"sort"
	"sync"
)

// ErrNotFound is returned by Backend.Get for an absent address. It is the
// only Get error the Store treats as a plain miss; anything else is an
// environmental failure surfaced to the caller.
var ErrNotFound = errors.New("store: address not found")

// Backend is the blob layer under a Store: it moves opaque envelope bytes
// by content address (the hex SHA-256 of the entry key) and knows nothing
// about envelopes, checksums, or schema versions — that logic lives in
// Store, so every backend gets it identically. Implementations must be
// safe for concurrent use.
//
// Implementations in this package: Dir (one filesystem directory, the
// classic layout), Mem (process-local map, for tests and the cache tier),
// Sharded (consistent-hash routing across child backends), Cached (a
// read-through/write-back memory tier over any other backend), and
// Discard (keeps nothing; under Cached it makes a bounded memory-only
// store).
type Backend interface {
	// Get returns the blob at addr, or ErrNotFound.
	Get(addr string) ([]byte, error)
	// Put atomically stores data at addr, replacing any existing blob.
	Put(addr string, data []byte) error
	// Delete removes addr; deleting an absent address is not an error.
	Delete(addr string) error
	// List returns every stored address, in no particular order.
	List() ([]string, error)
}

// usager is the optional Backend refinement behind Usage: backends that
// can report entry count and byte totals cheaper than a full List+Get
// sweep implement it (all backends in this package do).
type usager interface {
	Usage() (entries int, bytes int64, err error)
}

// describer lets a backend label itself for stats endpoints and logs.
type describer interface {
	Describe() string
}

// flusher is the optional write-back surface: Cached implements it, and
// Store.Flush forwards to it so owners can force dirty entries down to
// the durable layer (shutdown, tests).
type flusher interface {
	Flush() error
}

// Usage reports the backend's entry count and payload bytes, using the
// backend's own accounting when available and falling back to List+Get
// (O(entries) reads) otherwise.
func Usage(b Backend) (entries int, bytes int64, err error) {
	if u, ok := b.(usager); ok {
		return u.Usage()
	}
	addrs, err := b.List()
	if err != nil {
		return 0, 0, err
	}
	for _, a := range addrs {
		raw, err := b.Get(a)
		if errors.Is(err, ErrNotFound) {
			continue // deleted between List and Get
		}
		if err != nil {
			return entries, bytes, err
		}
		entries++
		bytes += int64(len(raw))
	}
	return entries, bytes, nil
}

// Describe labels a backend for human-facing output.
func Describe(b Backend) string {
	if d, ok := b.(describer); ok {
		return d.Describe()
	}
	return "backend"
}

// Mem is an in-memory Backend: a mutex-guarded map holding copies of the
// stored blobs. It backs tests and the Cached tier's bookkeeping, and is
// a legitimate (volatile) store backend in its own right.
type Mem struct {
	mu      sync.RWMutex
	entries map[string][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{entries: make(map[string][]byte)}
}

func (m *Mem) Get(addr string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.entries[addr]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

func (m *Mem) Put(addr string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.entries[addr] = cp
	m.mu.Unlock()
	return nil
}

func (m *Mem) Delete(addr string) error {
	m.mu.Lock()
	delete(m.entries, addr)
	m.mu.Unlock()
	return nil
}

func (m *Mem) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.entries))
	for a := range m.entries {
		out = append(out, a)
	}
	sort.Strings(out)
	return out, nil
}

func (m *Mem) Usage() (int, int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var bytes int64
	for _, d := range m.entries {
		bytes += int64(len(d))
	}
	return len(m.entries), bytes, nil
}

func (m *Mem) Describe() string { return "mem" }

// Discard is a Backend that keeps nothing: Put drops the blob and Get
// always misses. Under a Cached tier it makes a bounded, memory-only
// store whose evicted entries are simply recomputed — the experiment
// harness's process-level store.
type Discard struct{}

func (Discard) Get(string) ([]byte, error) { return nil, ErrNotFound }
func (Discard) Put(string, []byte) error   { return nil }
func (Discard) Delete(string) error        { return nil }
func (Discard) List() ([]string, error)    { return nil, nil }
func (Discard) Usage() (int, int64, error) { return 0, 0, nil }
func (Discard) Describe() string           { return "discard" }
