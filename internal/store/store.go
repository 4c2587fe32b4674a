// Package store is the content-addressed result store: the one cache
// hierarchy every cell runner resolves through (internal/engine), durable
// on disk for the job service and the fleet, and memory-only and bounded
// for the experiment harness. Entries are keyed by the explicit
// Key() builders (sim.Config, policies.Spec, workload.Mix), addressed by the
// SHA-256 of the key, and written atomically so a crashed writer never
// leaves a half-entry where a reader can see it. Every entry carries a
// schema version and a payload checksum; version mismatches and corrupted
// entries are treated as misses (and the bad blob removed) so callers
// always fall back to recompute instead of consuming damaged results.
//
// The Store is layered: envelope framing, checksums, and hit/miss
// accounting live here, while blob placement is a pluggable Backend
// (Get/Put/Delete/List by content address). Dir is the classic
// one-directory layout; Sharded consistent-hashes the address space across
// several backends so one logical store spans disks or machines; Cached
// adds a read-through/write-back memory tier in front of any of them. All
// compositions serve the same envelopes, so fleet nodes with different
// topologies still dedup against each other.
//
// The drishti-served job service fronts the simulator with a Store: a job
// whose (config, mix) key was computed by any earlier process — not just
// the current one — is served from the backend in O(1).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"drishti/internal/obs"
)

// SchemaVersion is bumped whenever the envelope layout or the semantics of
// stored payloads change; entries written under another version are
// invalidated on read.
const SchemaVersion = 1

// envelope is the stored frame around a payload.
type envelope struct {
	Version int             `json:"v"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"` // hex SHA-256 of Payload
	Payload json.RawMessage `json:"payload"`
}

// Stats is a point-in-time summary of store activity since Open.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`  // absent entries
	Corrupt   uint64 `json:"corrupt"` // checksum/decode failures, removed
	Stale     uint64 `json:"stale"`   // schema-version mismatches, removed
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"putErrors"`
}

// Store frames entries (schema version, key echo, payload checksum) over a
// Backend. All methods are safe for concurrent use, including by multiple
// processes sharing the same backend (atomic backend writes make same-key
// writers idempotent).
type Store struct {
	be  Backend
	dir string // root directory for dir-backed stores; else a description

	hits, misses, corrupt, stale, puts, putErrs atomic.Uint64

	// Optional registry mirrors (set by Attach).
	mu                  sync.Mutex
	cHits, cMiss, cCorr *obs.Counter
}

// Open prepares a store over the classic single-directory backend rooted
// at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	be, err := NewDir(dir)
	if err != nil {
		return nil, err
	}
	return &Store{be: be, dir: dir}, nil
}

// OpenBackend wraps an already-built backend composition (sharded, cached,
// in-memory, ...) in a Store.
func OpenBackend(be Backend) *Store {
	return &Store{be: be, dir: Describe(be)}
}

// OpenSharded builds the standard scaled-out composition: one Dir backend
// per shard directory, consistent-hash routed, with an optional
// read-through/write-back memory tier of cacheEntries entries in front
// (0 disables the tier, <0 takes DefaultCacheEntries). A single directory
// degenerates to the classic layout plus the optional tier.
func OpenSharded(dirs []string, cacheEntries int) (*Store, error) {
	if len(dirs) == 0 {
		return nil, errors.New("store: no shard directories")
	}
	var be Backend
	if len(dirs) == 1 {
		d, err := NewDir(dirs[0])
		if err != nil {
			return nil, err
		}
		be = d
	} else {
		names := make([]string, len(dirs))
		backends := make([]Backend, len(dirs))
		for i, dir := range dirs {
			d, err := NewDir(dir)
			if err != nil {
				return nil, err
			}
			// The ring identity is the shard's position-independent name:
			// the cleaned path, so every process naming the same
			// directories routes identically.
			names[i] = filepath.Clean(dir)
			backends[i] = d
		}
		sh, err := NewSharded(names, backends)
		if err != nil {
			return nil, err
		}
		be = sh
	}
	if cacheEntries != 0 {
		if cacheEntries < 0 {
			cacheEntries = DefaultCacheEntries
		}
		be = NewCached(be, cacheEntries)
	}
	return &Store{be: be, dir: strings.Join(dirs, ",")}, nil
}

// Dir returns the store's root directory for dir-backed stores, or a
// human-readable description of the backend composition otherwise.
func (s *Store) Dir() string { return s.dir }

// Backend exposes the underlying backend (stats endpoints and tests).
func (s *Store) Backend() Backend { return s.be }

// Flush forces any write-back tier in the backend composition to drain and
// returns the first asynchronous write failure it absorbed. A no-op for
// fully synchronous backends.
func (s *Store) Flush() error {
	if f, ok := s.be.(flusher); ok {
		return f.Flush()
	}
	return nil
}

// Attach mirrors hit/miss/corruption counts into reg as
// <prefix>_hits/_misses/_corrupt so /metrics exposes store behavior live.
func (s *Store) Attach(reg *obs.Registry, prefix string) *Store {
	if reg == nil {
		return s
	}
	s.mu.Lock()
	s.cHits = reg.Counter(prefix + "_hits")
	s.cMiss = reg.Counter(prefix + "_misses")
	s.cCorr = reg.Counter(prefix + "_corrupt")
	s.mu.Unlock()
	return s
}

// Addr maps a key to its content address: the hex SHA-256 every backend
// stores the entry under.
func Addr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) bumpHit() {
	s.hits.Add(1)
	s.mu.Lock()
	if s.cHits != nil {
		s.cHits.Inc()
	}
	s.mu.Unlock()
}

func (s *Store) bumpMiss() {
	s.misses.Add(1)
	s.mu.Lock()
	if s.cMiss != nil {
		s.cMiss.Inc()
	}
	s.mu.Unlock()
}

func (s *Store) bumpCorrupt() {
	s.corrupt.Add(1)
	s.mu.Lock()
	if s.cCorr != nil {
		s.cCorr.Inc()
	}
	s.mu.Unlock()
}

// Get loads the entry for key into v (a pointer, as for json.Unmarshal).
// It returns (true, nil) on a hit. Absent, stale-version, and corrupted
// entries all report (false, nil) — a miss the caller recovers from by
// recomputing; damaged blobs are removed so the next Put heals the slot.
// Only environmental failures (e.g. permission errors) surface as errors.
func (s *Store) Get(key string, v any) (bool, error) {
	addr := Addr(key)
	raw, err := s.be.Get(addr)
	if errors.Is(err, ErrNotFound) {
		s.bumpMiss()
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: read %q: %w", key, err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.discardCorrupt(addr)
		return false, nil
	}
	if env.Version != SchemaVersion {
		s.discardStale(addr)
		return false, nil
	}
	if env.Key != key { // hash collision or foreign blob; never deliver
		s.discardCorrupt(addr)
		return false, nil
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.Sum {
		s.discardCorrupt(addr)
		return false, nil
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		s.discardCorrupt(addr)
		return false, nil
	}
	s.bumpHit()
	return true, nil
}

// discardCorrupt removes a damaged entry and counts it as a corruption
// plus a miss (the caller recomputes).
func (s *Store) discardCorrupt(addr string) {
	s.be.Delete(addr)
	s.bumpCorrupt()
	s.bumpMiss()
}

// discardStale removes an entry written under another schema version.
func (s *Store) discardStale(addr string) {
	s.be.Delete(addr)
	s.stale.Add(1)
	s.bumpMiss()
}

// Put durably stores v under key, replacing any existing entry. Backend
// writes are atomic, so concurrent readers see either the old entry or the
// new one, never a torn blob, and concurrent same-key writers are
// idempotent.
func (s *Store) Put(key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		s.putErrs.Add(1)
		return fmt.Errorf("store: encode %q: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(envelope{
		Version: SchemaVersion,
		Key:     key,
		Sum:     hex.EncodeToString(sum[:]),
		Payload: payload,
	})
	if err != nil {
		s.putErrs.Add(1)
		return fmt.Errorf("store: encode envelope %q: %w", key, err)
	}
	if err := s.be.Put(Addr(key), raw); err != nil {
		s.putErrs.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

// Stats returns activity counts since Open.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Stale:     s.stale.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrs.Load(),
	}
}

// DiskStats reports the backend's entry count and stored bytes (served by
// GET /v1/store/stats; O(entries), so it is not on any hot path).
func (s *Store) DiskStats() (entries int, bytes int64, err error) {
	return Usage(s.be)
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, the same torn-write guarantee store entries get. The job service
// reuses it for queue persistence.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
