package compile

// FuncCache: the incremental-compilation tier. Values are serialized
// per-function machine-code images (the spill codec's wireFunc plus a
// canonical-rendering digest), keyed by FuncKey, held in a sharded,
// memory-accounted store.Store. Entries are stored encoded — never as live
// *mach.Func — because a machine function is bound to one front end's
// *ast.Object identities; stitching a cached function into a new compilation
// decodes the image against that compilation's own sem.Program, which
// rebinds objects, declarations and source positions (see decFunc). The
// digest is re-verified on every decode, so a stitched function is
// byte-identical in canonical rendering to what was cached or the cache
// entry is ignored.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/mach"
	"repro/internal/sem"
	"repro/internal/store"
)

// FuncCacheConfig tunes a FuncCache. The zero value is a single-shard,
// unbounded cache.
type FuncCacheConfig struct {
	// Shards is the store shard count (rounded up to a power of two).
	Shards int
	// MemoryBudget bounds the accounted bytes of encoded function entries;
	// <= 0 means unbounded.
	MemoryBudget int64
}

// FuncCache caches compiled functions by content hash for incremental
// recompilation. It is safe for concurrent use and may be shared by any
// number of Pipelines (the keys are self-describing: program environment,
// function IR and Config are all part of the hash).
type FuncCache struct {
	s *store.Store[FuncKey, []byte]
}

// NewFuncCache creates a function cache.
func NewFuncCache(cfg FuncCacheConfig) *FuncCache {
	return &FuncCache{s: store.New(store.Config[FuncKey, []byte]{
		Shards:       cfg.Shards,
		MemoryBudget: cfg.MemoryBudget,
		// The key is already a cryptographic hash; its prefix routes.
		Hash: func(k FuncKey) uint64 { return binary.LittleEndian.Uint64(k[:8]) },
	})}
}

// get returns the encoded entry for k, computing (and caching) it at most
// once across concurrent callers. hit reports that compute was skipped.
func (c *FuncCache) get(k FuncKey, compute func() ([]byte, int64, error)) ([]byte, bool, error) {
	return c.s.Get(k, k.String, compute)
}

// Stats returns the underlying store counters (hits/misses are per-function
// lookups, MemoryBytes the encoded-entry budget usage).
func (c *FuncCache) Stats() store.Stats { return c.s.Stats() }

// Len returns the number of resident function entries.
func (c *FuncCache) Len() int { return c.s.Len() }

// wireFuncEntry is the serialized form of one cached function.
type wireFuncEntry struct {
	Version int
	Func    wireFunc
	Sum     [sha256.Size]byte // sha256 of mach.Func.String(), re-verified on decode
}

// encodeFuncEntry serializes one compiled function for the cache.
func encodeFuncEntry(f *mach.Func) ([]byte, error) {
	wf, err := encFunc(f)
	if err != nil {
		return nil, err
	}
	w := wireFuncEntry{
		Version: spillVersion,
		Func:    wf,
		Sum:     sha256.Sum256([]byte(f.String())),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	// The cache retains the entry and charges its length, so copy it out
	// of the buffer's spare capacity, which the charge would not cover.
	return bytes.Clone(buf.Bytes()), nil
}

// decodeFuncEntry reconstructs a cached function against the current front
// end, rebinding declarations, objects and source positions, and verifies
// the machine-code rendering byte-for-byte against the recorded digest.
func decodeFuncEntry(data []byte, p *sem.Program) (*mach.Func, error) {
	var w wireFuncEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	if w.Version != spillVersion {
		return nil, fmt.Errorf("funccache: version %d, want %d", w.Version, spillVersion)
	}
	r := &objResolver{globals: p.Globals}
	f, err := decFunc(&w.Func, p, r)
	if err != nil {
		return nil, err
	}
	if sum := sha256.Sum256([]byte(f.String())); sum != w.Sum {
		return nil, fmt.Errorf("funccache: machine-code digest mismatch for %s", f.Name)
	}
	return f, nil
}
