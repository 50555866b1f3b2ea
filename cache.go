// Caching layer: the content-addressed request cache of the fold pipeline.
//
// A screening workload is full of repeated work: one query strand is folded
// against thousands of targets (the same S¹ substrate rebuilt every time),
// identical requests arrive concurrently from independent callers, and hot
// pairs recur. WithCache memoizes at two granularities, both keyed by a
// SHA-256 content address of everything that determines the value:
//
//   - Substrate entries: one strand's Nussinov S table under one scoring
//     model (and, for partition folds, its Boltzmann table under one kT).
//     Any fold (interaction or single-strand) of a strand already seen
//     shares the cached table read-only and skips its O(n³) refill.
//   - Result entries: one whole completed fold under one full option set,
//     or one strand's ensemble signal. A hit returns a copy sharing the
//     retained master's tables — bit identical to re-folding. Observation
//     never bypasses this layer: a hit's Result.Metrics is the record of
//     the fill that built the master, WithMetrics aggregates only the fills
//     that ran, and a per-request trace (internal/trace, surfaced by
//     cmd/bpmaxd) records the cache hit or single-flight wait it was served
//     by.
//
// Every cached kind goes through one step, cacheDo: breaker → probe → join
// an in-flight build of the same key → lead the build → retain. So N
// concurrent requests sharing a strand or a pair pay one build, a waiter
// honours its own deadline while parked, an error is never retained, and a
// key whose builds keep dying is served cold until a probe succeeds.
//
// Entries are evicted least-recently-used once MaxBytes is exceeded, and the
// cache's retained bytes are charged against WithMemoryLimit budgets exactly
// like the pool's retention. See docs/ARCHITECTURE.md for semantics and
// docs/PERFORMANCE.md for measured effect.

package bpmax

import (
	"context"
	"sync/atomic"
	"time"

	ibpmax "github.com/bpmax-go/bpmax/internal/bpmax"
	"github.com/bpmax-go/bpmax/internal/pipeline"
	"github.com/bpmax-go/bpmax/internal/rna"
	"github.com/bpmax-go/bpmax/internal/score"
	itrace "github.com/bpmax-go/bpmax/internal/trace"
)

// Cache is a content-addressed cache shared by any number of concurrent
// folds. Create one with NewCache, attach it with WithCache (or via a
// Session), and read utilization with Stats. All methods and all cached
// serving paths are safe for concurrent use.
type Cache struct {
	c      *pipeline.Cache
	resOff bool
	// breaker is the per-key circuit breaker over every cached key (nil when
	// disabled): repeated transient leader failures for a key open it, and
	// an open key is built cold instead of stampeding retries behind a
	// poisoned single-flight leader.
	breaker *pipeline.Breaker

	// layers holds the hit/miss counters, indexed by cacheLayer.
	layers [2]struct{ hits, misses atomic.Int64 }
}

// CacheConfig configures NewCache. The zero value enables both layers with
// unlimited retention.
type CacheConfig struct {
	// MaxBytes caps the retained cost of cached entries; least-recently-used
	// entries are evicted beyond it. 0 means unlimited.
	MaxBytes int64
	// DisableResults turns off the whole-result layer (and with it
	// single-flight deduplication).
	DisableResults bool
	// BreakerThreshold is the number of consecutive transient leader
	// failures (panics, injected faults) for one cached key — a pair's
	// result, a strand's table — after which the key's circuit breaker opens
	// and requests for it bypass the cache, built cold, until the cooldown
	// admits a successful probe. 0 selects the default of 3; negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open key bypasses the cache before one
	// probe request is let back through (0 selects 1s).
	BreakerCooldown time.Duration
}

// NewCache returns an empty cache.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{
		c:      pipeline.NewCache(cfg.MaxBytes),
		resOff: cfg.DisableResults,
	}
	if cfg.BreakerThreshold >= 0 {
		threshold := cfg.BreakerThreshold
		if threshold == 0 {
			threshold = 3
		}
		c.breaker = pipeline.NewBreaker(threshold, cfg.BreakerCooldown)
	}
	return c
}

// WithCache serves folds through c: substrate tables and whole results
// already computed under equal parameters are reused instead of recomputed.
// Cached serving is bit-identical to cold folding. A nil cache leaves
// caching off.
func WithCache(c *Cache) Option {
	return func(o *options) { o.cache = c }
}

// RetainedBytes returns the storage currently pinned by cache entries. It
// is counted against WithMemoryLimit budgets of folds using this cache.
func (c *Cache) RetainedBytes() int64 { return c.c.RetainedBytes() }

// Stats snapshots the cache's per-layer hit/miss counters, single-flight
// shares, evictions and retention. Safe to call concurrently with serving.
func (c *Cache) Stats() CacheStats {
	entries, bytes, bytesHW, evictions, shared := c.c.Counters()
	opens, bypasses, openKeys := c.breaker.Counters()
	return CacheStats{
		SubstrateHits:      c.layers[layerSubstrate].hits.Load(),
		SubstrateMisses:    c.layers[layerSubstrate].misses.Load(),
		ResultHits:         c.layers[layerResult].hits.Load(),
		ResultMisses:       c.layers[layerResult].misses.Load(),
		SingleFlightShared: shared,
		Evictions:          evictions,
		Entries:            entries,
		RetainedBytes:      bytes,
		RetainedHighWater:  bytesHW,
		BreakerOpens:       opens,
		BreakerBypasses:    bypasses,
		BreakerOpenKeys:    openKeys,
	}
}

// cacheLayer names the counter pair a cached kind reports under.
type cacheLayer uint8

const (
	layerSubstrate cacheLayer = iota // per-strand tables: S and Q keys
	layerResult                      // whole folds and ensembles: R and E keys; off under DisableResults
)

// cacheOutcome is how one cache step was served.
type cacheOutcome uint8

const (
	// cacheBypassed: no cache, the layer is off, or the key's breaker is
	// open — the value was built cold and nothing was retained.
	cacheBypassed cacheOutcome = iota
	cacheHit                   // served from a retained entry
	cacheJoined                // parked behind another request's build of the key and shares its value
	cacheLed                   // built the value itself; the cache retains it
)

// stage is the trace stage the wall time of a step served this way belongs
// to. led is the caller's stage for a build it ran itself; itrace.StageCount
// (which Trace.End ignores) when that build recorded its own spans.
func (o cacheOutcome) stage(led itrace.Stage) itrace.Stage {
	switch o {
	case cacheHit:
		return itrace.StageCacheHit
	case cacheJoined:
		return itrace.StageCacheWait
	}
	return led
}

// cacheDo is the one cache step, the same protocol for every cached kind —
// a fold's result, a strand's S table, its Boltzmann table, an ensemble:
//
//	breaker → probe → join an in-flight leader → lead the build → retain
//
// build(retain) produces the value and its retained-byte cost; retain says
// whether the cache will keep what it returns (so a pooled builder hands over
// a clone, and the result layer an unpooled master). With no cache, with the
// layer off or with the key's breaker open, cacheDo is build(false) and the
// value is the caller's own. Otherwise a retained entry is a hit; a caller
// that finds the key in flight parks under its own ctx and shares the
// leader's value read-only, or retries as leader if that leader failed; and a
// leader builds under the pipeline's guard — a panic fails it typed, wakes
// the joiners and is never retained. The outcome feeds the key's breaker
// (transient failures count toward opening it, success closes it,
// cancellation and budget errors say nothing about the key), and hits and
// misses are counted here and nowhere else. No cache lock is held across
// build, so a leader may take the step again for a key of another namespace
// (a result leader building its strands). On error the reported outcome is
// where the caller was when it failed: cacheJoined for a joiner whose ctx
// ended while parked, cacheLed for a failed build, cacheBypassed for a cold
// one.
func cacheDo[T any](ctx context.Context, c *Cache, layer cacheLayer, key func() pipeline.Key, build func(retain bool) (T, int64, error)) (t T, how cacheOutcome, err error) {
	if c == nil || layer == layerResult && c.resOff {
		t, _, err = build(false)
		return t, cacheBypassed, err
	}
	k := key()
	if !c.breaker.Allow(k) {
		t, _, err = build(false)
		return t, cacheBypassed, err
	}
	v, hit, shared, err := c.c.Do(ctx, k, func() (_ any, _ int64, err error) {
		defer guard(&err)
		return build(true)
	})
	switch {
	case err == nil:
		c.breaker.Success(k)
	case isTransientFold(err):
		c.breaker.Failure(k)
	}
	switch {
	case shared:
		how = cacheJoined
	case err != nil:
		how = cacheLed
	case hit:
		c.layers[layer].hits.Add(1)
		how = cacheHit
	default:
		c.layers[layer].misses.Add(1)
		how = cacheLed
	}
	if err != nil {
		return t, how, err
	}
	return v.(T), how, nil
}

// Per-strand key namespaces. The tag byte keeps them disjoint: the float32
// and float64 substrate tables and the ensemble signal never cross-serve.
const (
	keySubstrate    byte = 'S' // max-plus S table
	keyPartitionSub byte = 'Q' // Boltzmann (float64) S table with its domain and scale
	keyEnsemble     byte = 'E' // SingleEnsemble result
)

// strandKey addresses one strand's entry in namespace tag: the strand's
// normalized bases, the intramolecular model weights and the hairpin
// constraint — exactly the inputs of the S recurrence — plus, for the two
// Boltzmann namespaces, the temperature factor that scales every weight and
// therefore every cell. Max-plus keys carry no kT component.
func strandKey(tag byte, seq rna.Sequence, sp score.Params, kT float64) pipeline.Key {
	h := pipeline.NewHasher()
	h.Byte(tag)
	hashModel(h, sp.Model)
	h.I64(int64(sp.MinHairpin))
	if tag != keySubstrate {
		h.F64(kT)
	}
	h.I64(int64(seq.Len()))
	for i := 0; i < seq.Len(); i++ {
		h.Byte(byte(seq.At(i)))
	}
	k := h.Sum()
	h.Release()
	return k
}

// resultKey addresses one whole fold: both raw input strings plus every
// option that can observably shape the Result — scoring weights (intra and
// effective inter), the hairpin constraint, the schedule variant, the
// memory map, and the full budget policy (limit and degradation windows),
// so a cached result is bit-identical to what a cold fold with these exact
// options would produce. Raw strings are hashed as given; "acgu" and "ACGU"
// fold identically but key separately, which costs a duplicate entry, never
// a wrong hit.
func (rq request) resultKey(seq1, seq2 string) pipeline.Key {
	h := pipeline.NewHasher()
	h.Byte('R')
	h.Str(seq1)
	h.Str(seq2)
	hashModel(h, rq.sp.Model)
	inter := rq.sp.Model
	if rq.sp.InterModel != nil {
		inter = *rq.sp.InterModel
	}
	hashModel(h, inter)
	h.I64(int64(rq.sp.MinHairpin))
	h.I64(int64(rq.v))
	h.I64(int64(rq.cfg.Map))
	h.I64(rq.memLimit)
	h.I64(int64(rq.degradeW1))
	h.I64(int64(rq.degradeW2))
	if rq.algebra == AlgebraPartition {
		// The algebra discriminator is appended only for partition requests:
		// every max-plus key stays byte-identical to what it hashed before
		// the algebra existed (warm caches and recorded keys survive the
		// upgrade), while partition results — which also depend on kT — can
		// never collide with them.
		h.Byte('P')
		h.F64(rq.kT)
	}
	k := h.Sum()
	h.Release()
	return k
}

// hashModel folds a scoring model's full 4×4 weight table into the hasher.
func hashModel(h *pipeline.Hasher, m score.Model) {
	for _, a := range rna.Bases {
		for _, b := range rna.Bases {
			h.F32(m.Pair(a, b))
		}
	}
}

// cachedResultBytes is the storage a retained master result pins: its
// table (full or banded), the problem's footprint — score tables, S tables
// and sequences — and on partition the Boltzmann substrate. S tables shared
// with substrate entries are counted on both, a deliberate over-count that
// errs toward earlier eviction rather than an under-charged WithMemoryLimit.
func cachedResultBytes(r *Result) int64 {
	b := r.TableBytes + ibpmax.ProblemBytes(r.N1, r.N2)
	if r.ps != nil {
		b += ibpmax.PartitionSubBytes(r.N1, r.N2)
	}
	return b
}
