//! Process-wide keyed artifact cache.
//!
//! Every sweep cell pays two expensive, *purely content-determined* builds
//! before the first shot runs: the detector error model + decoding graph
//! (inside [`MemoryRunner::new`]) and the [`WindowPlan`] with its per-shape
//! decoder tables (the all-pairs shortest-path table, union-find
//! capacities, or the sparse boundary index). Two cells that differ only in
//! policy — or two jobs from different `eraser-serve` clients — rebuild
//! identical artifacts from scratch.
//!
//! [`ArtifactCache`] generalizes the `Sweep` engine's old per-call runner
//! map into a shared, size-bounded LRU keyed by *content*: the
//! [`ExperimentKey`] (distance, rounds, basis, exact noise-parameter bits)
//! plus an [`ArtifactKind`] discriminant. Values are `Arc`-shared, so an
//! entry being evicted never invalidates an artifact a running job still
//! holds. All builds are deterministic functions of the key, which is what
//! makes sharing sound: a cache hit is bit-identical to a rebuild, so
//! cached and cold runs produce identical results.
//!
//! Concurrency: the map sits behind one `Mutex`, but the lock is *released
//! while building* a missing artifact. Two threads racing on the same cold
//! key may both build; the first insert wins and the loser adopts it. That
//! duplicated work is bounded by one build and keeps slow builds (APSP on
//! a d=11 long-memory graph takes tens of ms) from serializing unrelated
//! lookups.
//!
//! [`MemoryRunner::new`]: crate::runtime::MemoryRunner::new
//! [`WindowPlan`]: qec_decoder::WindowPlan

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use qec_core::{NoiseParams, TransportModel};
use qec_decoder::DecoderKind;
use surface_code::MemoryBasis;

/// Default capacity of the process-wide cache: generous for every sweep in
/// the repo (a full-cover d=7, R=124 APSP table is ~80 MB) while bounding a
/// long-running server that sees many tenants' grids.
const GLOBAL_CAPACITY_BYTES: usize = 256 << 20;

/// Content identity of a memory experiment: everything that determines the
/// circuit, detector error model, and decoding graph. Runs sharing a key
/// share every decode artifact bit-for-bit.
///
/// Noise parameters are keyed by their exact `f64` bit patterns — two
/// grids are "the same" only when their physics is, with no epsilon.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExperimentKey {
    /// Code distance.
    pub d: usize,
    /// Syndrome-extraction rounds per shot.
    pub rounds: usize,
    /// Memory basis being preserved.
    pub basis: MemoryBasis,
    /// Bit patterns of `(p, leak_fraction, seep_fraction, p_transport,
    /// multilevel_error_factor)`.
    pub noise_bits: [u64; 5],
    /// Transport model of the noise parameters.
    pub transport: TransportModel,
    /// Whether leakage physics is enabled at all.
    pub leakage_enabled: bool,
}

impl ExperimentKey {
    /// Builds the key for a distance-`d`, `rounds`-round memory experiment
    /// under `noise`.
    pub fn new(d: usize, rounds: usize, basis: MemoryBasis, noise: &NoiseParams) -> ExperimentKey {
        ExperimentKey {
            d,
            rounds,
            basis,
            noise_bits: [
                noise.p.to_bits(),
                noise.leak_fraction.to_bits(),
                noise.seep_fraction.to_bits(),
                noise.p_transport.to_bits(),
                noise.multilevel_error_factor.to_bits(),
            ],
            transport: noise.transport,
            leakage_enabled: noise.leakage_enabled,
        }
    }
}

/// Which artifact a cache entry holds. Together with [`ExperimentKey`]
/// this fully determines the artifact's content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A full [`MemoryRunner`](crate::runtime::MemoryRunner): DEM, decoding
    /// graph, round schedules, provenance buckets.
    Runner,
    /// A window decode plan (the only decode path; a full-cover window is
    /// whole-shot decoding), additionally keyed by its resolved window
    /// geometry and its resolved backend (never `Auto`, so an `auto` run
    /// and the explicit backend it resolves to share one entry).
    WindowPlan {
        window: usize,
        stride: usize,
        backend: DecoderKind,
    },
}

/// Full cache key: experiment content identity × artifact kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub experiment: ExperimentKey,
    pub kind: ArtifactKind,
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Approximate bytes held by live entries.
    pub bytes: usize,
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    /// Logical timestamp of last use; smallest is evicted first.
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A keyed, size-bounded, `Arc`-sharing LRU cache over decode artifacts.
///
/// See the [module docs](self) for the design; the one non-obvious
/// guarantee is that eviction only drops the cache's *reference* — any
/// job still holding the `Arc` keeps its artifact alive and valid.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ArtifactCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("stats", &stats)
            .finish()
    }
}

impl ArtifactCache {
    /// Creates a cache bounded to approximately `capacity_bytes` of
    /// artifact payload.
    pub fn new(capacity_bytes: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(Inner::default()),
            capacity_bytes,
        }
    }

    /// The process-wide cache every [`Sweep`](crate::Sweep) and
    /// [`Experiment`](crate::Experiment) run routes through by default.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(|| ArtifactCache::new(GLOBAL_CAPACITY_BYTES))
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Looks up `key`, building (and inserting) the artifact on a miss.
    ///
    /// `size` prices a freshly built artifact for the byte budget; `build`
    /// runs *outside* the cache lock. If two threads race on the same cold
    /// key, both build and the first insert wins (see module docs).
    pub fn get_or_build<T: Send + Sync + 'static>(
        &self,
        key: &CacheKey,
        size: impl FnOnce(&T) -> usize,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(key) {
                // A kind/type mismatch would mean two artifact types share
                // a key — a programming error upstream; treat it as a miss
                // and overwrite below.
                if let Ok(value) = Arc::downcast::<T>(Arc::clone(&entry.value)) {
                    entry.stamp = clock;
                    inner.hits += 1;
                    return value;
                }
            }
            inner.misses += 1;
        }

        let built = Arc::new(build());
        let bytes = size(&built);

        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.map.get_mut(key) {
            // Lost the build race: adopt the winner so every concurrent
            // caller shares one allocation.
            if let Ok(value) = Arc::downcast::<T>(Arc::clone(&entry.value)) {
                entry.stamp = clock;
                return value;
            }
        }
        let evicted = inner.map.insert(
            key.clone(),
            Entry {
                value: built.clone(),
                bytes,
                stamp: clock,
            },
        );
        inner.bytes += bytes;
        if let Some(old) = evicted {
            inner.bytes -= old.bytes;
        }
        // Evict least-recently-used entries until back under budget. The
        // just-inserted entry carries the freshest stamp, so it is only
        // dropped when it alone exceeds the whole budget — in which case
        // callers still hold the Arc and simply get no reuse.
        while inner.bytes > self.capacity_bytes && !inner.map.is_empty() {
            let key = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("map is non-empty");
            let entry = inner.map.remove(&key).expect("key just observed");
            inner.bytes -= entry.bytes;
            inner.evictions += 1;
        }
        built
    }

    /// Snapshot of the effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(d: usize, kind: ArtifactKind) -> CacheKey {
        CacheKey {
            experiment: ExperimentKey::new(d, 2 * d, MemoryBasis::Z, &NoiseParams::standard(1e-3)),
            kind,
        }
    }

    /// The full-cover window plan key of a distance-`d`, `2d`-round run.
    fn plan(d: usize) -> ArtifactKind {
        ArtifactKind::WindowPlan {
            window: 2 * d + 1,
            stride: 2 * d + 1,
            backend: DecoderKind::Mwpm,
        }
    }

    #[test]
    fn hit_returns_same_arc() {
        let cache = ArtifactCache::new(1 << 20);
        let a = cache.get_or_build(&key(3, plan(3)), |_| 100, || vec![1u8, 2, 3]);
        let b = cache.get_or_build(&key(3, plan(3)), |_| 100, || vec![9u8]);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 100);
    }

    #[test]
    fn distinct_kinds_do_not_collide() {
        let cache = ArtifactCache::new(1 << 20);
        let a = cache.get_or_build(&key(3, ArtifactKind::Runner), |_| 1, || 1u32);
        let b = cache.get_or_build(&key(3, plan(3)), |_| 1, || 2u32);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let cache = ArtifactCache::new(250);
        cache.get_or_build(&key(3, plan(3)), |_| 100, || 3u32);
        cache.get_or_build(&key(5, plan(5)), |_| 100, || 5u32);
        // Touch d=3 so d=5 becomes the LRU victim.
        cache.get_or_build(&key(3, plan(3)), |_| 100, || 0u32);
        cache.get_or_build(&key(7, plan(7)), |_| 100, || 7u32);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 250);
        // d=5 was evicted; d=3 survives.
        cache.get_or_build(&key(3, plan(3)), |_| 100, || 99u32);
        assert_eq!(cache.stats().hits, 2);
        let rebuilt = cache.get_or_build(&key(5, plan(5)), |_| 100, || 55u32);
        assert_eq!(*rebuilt, 55, "evicted entry rebuilds");
    }

    #[test]
    fn oversized_entry_still_served() {
        let cache = ArtifactCache::new(10);
        let a = cache.get_or_build(&key(3, plan(3)), |_| 1000, || 1u32);
        assert_eq!(*a, 1, "caller gets the artifact even when uncacheable");
        // The oversized entry was evicted immediately (it exceeds the whole
        // budget), so the next lookup rebuilds.
        let b = cache.get_or_build(&key(3, plan(3)), |_| 1000, || 2u32);
        assert_eq!(*b, 2);
        assert!(cache.stats().bytes <= 1000);
    }

    #[test]
    fn concurrent_cold_lookups_converge() {
        let cache = Arc::new(ArtifactCache::new(1 << 20));
        let arcs: Vec<Arc<u64>> = std::thread::scope(|scope| {
            (0..8)
                .map(|i| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || {
                        cache.get_or_build(&key(9, plan(9)), |_| 8, move || i as u64)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Losers of the build race adopt an already-inserted value, so at
        // most transiently-held duplicates exist; the cache itself holds
        // exactly one entry.
        assert_eq!(cache.stats().entries, 1);
        let canonical = cache.get_or_build(&key(9, plan(9)), |_| 8, || 999u64);
        assert!(*canonical < 8, "cached value came from one of the racers");
        // Every racer that adopted must agree with the canonical entry,
        // and the canonical entry is one of the racers' builds.
        let distinct: std::collections::HashSet<u64> = arcs.iter().map(|a| **a).collect();
        assert!(distinct.contains(&canonical));
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = ArtifactCache::new(1 << 20);
        cache.get_or_build(&key(3, plan(3)), |_| 10, || 1u32);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.misses, 1);
    }
}
