//! Shared dynamic-trace cache.
//!
//! Sweeping a design space costs O(configs × workloads) runs, but only
//! O(workloads) *traces*: a [`Workload`] executes deterministically for
//! a given `(label, seed, target_instrs)`, so every config in a sweep
//! can predict over the same materialized trace. [`TraceCache`]
//! generates each trace once and hands out [`Arc`] clones; the
//! process-wide [`TraceCache::global`] instance lets independent call
//! sites (an experiment's suite pass and its follow-up single-workload
//! probes, say) share work without plumbing a cache handle through.

use crate::workloads::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use zbp_model::DynamicTrace;

/// Identity of a generated trace — the cache-key contract.
///
/// The workload label already encodes the generator and its parameters
/// (e.g. `lspr-like(s7,f200)`), so `(label, seed, instrs)` pins the
/// exact byte stream: two workloads with equal keys produce equal
/// traces, and the cache may (and does) hand both the same `Arc`.
/// Conversely, a workload whose generation depends on anything *not*
/// captured by these three fields must encode that extra parameter in
/// its label, or sharing would silently serve the wrong trace.
///
/// ```
/// use zbp_trace::{workloads, TraceKey};
///
/// let a = TraceKey::of(&workloads::compute_loop(3, 2_000));
/// let b = TraceKey::of(&workloads::compute_loop(3, 2_000));
/// assert_eq!(a, b, "same generator, seed and budget: same key");
///
/// // Changing any of the three fields changes the key...
/// assert_ne!(a, TraceKey::of(&workloads::compute_loop(4, 2_000)));
/// assert_ne!(a, TraceKey::of(&workloads::compute_loop(3, 3_000)));
/// // ...and a different generator differs in the label even at the
/// // same (seed, instrs).
/// assert_ne!(a, TraceKey::of(&workloads::lspr_like(3, 2_000)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceKey {
    /// Workload label (generator name + parameters).
    pub label: String,
    /// Executor seed.
    pub seed: u64,
    /// Minimum retired-instruction budget.
    pub instrs: u64,
}

impl TraceKey {
    /// The key identifying `w`'s dynamic trace.
    pub fn of(w: &Workload) -> Self {
        TraceKey { label: w.label.clone(), seed: w.seed, instrs: w.target_instrs }
    }
}

/// A keyed store of reference-counted dynamic traces.
///
/// Thread-safe: concurrent lookups of *different* keys generate in
/// parallel, while concurrent lookups of the *same* key are serialized
/// by a per-key in-flight guard — the first caller generates and every
/// other caller waits on its [`OnceLock`] instead of racing a duplicate
/// generation (which earlier versions then threw away). The map lock is
/// held only to find or create the slot, never during generation.
#[derive(Debug, Default)]
pub struct TraceCache {
    map: Mutex<std::collections::BTreeMap<TraceKey, Arc<OnceLock<Arc<DynamicTrace>>>>>,
    hits: AtomicU64,
    generations: AtomicU64,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared cache.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// The dynamic trace for `w`, generated on first use.
    ///
    /// Repeated calls with an equivalent workload return clones of the
    /// same `Arc` (pointer-equal), not a regenerated trace. A call that
    /// arrives while another thread is generating the same key blocks
    /// until that generation finishes and shares its result.
    pub fn trace(&self, w: &Workload) -> Arc<DynamicTrace> {
        self.get_or_insert_with(TraceKey::of(w), || w.dynamic_trace())
    }

    /// The trace for an arbitrary key, produced by `generate` on first
    /// use — the general entry point behind [`TraceCache::trace`], so
    /// non-generated sources (a loaded `.zbt2` container, say) share
    /// the same cache and in-flight guard. The key contract still
    /// applies: everything that determines the bytes `generate`
    /// produces must be encoded in the key.
    pub fn get_or_insert_with(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> DynamicTrace,
    ) -> Arc<DynamicTrace> {
        let slot = {
            let mut map = self.map.lock().expect("trace cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        // Generate outside the map lock so distinct workloads
        // materialize in parallel; the slot's `OnceLock` guarantees at
        // most one generation per key even when same-key lookups race.
        let mut generated_here = false;
        let trace = slot.get_or_init(|| {
            generated_here = true;
            self.generations.fetch_add(1, Ordering::Relaxed);
            Arc::new(generate())
        });
        if !generated_here {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(trace)
    }

    /// Fallible form of [`get_or_insert_with`](Self::get_or_insert_with)
    /// for sources that can fail (file-backed containers). A failed
    /// load caches nothing, so a later retry can succeed; concurrent
    /// same-key callers may each attempt the load, but at most one
    /// result is ever installed.
    ///
    /// # Errors
    ///
    /// Propagates `generate`'s error when the key is absent and the
    /// load fails.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> Result<DynamicTrace, E>,
    ) -> Result<Arc<DynamicTrace>, E> {
        let slot = {
            let mut map = self.map.lock().expect("trace cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        if let Some(trace) = slot.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(trace));
        }
        let generated = Arc::new(generate()?);
        let mut generated_here = false;
        let trace = slot.get_or_init(|| {
            generated_here = true;
            self.generations.fetch_add(1, Ordering::Relaxed);
            generated
        });
        if !generated_here {
            // A racing loader won the install; ours is dropped and
            // the lookup counts as served-from-cache.
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Arc::clone(trace))
    }

    /// Number of distinct traces currently cached (slots whose
    /// generation is still in flight are not counted).
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("trace cache poisoned")
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lookups served from the cache since creation — calls
    /// that did not run the generator, including those that waited on
    /// another thread's in-flight generation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of times the workload generator actually ran. After any
    /// quiescent point this equals the number of distinct keys ever
    /// requested, however many threads raced on them.
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// Drops every cached trace (reclaims memory between sweeps; any
    /// outstanding `Arc`s stay valid).
    pub fn clear(&self) {
        self.map.lock().expect("trace cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn same_key_returns_same_arc() {
        let cache = TraceCache::new();
        let w1 = workloads::compute_loop(3, 2_000);
        let w2 = workloads::compute_loop(3, 2_000);
        let a = cache.trace(&w1);
        let b = cache.trace(&w2);
        assert!(Arc::ptr_eq(&a, &b), "identical (label, seed, instrs) must share one trace");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.generations(), 1);
    }

    #[test]
    fn different_keys_are_distinct() {
        let cache = TraceCache::new();
        let a = cache.trace(&workloads::compute_loop(3, 2_000));
        let b = cache.trace(&workloads::compute_loop(4, 2_000));
        let c = cache.trace(&workloads::compute_loop(3, 3_000));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.generations(), 3);
    }

    #[test]
    fn cold_lookup_generates_warm_lookup_hits() {
        let cache = TraceCache::new();
        let w = workloads::compute_loop(5, 2_000);
        assert_eq!((cache.generations(), cache.hits()), (0, 0), "fresh cache is cold");
        let cold = cache.trace(&w);
        assert_eq!((cache.generations(), cache.hits()), (1, 0), "cold lookup runs the generator");
        for warm_round in 1..=3u64 {
            let warm = cache.trace(&w);
            assert!(Arc::ptr_eq(&cold, &warm));
            assert_eq!(cache.generations(), 1, "warm lookups never regenerate");
            assert_eq!(cache.hits(), warm_round);
        }
        // A different key is cold again and does not disturb the
        // existing entry's accounting.
        cache.trace(&workloads::compute_loop(6, 2_000));
        assert_eq!((cache.generations(), cache.hits()), (2, 3));
    }

    #[test]
    fn cached_trace_matches_direct_generation() {
        let w = workloads::patterned(11, 4_000);
        let direct = w.dynamic_trace();
        let cached = TraceCache::new().trace(&w);
        assert_eq!(*cached, direct);
    }

    #[test]
    fn concurrent_lookups_converge_on_one_trace() {
        let cache = TraceCache::new();
        let ptrs: Vec<_> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    s.spawn(|| {
                        Arc::as_ptr(&cache.trace(&workloads::compute_loop(9, 2_000))) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(cache.len(), 1);
        // With the in-flight guard, every thread gets the *same* Arc —
        // not merely an equal trace — even when the lookups race.
        let unique: std::collections::HashSet<_> = ptrs.into_iter().collect();
        assert_eq!(unique.len(), 1, "all racing threads share one allocation");
        assert_eq!(cache.generations(), 1, "the generator ran exactly once");
        assert_eq!(cache.hits(), 3, "the three non-generating threads count as hits");
    }

    #[test]
    fn barrier_race_generates_exactly_once() {
        let cache = TraceCache::new();
        let n = 8;
        let barrier = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    barrier.wait();
                    cache.trace(&workloads::lspr_like(21, 3_000))
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.generations(), 1, "simultaneous same-key lookups must not duplicate");
        assert_eq!(cache.hits(), n as u64 - 1);
    }

    #[test]
    fn custom_key_shares_with_equal_key() {
        let cache = TraceCache::new();
        let key = TraceKey { label: "file:test.zbt2".into(), seed: 0, instrs: 0 };
        let a = cache
            .get_or_insert_with(key.clone(), || workloads::compute_loop(3, 2_000).dynamic_trace());
        let b = cache.get_or_insert_with(key, || unreachable!("second lookup must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.generations(), cache.hits()), (1, 1));
    }

    #[test]
    fn failed_fallible_load_caches_nothing() {
        let cache = TraceCache::new();
        let key = TraceKey { label: "file:missing.zbt2".into(), seed: 0, instrs: 0 };
        let err = cache.try_get_or_insert_with(key.clone(), || Err::<DynamicTrace, _>("nope"));
        assert_eq!(err.unwrap_err(), "nope");
        assert_eq!(cache.generations(), 0);
        // A retry that succeeds installs the trace; a third call hits.
        let ok = cache
            .try_get_or_insert_with(key.clone(), || {
                Ok::<_, &str>(workloads::compute_loop(3, 2_000).dynamic_trace())
            })
            .expect("retry succeeds");
        let again = cache
            .try_get_or_insert_with(key, || -> Result<DynamicTrace, &str> {
                unreachable!("cached now")
            })
            .expect("served from cache");
        assert!(Arc::ptr_eq(&ok, &again));
        assert_eq!((cache.generations(), cache.hits()), (1, 1));
    }

    #[test]
    fn clear_resets_but_keeps_arcs_alive() {
        let cache = TraceCache::new();
        let a = cache.trace(&workloads::compute_loop(1, 1_000));
        cache.clear();
        assert!(cache.is_empty());
        assert!(a.instruction_count() >= 1_000, "outstanding Arc still usable");
    }
}
