//! Sharded, byte-capped LRU cache for solve results.
//!
//! Keyed by everything the answer is a function of — the store's
//! database hash, canonical query text, free-variable order, method, `ε`/`δ`
//! (bit patterns, so `0.1` and `0.1000…1` never collide), and seed —
//! and storing the exact serialized response body, so a hit returns the
//! byte-identical JSON a fresh solve would produce. Sharding keeps lock
//! contention off the hot path: the shard is picked by a stable FNV-1a
//! hash of the key, each shard holds an independent byte-capped LRU.
//!
//! The LRU order uses the classic lazy scheme: every touch pushes a
//! `(tick, key)` marker onto a queue, eviction pops markers and drops
//! the entry only when the marker's tick still matches the entry's
//! (stale markers are skipped). O(1) amortized, no linked lists.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qrel_plan::{Plan, Unsafe};

/// Number of independent LRU shards. Fixed (like `qrel_par`'s shard
/// count) so behaviour never depends on the machine.
pub const CACHE_SHARDS: usize = 8;

/// Everything a cached answer is a function of.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The store's db-hash of the model (`qrel_store::db_hash_of`), the
    /// same value whether the dataset arrived inline, preloaded, or
    /// from the store.
    pub db_hash: u64,
    /// Canonical query text (display form of the parsed formula).
    pub query: String,
    /// Free-variable order (part of the answer for k-ary queries).
    pub free: Vec<String>,
    pub method: String,
    pub eps_bits: u64,
    pub delta_bits: u64,
    pub seed: u64,
}

/// Canonical bit pattern for a float-valued key component (`ε`, `δ`).
///
/// `f64::to_bits` alone is almost the right key — IEEE-754 parsing is
/// correctly rounded, so `0.05`, `5e-2` and `0.050` already decode to
/// identical bits — but it leaks the two representational quirks floats
/// have: `-0.0` and `+0.0` compare equal yet differ in bits, and NaN
/// carries 2⁵²−1 distinct payloads that all mean "not a number". Both
/// would split one logical request across several cache entries (or,
/// for NaN, leak unboundedly many keys). Fold them: `-0.0` maps to
/// `+0.0`, every NaN maps to the canonical quiet NaN.
pub fn canonical_f64_bits(x: f64) -> u64 {
    const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;
    if x.is_nan() {
        CANONICAL_NAN
    } else if x == 0.0 {
        0 // +0.0 and -0.0 are the same accuracy request
    } else {
        x.to_bits()
    }
}

/// Stable 64-bit FNV-1a, used for shard selection, the coalesce
/// fingerprint, and entry checksums: the store's db-hash function, so
/// cache keys hash identically forever.
pub use qrel_store::hash::fnv1a;

impl CacheKey {
    /// Stable 64-bit fingerprint over every field. The scheduler uses
    /// it as the coalesce key: two requests with the same fingerprint
    /// are cache-equivalent, so while one is queued or running the
    /// other can join its job group instead of solving again.
    pub fn fingerprint(&self) -> u64 {
        self.stable_hash()
    }

    /// Stable shard/bucket hash over every field.
    fn stable_hash(&self) -> u64 {
        let mut buf = Vec::with_capacity(64 + self.query.len());
        buf.extend_from_slice(&self.db_hash.to_le_bytes());
        buf.extend_from_slice(self.query.as_bytes());
        buf.push(0);
        for v in &self.free {
            buf.extend_from_slice(v.as_bytes());
            buf.push(0);
        }
        buf.extend_from_slice(self.method.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.eps_bits.to_le_bytes());
        buf.extend_from_slice(&self.delta_bits.to_le_bytes());
        buf.extend_from_slice(&self.seed.to_le_bytes());
        fnv1a(&buf)
    }

    /// Approximate heap footprint of the key itself, charged against
    /// the byte cap alongside the body.
    fn weight(&self) -> usize {
        std::mem::size_of::<CacheKey>()
            + self.query.len()
            + self.free.iter().map(|s| s.len() + 24).sum::<usize>()
            + self.method.len()
    }
}

#[derive(Debug)]
struct Entry {
    body: Arc<Vec<u8>>,
    /// FNV-1a of `body` taken at insert time. Verified on every hit:
    /// the cache's contract is that a hit is byte-identical to the
    /// fresh solve it replaces, so a corrupted entry must surface as a
    /// miss (recompute), never as a silently wrong reply.
    checksum: u64,
    /// Tick of the most recent touch; stale queue markers carry older
    /// ticks and are skipped at eviction time.
    tick: u64,
    weight: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    order: VecDeque<(u64, CacheKey)>,
    bytes: usize,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: &CacheKey) -> Option<(Arc<Vec<u8>>, u64)> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.tick = tick;
        self.order.push_back((tick, key.clone()));
        Some((Arc::clone(&entry.body), entry.checksum))
    }

    fn remove(&mut self, key: &CacheKey) {
        if let Some(entry) = self.map.remove(key) {
            self.bytes -= entry.weight;
        }
    }

    fn insert(&mut self, key: CacheKey, body: Arc<Vec<u8>>, cap: usize) {
        let weight = key.weight() + body.len();
        if weight > cap {
            return; // a single entry larger than the whole shard
        }
        self.tick += 1;
        let tick = self.tick;
        let checksum = fnv1a(&body);
        if let Some(old) = self.map.insert(
            key.clone(),
            Entry {
                body,
                checksum,
                tick,
                weight,
            },
        ) {
            self.bytes -= old.weight;
        }
        self.bytes += weight;
        self.order.push_back((tick, key));
        while self.bytes > cap {
            let Some((marker_tick, marker_key)) = self.order.pop_front() else {
                break;
            };
            if self
                .map
                .get(&marker_key)
                .is_some_and(|e| e.tick == marker_tick)
            {
                let evicted = self.map.remove(&marker_key).expect("entry just observed");
                self.bytes -= evicted.weight;
            }
        }
    }
}

/// The sharded result cache. Thread-safe; clone the [`Arc`] it is held
/// in rather than the cache itself.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte cap (total cap / [`CACHE_SHARDS`]).
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hits whose body failed checksum verification: the entry was
    /// evicted and the lookup reported a miss (fail closed, recompute).
    poison_detected: AtomicU64,
}

impl ResultCache {
    /// A cache holding up to `max_bytes` total (keys + bodies). A zero
    /// cap disables caching entirely — every lookup misses, inserts are
    /// dropped.
    pub fn new(max_bytes: usize) -> Self {
        ResultCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_cap: max_bytes / CACHE_SHARDS,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            poison_detected: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.stable_hash() % CACHE_SHARDS as u64) as usize]
    }

    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        if self.shard_cap == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let got = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .touch(key);
        let Some((mut body, checksum)) = got else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // Chaos hook: corrupt the reply we are about to verify, modeling
        // bit rot / a buggy write between insert and hit.
        if qrel_faults::armed() {
            if let Some(_fired) = qrel_faults::hit(qrel_faults::points::CACHE_REPLY_POISON) {
                let mut corrupted = body.as_ref().clone();
                if let Some(b) = corrupted.first_mut() {
                    *b ^= 0x01;
                }
                body = Arc::new(corrupted);
            }
        }
        // Verify the checksum taken at insert time. A mismatch means
        // the bytes in hand are NOT the bytes the solver produced:
        // evict the entry and fail closed as a miss so the caller
        // recomputes, instead of serving a silently wrong reply.
        if fnv1a(&body) != checksum {
            self.shard(key)
                .lock()
                .expect("cache shard poisoned")
                .remove(key);
            self.poison_detected.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    pub fn insert(&self, key: CacheKey, body: Arc<Vec<u8>>) {
        if self.shard_cap == 0 {
            return;
        }
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, body, self.shard_cap);
    }

    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits rejected because the body failed checksum verification.
    pub fn poison_detected_count(&self) -> u64 {
        self.poison_detected.load(Ordering::Relaxed)
    }

    /// Total entries across all shards (test/diagnostic use).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes accounted across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Plan cache

/// Entry cap for [`PlanCache`]. Plans are tiny symbolic trees (a few
/// hundred bytes), so a count cap is the right bound, not a byte cap.
pub const PLAN_CACHE_CAP: usize = 4096;

/// Outcome of a plan-cache lookup, surfaced to clients in the
/// `X-Qrel-Plan` debug header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStatus {
    /// A safe plan was served from the cache.
    Hit,
    /// A safe plan was compiled fresh (and cached).
    Miss,
    /// The query is provably outside the safe class; the decline reason
    /// is cached too, so repeat offenders skip recompilation.
    Unsafe,
}

impl PlanStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            PlanStatus::Hit => "hit",
            PlanStatus::Miss => "miss",
            PlanStatus::Unsafe => "unsafe",
        }
    }
}

#[derive(Default)]
struct PlanShard {
    map: HashMap<(String, String), Result<Arc<Plan>, Unsafe>>,
    order: VecDeque<(String, String)>,
}

/// Cache of compiled safe plans, keyed by `(canonical query text,
/// schema fingerprint)`.
///
/// Plans are *symbolic* — they mention relation names and variables but
/// no fact probabilities — so a plan compiled once is valid for every
/// database over the same schema, forever. In particular a fact
/// mutation moves the dataset's db-hash (invalidating its
/// [`ResultCache`] entries precisely) while this cache keeps hitting:
/// only the *result* depends on ν, never the plan. The schema
/// fingerprint is part of the key because arity checks happen at eval
/// time — the same query text over a different schema must not share a
/// decline verdict.
///
/// Declines are cached negatively, as the compiler's [`Unsafe`] reason.
/// The solver takes the cached verdict as its plan hint, so a hot unsafe
/// query costs one hash lookup and its plan rung skips with the cached
/// reason, never recompiling.
#[derive(Default)]
pub struct PlanCache {
    shard: Mutex<PlanShard>,
    hits: AtomicU64,
    misses: AtomicU64,
    unsafe_total: AtomicU64,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the plan for `(query, schema)`, compiling (and caching
    /// the outcome, success or decline) on a miss.
    pub fn get_or_compile<F>(
        &self,
        query: &str,
        schema: &str,
        compile: F,
    ) -> (Result<Arc<Plan>, Unsafe>, PlanStatus)
    where
        F: FnOnce() -> Result<Plan, Unsafe>,
    {
        let key = (query.to_string(), schema.to_string());
        let mut shard = self.shard.lock().expect("plan cache poisoned");
        let (outcome, counter, status) = match shard.map.get(&key) {
            Some(cached) => (cached.clone(), &self.hits, PlanStatus::Hit),
            None => {
                let outcome = compile().map(Arc::new);
                shard.map.insert(key.clone(), outcome.clone());
                shard.order.push_back(key);
                while shard.map.len() > PLAN_CACHE_CAP {
                    let Some(oldest) = shard.order.pop_front() else {
                        break;
                    };
                    shard.map.remove(&oldest);
                }
                (outcome, &self.misses, PlanStatus::Miss)
            }
        };
        // A decline counts as `unsafe` whether it was cached or fresh.
        let (counter, status) = match &outcome {
            Ok(_) => (counter, status),
            Err(_) => (&self.unsafe_total, PlanStatus::Unsafe),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        (outcome, status)
    }

    /// Safe plans served from the cache.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Safe plans compiled fresh.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that resolved to a declined (unsafe) query.
    pub fn unsafe_count(&self) -> u64 {
        self.unsafe_total.load(Ordering::Relaxed)
    }

    /// Cached entries (test/diagnostic use).
    pub fn len(&self) -> usize {
        self.shard.lock().expect("plan cache poisoned").map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            db_hash: 42,
            query: "exists x. S(x)".into(),
            free: vec![],
            method: "auto".into(),
            eps_bits: 0.05f64.to_bits(),
            delta_bits: 0.05f64.to_bits(),
            seed,
        }
    }

    fn body(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; n])
    }

    #[test]
    fn hit_returns_the_exact_bytes() {
        let cache = ResultCache::new(1 << 20);
        let k = key(0);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), Arc::new(b"{\"r\":1}".to_vec()));
        assert_eq!(cache.get(&k).unwrap().as_slice(), b"{\"r\":1}");
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn distinct_seeds_are_distinct_entries() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(key(1), Arc::new(b"one".to_vec()));
        cache.insert(key(2), Arc::new(b"two".to_vec()));
        assert_eq!(cache.get(&key(1)).unwrap().as_slice(), b"one");
        assert_eq!(cache.get(&key(2)).unwrap().as_slice(), b"two");
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        // Single-shard-sized cap would split awkwardly; use keys that
        // all land wherever they land and a cap small enough to force
        // eviction regardless.
        let cache = ResultCache::new(CACHE_SHARDS * 4096);
        for s in 0..200u64 {
            cache.insert(key(s), body(1024));
        }
        // Far fewer than 200 survive, and accounting stayed within cap.
        assert!(cache.len() < 60, "len = {}", cache.len());
        assert!(cache.bytes() <= CACHE_SHARDS * 4096);
        // The most recently inserted keys are the likeliest survivors:
        // at least one of the last few must still be present.
        let recent_hits = (195..200).filter(|&s| cache.get(&key(s)).is_some()).count();
        assert!(recent_hits > 0);
    }

    #[test]
    fn touching_protects_from_eviction() {
        // Everything in one shard: same key fields except seed may
        // spread, so craft a tiny cap per shard and hammer one key.
        let cache = ResultCache::new(CACHE_SHARDS * 4096);
        let hot = key(7);
        cache.insert(hot.clone(), body(512));
        for s in 100..160u64 {
            cache.insert(key(s), body(512));
            // Keep the hot key warm.
            cache.get(&hot);
        }
        assert!(cache.get(&hot).is_some(), "hot key was evicted");
    }

    #[test]
    fn zero_cap_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(key(0), body(8));
        assert!(cache.get(&key(0)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn oversized_single_entry_is_dropped() {
        let cache = ResultCache::new(CACHE_SHARDS * 256);
        cache.insert(key(0), body(10_000));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn canonical_bits_unify_textual_variants() {
        // Correctly-rounded parsing means every spelling of the same
        // decimal already lands on one bit pattern; canonicalization
        // must preserve that.
        let spellings = ["0.05", "5e-2", "0.050", "0.0500", "5.0E-2"];
        let bits: Vec<u64> = spellings
            .iter()
            .map(|s| canonical_f64_bits(s.parse::<f64>().unwrap()))
            .collect();
        assert!(
            bits.iter().all(|&b| b == bits[0]),
            "{spellings:?} -> {bits:?}"
        );
        // ...and distinct accuracies stay distinct.
        assert_ne!(canonical_f64_bits(0.05), canonical_f64_bits(0.1),);
    }

    #[test]
    fn canonical_bits_fold_signed_zero_and_nan() {
        assert_eq!(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
        assert_eq!(canonical_f64_bits(0.0), 0);
        // Every NaN payload — quiet, negative, arbitrary — collapses to
        // one key instead of 2^52 − 1 of them.
        let weird_nan = f64::from_bits(0xfff8_dead_beef_0001);
        assert!(weird_nan.is_nan());
        assert_eq!(canonical_f64_bits(f64::NAN), canonical_f64_bits(weird_nan));
        assert_eq!(canonical_f64_bits(f64::NAN), 0x7ff8_0000_0000_0000);
        // Non-zero, non-NaN values keep their exact bits.
        assert_eq!(canonical_f64_bits(0.25), 0.25f64.to_bits());
    }

    #[test]
    fn keys_differing_only_in_float_spelling_share_an_entry() {
        let cache = ResultCache::new(1 << 20);
        let mut a = key(0);
        a.eps_bits = canonical_f64_bits("5e-2".parse::<f64>().unwrap());
        let mut b = key(0);
        b.eps_bits = canonical_f64_bits("0.050".parse::<f64>().unwrap());
        cache.insert(a, Arc::new(b"shared".to_vec()));
        assert_eq!(cache.get(&b).unwrap().as_slice(), b"shared");
    }

    #[test]
    fn poisoned_entry_is_detected_evicted_and_reported_as_miss() {
        let cache = ResultCache::new(1 << 20);
        let k = key(0);
        cache.insert(k.clone(), Arc::new(b"{\"r\":1}".to_vec()));
        let plan = qrel_faults::FaultPlan::new(2).with_rule(
            qrel_faults::points::CACHE_REPLY_POISON,
            1.0,
            0,
            1, // poison the first hit only
        );
        {
            let _guard = plan.arm();
            // The poisoned hit fails verification: miss, entry evicted.
            assert!(cache.get(&k).is_none(), "poisoned reply must not be served");
            assert_eq!(cache.poison_detected_count(), 1);
            assert_eq!(cache.len(), 0, "corrupted entry must be evicted");
            // Self-healing: recompute-and-reinsert restores clean hits
            // even while the plan is still armed (its one fire is spent).
            cache.insert(k.clone(), Arc::new(b"{\"r\":1}".to_vec()));
            assert_eq!(cache.get(&k).unwrap().as_slice(), b"{\"r\":1}");
        }
        assert_eq!(cache.poison_detected_count(), 1);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: key fingerprints are part of recorded
        // experiment output, so the function must never change.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn plan_cache_hits_after_first_compile_and_counts() {
        let cache = PlanCache::new();
        let f = qrel_logic::parser::parse_formula("exists x. S(x)").unwrap();
        let compiles = std::cell::Cell::new(0);
        let lookup = || {
            cache.get_or_compile("(exists x. S(x))", "S/1", || {
                compiles.set(compiles.get() + 1);
                qrel_plan::compile(&f)
            })
        };
        let (p1, s1) = lookup();
        assert!(p1.is_ok());
        assert_eq!(s1, PlanStatus::Miss);
        let (p2, s2) = lookup();
        assert_eq!(s2, PlanStatus::Hit);
        assert!(Arc::ptr_eq(&p1.unwrap(), &p2.unwrap()), "same cached plan");
        assert_eq!(compiles.get(), 1, "second lookup must not recompile");
        assert_eq!((cache.hit_count(), cache.miss_count()), (1, 1));
    }

    #[test]
    fn plan_cache_caches_declines_negatively() {
        let cache = PlanCache::new();
        let f = qrel_logic::parser::parse_formula("exists x y. (S(x) & E(x, y) & T(y))").unwrap();
        for _ in 0..2 {
            let (p, s) = cache.get_or_compile("h0", "E/2,S/1,T/1", || qrel_plan::compile(&f));
            assert_eq!(s, PlanStatus::Unsafe);
            assert!(matches!(p.unwrap_err(), Unsafe::NonHierarchical { .. }));
        }
        assert_eq!(cache.unsafe_count(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn plan_cache_keys_on_schema_too() {
        // Same query text, different schemas: independent entries.
        let cache = PlanCache::new();
        let f = qrel_logic::parser::parse_formula("exists x. S(x)").unwrap();
        let (first, _) = cache.get_or_compile("(exists x. S(x))", "S/1", || qrel_plan::compile(&f));
        assert!(first.is_ok());
        let (_, s) = cache.get_or_compile("(exists x. S(x))", "S/1,T/1", || qrel_plan::compile(&f));
        assert_eq!(s, PlanStatus::Miss);
        assert_eq!(cache.len(), 2);
    }
}
