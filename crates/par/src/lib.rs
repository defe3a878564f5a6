//! Deterministic parallel execution layer: seed-splitting, fixed
//! sharding, scoped-thread fan-out.
//!
//! Every sampling estimator and the exact world enumerator parallelize
//! the same way: the work (a sample budget, a world index-space) is cut
//! into a **fixed** number of shards, each shard runs with its own
//! deterministically derived RNG stream, and the per-shard partial
//! results are merged exactly (integer hit counts, exact rationals).
//! Threads only decide *which worker executes which shard* — never what
//! a shard computes — so the merged result is bit-identical for any
//! thread count, including 1. That is the determinism contract:
//!
//! ```text
//! result(seed, shards, threads) == result(seed, shards, 1)   ∀ threads
//! ```
//!
//! The shard count is therefore part of the reproducibility key and is
//! pinned at [`DEFAULT_SHARDS`] rather than derived from the machine's
//! core count: deriving it from `available_parallelism` would make the
//! answer depend on the hardware the run happened to land on.
//!
//! Seed-splitting uses the SplitMix64 finalizer, the standard generator
//! for statistically independent streams from one master seed (it is
//! also how `StdRng` seeds are expanded internally); consecutive shard
//! indices land in unrelated regions of the state space, unlike the raw
//! `seed ⊕ shard` which `StdRng`'s own seeding would then have to
//! de-correlate.

use std::sync::Mutex;

/// Fixed shard count used by the parallel estimators. 16 shards keep
/// up to 16 hardware threads busy while staying cheap to merge; the
/// value is deliberately **not** derived from the machine (see the
/// module docs for why).
pub const DEFAULT_SHARDS: usize = 16;

/// Derive an independent RNG seed for `stream` from a master seed, via
/// the SplitMix64 finalizer over `master ⊕ (stream+1)·γ` (γ is the
/// golden-ratio increment). Used both for shard seeds and for giving
/// each solver rung / tuple its own stream.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Split `total` units of work into `shards` counts that sum exactly to
/// `total`, remainder going to the earliest shards.
///
/// # Panics
/// Panics if `shards == 0`.
pub fn shard_counts(total: u64, shards: usize) -> Vec<u64> {
    assert!(shards > 0, "need at least one shard");
    let k = shards as u64;
    (0..k)
        .map(|i| total / k + u64::from(i < total % k))
        .collect()
}

/// Split the index range `[0, total)` into `shards` contiguous
/// `(start, end)` ranges covering it exactly, sized as [`shard_counts`].
pub fn shard_ranges(total: u64, shards: usize) -> Vec<(u64, u64)> {
    let mut start = 0u64;
    shard_counts(total, shards)
        .into_iter()
        .map(|n| {
            let r = (start, start + n);
            start += n;
            r
        })
        .collect()
}

/// Resolve the worker-thread count: an explicit request wins, then the
/// `RAYON_NUM_THREADS` environment variable (the conventional knob for
/// this layer, honored even though the implementation uses scoped std
/// threads), then the machine's available parallelism. Always ≥ 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run `job(shard)` for every shard in `0..shards` on up to `threads`
/// workers and return the results in shard order: [`run_shards_with`]
/// over unit contexts.
///
/// # Panics
/// Panics if `shards == 0` or if a worker panics (the panic is
/// propagated).
pub fn run_shards<T, F>(shards: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_shards_with(vec![(); shards], threads, |s, ()| job(s))
}

/// [`run_shards`] with an owned, `Send`-but-not-`Sync` context per shard
/// (a child `qrel_budget::Budget` is the motivating case): shard `s`
/// consumes `contexts[s]`. The context is returned to the caller as part
/// of the job's result if it needs settling.
///
/// Workers take shards by striding (`worker w` runs shards
/// `w, w+threads, …`), but since each shard is self-contained the
/// assignment is irrelevant to the output. With `threads <= 1` the
/// shards run inline on the caller's thread — same results, no spawn.
///
/// # Panics
/// Panics if `contexts` is empty or a worker panics.
pub fn run_shards_with<C, T, F>(contexts: Vec<C>, threads: usize, job: F) -> Vec<T>
where
    C: Send,
    T: Send,
    F: Fn(usize, C) -> T + Sync,
{
    let shards = contexts.len();
    assert!(shards > 0, "need at least one shard");
    let threads = threads.max(1).min(shards);
    // Chaos hook: stall individual shards. Keyed by shard index, so the
    // same (seed, plan) stalls the same shards under any thread count —
    // a stall delays a shard's identical result, it never changes it.
    let job = |s: usize, c: C| {
        if qrel_faults::armed() {
            qrel_faults::stall_at(qrel_faults::points::PAR_SHARD_STALL, s as u64);
        }
        job(s, c)
    };
    if threads == 1 {
        return contexts
            .into_iter()
            .enumerate()
            .map(|(s, c)| job(s, c))
            .collect();
    }
    let slots: Vec<Mutex<Option<C>>> = contexts.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let mut out: Vec<Option<T>> = Vec::with_capacity(shards);
    out.resize_with(shards, || None);
    std::thread::scope(|scope| {
        let job = &job;
        let slots = &slots;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    (w..shards)
                        .step_by(threads)
                        .map(|s| {
                            let c = slots[s]
                                .lock()
                                .expect("context slot poisoned")
                                .take()
                                .expect("context taken once");
                            (s, job(s, c))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (s, t) in h.join().expect("shard worker panicked") {
                out[s] = Some(t);
            }
        }
    });
    out.into_iter()
        .map(|t| t.expect("all shards completed"))
        .collect()
}

/// The budgeted fan-out every sharded engine shares: shard `s` runs
/// `job(s, &children[s])` against its own child context (a child
/// `qrel_budget::Budget` from `Budget::split`), then each child is
/// handed to `settle` **in shard order** and the shard results come
/// back in shard order, together with the first stop cause *by shard
/// index*. Settling and picking the cause in shard order is what keeps
/// a counter-capped run identical for every thread count.
///
/// # Panics
/// Panics if `children` is empty or a worker panics.
pub fn run_settled<C, T, E, F>(
    children: Vec<C>,
    threads: usize,
    mut settle: impl FnMut(&C),
    job: F,
) -> (Vec<T>, Option<E>)
where
    C: Send,
    T: Send,
    E: Send,
    F: Fn(usize, &C) -> (T, Option<E>) + Sync,
{
    let parts = run_shards_with(children, threads, |s, child: C| {
        let (t, cause) = job(s, &child);
        (t, cause, child)
    });
    let mut first = None;
    let results = parts
        .into_iter()
        .map(|(t, cause, child)| {
            settle(&child);
            if first.is_none() {
                first = cause;
            }
            t
        })
        .collect();
    (results, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_distinct_streams() {
        let mut seeds: Vec<u64> = (0..64).map(|s| split_seed(0x5EED, s)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "shard seeds must be pairwise distinct");
        // A zero master seed must not collapse the streams either.
        assert_ne!(split_seed(0, 0), split_seed(0, 1));
        assert_ne!(split_seed(0, 0), 0);
    }

    #[test]
    fn split_seed_is_pure() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
    }

    #[test]
    fn shard_counts_conserve_total() {
        for total in [0u64, 1, 15, 16, 17, 1000, 12345] {
            for shards in [1usize, 2, 3, 16, 40] {
                let counts = shard_counts(total, shards);
                assert_eq!(counts.len(), shards);
                assert_eq!(counts.iter().sum::<u64>(), total, "{total}/{shards}");
                // Remainder goes to the earliest shards: sizes are
                // non-increasing and differ by at most one.
                let max = *counts.iter().max().unwrap();
                let min = *counts.iter().min().unwrap();
                assert!(max - min <= 1);
                assert!(counts.windows(2).all(|w| w[0] >= w[1]));
            }
        }
    }

    #[test]
    fn shard_ranges_tile_the_interval() {
        for total in [0u64, 1, 31, 32, 33] {
            let ranges = shard_ranges(total, 4);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, total);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
            }
        }
    }

    #[test]
    fn run_shards_ordered_and_thread_invariant() {
        let job = |s: usize| (s * s) as u64;
        let serial = run_shards(16, 1, job);
        for threads in [2, 3, 4, 16, 99] {
            assert_eq!(run_shards(16, threads, job), serial);
        }
        assert_eq!(serial[3], 9);
    }

    #[test]
    fn run_shards_with_passes_owned_contexts() {
        let contexts: Vec<String> = (0..8).map(|i| format!("ctx{i}")).collect();
        let results = run_shards_with(contexts.clone(), 4, |s, c: String| format!("{s}:{c}"));
        for (s, r) in results.iter().enumerate() {
            assert_eq!(r, &format!("{s}:ctx{s}"));
        }
        let serial = run_shards_with(contexts, 1, |s, c: String| format!("{s}:{c}"));
        assert_eq!(results, serial);
    }

    #[test]
    fn run_settled_settles_and_picks_the_cause_in_shard_order() {
        for threads in [1usize, 3, 8] {
            let mut settled = Vec::new();
            let (results, first) = run_settled(
                (0..8u64).collect(),
                threads,
                |c: &u64| settled.push(*c),
                |s, c: &u64| (s as u64 * 10 + c, (s % 3 == 2).then_some(s)),
            );
            assert_eq!(settled, (0..8).collect::<Vec<_>>());
            assert_eq!(results, (0..8).map(|s| s * 11).collect::<Vec<_>>());
            assert_eq!(first, Some(2));
        }
    }

    #[test]
    fn resolve_threads_explicit_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn stalled_shards_still_merge_thread_invariantly() {
        // A shard stall delays work but must never change it: results
        // stay bit-identical to the serial, fault-free run.
        let job = |s: usize| (s * 7 + 1) as u64;
        let clean = run_shards(8, 1, job);
        let plan = qrel_faults::FaultPlan::new(0xABCD).with_rule(
            qrel_faults::points::PAR_SHARD_STALL,
            0.5,
            5,
            0,
        );
        let _guard = plan.arm();
        for threads in [1, 2, 4, 8] {
            assert_eq!(run_shards(8, threads, job), clean);
        }
    }
}
