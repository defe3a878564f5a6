//! The Karp–Luby coverage algorithm: an FPTRAS for #DNF (Theorem 5.2)
//! and its weighted generalization for Prob-DNF.
//!
//! Given a DNF `φ = T₁ ∨ … ∨ T_m` over independently-random variables,
//! the union's probability is estimated by importance sampling on the
//! *coverage space* `{(i, x) : x ⊨ Tᵢ}`:
//!
//! 1. `U = Σᵢ w(Tᵢ)` where `w(Tᵢ) = Pr[x ⊨ Tᵢ]` is a product of literal
//!    probabilities (computable exactly);
//! 2. sample a term `i` with probability `w(Tᵢ)/U`, then sample `x`
//!    conditioned on `x ⊨ Tᵢ` (fix the term's literals, draw the rest);
//! 3. the indicator `Y = 1[i = min{ j : x ⊨ Tⱼ }]` has
//!    `E[Y] = Pr[φ]/U ≥ 1/m`,
//!
//! so `U · mean(Y)` is an unbiased estimator whose relative error is
//! controlled with only `O(m · ε⁻² · ln(1/δ))` samples — *independent of
//! how tiny `Pr[φ]` is*, which is exactly where naive Monte Carlo
//! collapses. Counting models of a DNF over `n` variables is the special
//! case `p ≡ 1/2` scaled by `2^n`.
//!
//! **How many samples.** The zero-one bound `T = ⌈4m·ln(2/δ)/ε²⌉`
//! assumes the worst hit rate `E[Y] = 1/m`; real lineages hit far more
//! often. [`KarpLuby::run_eps_delta`], the `(ε, δ)` entry every caller
//! uses, therefore adapts (Karp–Luby–Madras, *J. Algorithms* 1989, in
//! the Dagum–Karp–Luby–Ross stopping-rule form, *SIAM J. Comput.* 2000):
//! it draws until the hit count reaches `⌈Υ₁⌉`,
//! `Υ₁ = 1 + (1+ε)·4(e−2)·ln(4/δ)/ε²`, and answers `U·Υ₁/N` for the
//! stopping sample `N` — about `Υ₁/E[Y]` samples. It never draws more
//! than the zero-one count taken at `δ/2`; a run that reaches that cap
//! answers `U·hits/T`. Each branch errs with probability `≤ δ/2`, so the
//! union bound keeps the `(ε, δ)` guarantee. For `ε ≥ 1` the rule gives
//! none, and the fixed count `T` is drawn instead.
//!
//! **One deterministic sequence.** Samples come from [`DEFAULT_SHARDS`]
//! streams, stream `s` seeded with [`split_seed`]`(seed, s)` and drawing
//! its share of `shard_counts(T)`. The canonical sequence reads them in
//! (block of 64, shard, index) order; the stopping sample, a samples
//! cap (which admits exactly the first `cap` samples) and the charge
//! are all positions in that sequence, so the estimate, the sample
//! count and the [`Resource::Samples`] charge depend on the seed, `ε`,
//! `δ` and the budget's counter caps — never on the thread count. A
//! fixed-count run ([`KarpLuby::run_budgeted`]) is the same loop with no
//! stopping threshold: each stream draws its whole share.

use qrel_arith::BigRational;
use qrel_budget::{Budget, Exhausted, Resource};
use qrel_logic::prop::{Dnf, Lit, PackedDnf};
use qrel_par::{run_shards_with, shard_counts, split_seed, DEFAULT_SHARDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bounds::{stopping_rule_hits, zero_one_estimator_samples};

/// A prepared Karp–Luby estimator for a fixed DNF and variable
/// distribution.
pub struct KarpLuby {
    /// Terms, each sorted by variable (the [`Dnf`] invariant).
    terms: Vec<Vec<Lit>>,
    /// The same terms compiled to bit masks: the first-satisfied-term
    /// scan runs over packed assignments (64 variables per word) instead
    /// of literal-by-literal branches.
    packed: PackedDnf,
    /// `Pr[x_v = 1]` per variable, as f64 (sampling precision).
    probs: Vec<f64>,
    /// Per term: packed `(set, clear)` masks over the assignment words —
    /// forcing term `i`'s literals is `w = (w & !clear) | set` per word
    /// instead of a branchy per-literal bit write.
    term_masks: Vec<(Vec<u64>, Vec<u64>)>,
    /// Exact term weights `w(Tᵢ)` and their exact sum `U`.
    weights: Vec<BigRational>,
    total_weight: BigRational,
    /// Cumulative weights (f64) for term sampling.
    cumulative: Vec<f64>,
}

/// Outcome of a Karp–Luby run.
#[derive(Debug, Clone)]
pub struct KarpLubyReport {
    /// The estimate of `Pr[φ]`.
    pub estimate: f64,
    /// Number of samples drawn.
    pub samples: u64,
    /// Fraction of samples with `Y = 1` (diagnostic; `≥ 1/m` in
    /// expectation).
    pub hit_rate: f64,
    /// Whether the stopping rule answered ([`KarpLuby::run_eps_delta`]
    /// reached its hit threshold before the cap); `false` for the cap
    /// branch and for fixed-count runs.
    pub stopped: bool,
}

/// Samples per block of the canonical sequence: one `u64` hit mask.
const BLOCK: u64 = 64;

/// Blocks per shard in a round of a multi-threaded stopping-rule run.
/// Each round is one scoped-thread fan-out; rounds of 8 blocks beat
/// one-block rounds and rounds doubling up to 32 blocks at 2, 4 and 8
/// threads on every instance of the schedule table under E4 in
/// EXPERIMENTS.md.
const THREADED_ROUND_BLOCKS: u64 = 8;

/// What the sampling loop read.
#[derive(Debug, Clone, Copy, Default)]
struct Drawn {
    hits: u64,
    samples: u64,
    /// The threshold was reached, at sample `samples`.
    stopped: bool,
}

/// A shard's stream and clock, carried from round to round.
struct Shard {
    rng: StdRng,
    assignment: Vec<u64>,
    clock: Budget,
}

/// One shard's work in one round.
#[derive(Default)]
struct ShardRound {
    /// `(hit mask, samples drawn)` per block.
    segments: Vec<(u64, u64)>,
    cause: Option<Exhausted>,
}

/// Per-shard prefix lengths of the first `take` samples of the
/// canonical sequence over shard prefixes of lengths `counts`.
fn sequence_prefix(counts: &[u64], take: u64) -> Vec<u64> {
    assert!(
        take <= counts.iter().sum(),
        "prefix longer than the sequence"
    );
    let mut limits = vec![0; counts.len()];
    let mut left = take;
    let mut block = 0;
    while left > 0 {
        for (limit, &count) in limits.iter_mut().zip(counts) {
            let n = count.saturating_sub(block * BLOCK).min(BLOCK).min(left);
            *limit += n;
            left -= n;
        }
        block += 1;
    }
    limits
}

/// Charge a read of `drawn.samples` samples of a `target`-sample
/// sequence and settle its trip cause. A rejected charge (a samples trip
/// the budget's own fault plane injected) commits nothing, so the run
/// then reports nothing either. A clock or cancellation trip seen by the
/// charge cuts short only a read that is not complete; a stopped read,
/// or one of the whole sequence, keeps its answer. A read cut to the
/// samples cap trips it on the next draw.
fn charge_read(
    budget: &Budget,
    drawn: Drawn,
    target: u64,
    mut cut: Option<Exhausted>,
) -> (Drawn, Option<Exhausted>) {
    let complete = drawn.stopped || drawn.samples == target;
    match budget.charge(Resource::Samples, drawn.samples) {
        Err(e) if e.resource == Resource::Samples => return (Drawn::default(), Some(e)),
        Err(e) if !complete => cut = cut.or(Some(e)),
        _ => {}
    }
    if cut.is_none() && !complete {
        cut = budget.charge(Resource::Samples, 1).err();
    }
    (drawn, cut)
}

/// Index of the `k`-th set bit (1-based) of `mask`.
fn nth_set_bit(mut mask: u64, k: u64) -> u64 {
    for _ in 1..k {
        mask &= mask - 1;
    }
    u64::from(mask.trailing_zeros())
}

impl KarpLuby {
    /// Prepare for the given DNF and per-variable probabilities.
    ///
    /// # Panics
    /// Panics if the probability vector does not cover all variables or
    /// contains values outside `[0,1]`.
    pub fn new(dnf: &Dnf, probs: &[BigRational]) -> Self {
        assert!(
            dnf.var_bound() <= probs.len(),
            "probability vector does not cover all variables"
        );
        for p in probs {
            assert!(p.is_probability(), "probability out of range");
        }
        // Terms with weight zero (a literal that is false with
        // probability 1 under `probs`) contribute nothing to `Pr[φ]` but
        // would poison the coverage sampler: their cumulative-weight
        // interval is a point, yet f64 ties can still select them, and
        // every sample conditioned on one lands on a measure-zero event.
        // Drop them up front; if nothing survives, `Pr[φ] = 0` exactly
        // and `run` short-circuits on the empty term list.
        let mut terms: Vec<Vec<Lit>> = Vec::with_capacity(dnf.num_terms());
        let mut weights = Vec::with_capacity(dnf.num_terms());
        let mut total_weight = BigRational::zero();
        for t in dnf.terms() {
            let mut w = BigRational::one();
            for l in t {
                let pv = &probs[l.var as usize];
                w = w.mul_ref(&if l.positive {
                    pv.clone()
                } else {
                    pv.one_minus()
                });
                if w.is_zero() {
                    break;
                }
            }
            if w.is_zero() {
                continue;
            }
            total_weight = total_weight.add_ref(&w);
            weights.push(w);
            terms.push(t.clone());
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0f64;
        for w in &weights {
            acc += w.to_f64();
            cumulative.push(acc);
        }
        let packed = PackedDnf::from_terms(&terms, probs.len());
        let term_masks = terms
            .iter()
            .map(|t| {
                let mut set = vec![0u64; packed.num_words()];
                let mut clear = vec![0u64; packed.num_words()];
                for l in t {
                    let (word, bit) = (l.var as usize / 64, 1u64 << (l.var % 64));
                    if l.positive {
                        set[word] |= bit;
                    } else {
                        clear[word] |= bit;
                    }
                }
                (set, clear)
            })
            .collect();
        KarpLuby {
            terms,
            packed,
            term_masks,
            probs: probs.iter().map(|p| p.to_f64()).collect(),
            weights,
            total_weight,
            cumulative,
        }
    }

    /// Uniform variable distribution `p ≡ 1/2` (the #DNF case).
    pub fn for_counting(dnf: &Dnf, num_vars: usize) -> Self {
        let half = BigRational::from_ratio(1, 2);
        let probs = vec![half; num_vars.max(dnf.var_bound())];
        Self::new(dnf, &probs)
    }

    /// The exact total term weight `U = Σ w(Tᵢ)` (an upper bound on
    /// `Pr[φ]`, and the scaling constant of the estimator).
    pub fn total_weight(&self) -> &BigRational {
        &self.total_weight
    }

    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of samples sufficient for relative error `ε` with failure
    /// probability `δ` (zero-one estimator theorem with `E[Y] ≥ 1/m`).
    pub fn samples_for(&self, eps: f64, delta: f64) -> u64 {
        zero_one_estimator_samples(self.terms.len().max(1) as f64, eps, delta)
    }

    /// Run the estimator with an explicit sample count: one seed drawn
    /// from `rng`, then [`Self::run_budgeted`] on one thread under
    /// [`Budget::unlimited`].
    ///
    /// # Panics
    /// Panics if `samples == 0` (the mean of zero samples is undefined);
    /// trivial formulas short-circuit before the check.
    pub fn run_with_samples<R: Rng>(&self, samples: u64, rng: &mut R) -> KarpLubyReport {
        assert!(
            samples > 0 || self.trivial().is_some(),
            "Karp-Luby needs at least one sample"
        );
        self.run_budgeted(samples, &Budget::unlimited(), rng.gen(), 1)
            .0
    }

    /// The exact report for formulas that need no sampling: no term at
    /// all (`Pr[φ] = 0`) or a tautological term (`Pr[φ] = 1`).
    fn trivial(&self) -> Option<KarpLubyReport> {
        if self.terms.is_empty() {
            return Some(KarpLubyReport {
                estimate: 0.0,
                samples: 0,
                hit_rate: 0.0,
                stopped: false,
            });
        }
        if self.terms.iter().any(|t| t.is_empty()) {
            return Some(KarpLubyReport {
                estimate: 1.0,
                samples: 0,
                hit_rate: 1.0,
                stopped: false,
            });
        }
        None
    }

    /// One coverage-space sample; returns the indicator `Y`. The
    /// assignment buffer is packed (`PackedDnf` layout, one bit per
    /// variable); the RNG draw sequence is identical to the historical
    /// `Vec<bool>` implementation, so estimates are bit-for-bit stable
    /// across the representation change.
    fn sample_once<R: Rng>(&self, u: f64, assignment: &mut [u64], rng: &mut R) -> bool {
        // Sample a term ∝ weight. The exact weights are nonzero by
        // construction, but their f64 images can underflow to a flat
        // cumulative vector — fall back to a uniform term choice rather
        // than piling every sample onto term 0.
        let ti = if u.is_finite() && u > 0.0 {
            let x = rng.gen::<f64>() * u;
            match self.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
                Ok(i) => (i + 1).min(self.terms.len() - 1),
                Err(i) => i.min(self.terms.len() - 1),
            }
        } else {
            rng.gen_range(0..self.terms.len())
        };
        // Sample an assignment conditioned on satisfying term ti. The
        // draws happen per variable in index order — the exact sequence
        // the scalar implementation used, pinned by the determinism
        // suites — but the bits accumulate branchlessly in a local word
        // flushed once per 64 variables, and the term's literals are
        // forced wordwise from its precomputed masks.
        let mut word = 0u64;
        let mut wi = 0usize;
        for (v, p) in self.probs.iter().enumerate() {
            word |= u64::from(rng.gen::<f64>() < *p) << (v % 64);
            if v % 64 == 63 {
                assignment[wi] = word;
                wi += 1;
                word = 0;
            }
        }
        if !self.probs.len().is_multiple_of(64) {
            assignment[wi] = word;
        }
        let (set, clear) = &self.term_masks[ti];
        for ((w, s), c) in assignment.iter_mut().zip(set).zip(clear) {
            *w = (*w & !c) | s;
        }
        // Y = 1 iff ti is the first term satisfied. The forced literals
        // make ti itself satisfied, so the search always succeeds.
        let first = self
            .packed
            .first_satisfied(assignment)
            .expect("sampled assignment satisfies term ti");
        first == ti
    }

    /// Run to relative error `ε` at confidence `1 − δ`: one seed drawn
    /// from `rng`, then [`Self::run_eps_delta`] on one thread under
    /// [`Budget::unlimited`].
    pub fn run<R: Rng>(&self, eps: f64, delta: f64, rng: &mut R) -> KarpLubyReport {
        self.run_eps_delta(eps, delta, &Budget::unlimited(), rng.gen(), 1)
            .0
    }

    /// The `(ε, δ)` entry every caller uses: the stopping rule, capped
    /// by the zero-one count (see the module docs). Reads the canonical
    /// sequence of the cap `T = samples_for(ε, δ/2)` until the hit count
    /// reaches `⌈Υ₁⌉` ([`stopping_rule_hits`] at `(ε, δ)`) at sample `N`
    /// and answers `U·Υ₁/N`; a run that reaches `T` first answers
    /// `U·hits/T`. Each branch errs with probability `≤ δ/2`, so the
    /// answer is within relative error `ε` of `Pr[φ]` with probability
    /// `≥ 1 − δ`. For `ε ≥ 1`, where the rule gives no guarantee, this is
    /// [`Self::run_budgeted`] at `samples_for(ε, δ)`.
    ///
    /// Budget, seeding and threading are [`Self::run_budgeted`]'s: the
    /// estimate, `samples` and the [`Resource::Samples`] charge depend on
    /// `(seed, ε, δ)` and the budget's counter caps, never on `threads`,
    /// and on one thread nothing past the stopping sample is drawn.
    pub fn run_eps_delta(
        &self,
        eps: f64,
        delta: f64,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> (KarpLubyReport, Option<Exhausted>) {
        if let Some(report) = self.trivial() {
            return (report, None);
        }
        if eps >= 1.0 {
            return self.run_budgeted(self.samples_for(eps, delta), budget, seed, threads);
        }
        let upsilon = stopping_rule_hits(eps, delta);
        let cap = self.samples_for(eps, delta / 2.0);
        let (drawn, exhausted) = self.draw(cap, Some(upsilon.ceil() as u64), budget, seed, threads);
        let report = if drawn.stopped {
            KarpLubyReport {
                estimate: self.total_weight.to_f64() * upsilon / drawn.samples as f64,
                samples: drawn.samples,
                hit_rate: drawn.hits as f64 / drawn.samples as f64,
                stopped: true,
            }
        } else {
            self.mean_report(drawn)
        };
        (report, exhausted)
    }

    /// Seeded, sharded run of exactly `samples` draws under a
    /// cooperative [`Budget`], charging [`Resource::Samples`] for every
    /// sample read. Never panics on exhaustion: returns the report over the
    /// samples read — the canonical sequence up to its first gap — together
    /// with the trip cause, letting callers use the partial estimate (which
    /// carries no `(ε, δ)` guarantee) as a degraded answer. A run cut off
    /// before any sample reports `estimate = 0, samples = 0`.
    ///
    /// The sample count is cut into [`DEFAULT_SHARDS`] fixed pieces;
    /// shard `s` draws its share on an independent `StdRng` seeded with
    /// [`split_seed`]`(seed, s)`. The integer hit counts merge exactly,
    /// so the result depends on `(samples, seed)` and the budget's
    /// counter caps — **never on `threads`**. A samples cap admits
    /// exactly the first `cap` samples of the canonical sequence (module
    /// docs). Only wall-clock deadlines and external cancellation
    /// introduce scheduling-dependent trip points.
    pub fn run_budgeted(
        &self,
        samples: u64,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> (KarpLubyReport, Option<Exhausted>) {
        if let Some(report) = self.trivial() {
            return (report, None);
        }
        let (drawn, exhausted) = self.draw(samples, None, budget, seed, threads);
        (self.mean_report(drawn), exhausted)
    }

    /// `U · hits/samples`: the fixed-count estimator.
    fn mean_report(&self, drawn: Drawn) -> KarpLubyReport {
        let hit_rate = drawn.hits as f64 / drawn.samples.max(1) as f64;
        KarpLubyReport {
            estimate: self.total_weight.to_f64() * hit_rate,
            samples: drawn.samples,
            hit_rate,
            stopped: false,
        }
    }

    /// The one sampling loop. Reads the canonical sequence over the
    /// shard prefixes of `shard_counts(target)` — cut to the budget's
    /// remaining samples — until `stop_hits` hits (if given), its end,
    /// or a clock or cancellation trip, then charges what it read.
    ///
    /// Work proceeds in rounds of whole blocks: every shard draws its
    /// segments of the round (in parallel when `threads > 1`), recording
    /// a hit mask per segment, and the masks are then scanned in
    /// sequence order, which locates the stopping sample exactly. A
    /// segment stops early once the hits it has seen, added to a lower
    /// bound on the hits before it (the finished segments earlier in the
    /// sequence), reach `stop_hits`: the stopping sample then lies at or
    /// before that point. On one thread rounds are one block and every
    /// earlier segment has finished, so the bound is exact and the loop
    /// stops on the stopping sample itself; on more threads rounds are
    /// [`THREADED_ROUND_BLOCKS`] blocks, trading a bounded overdraw for
    /// fewer fan-outs. Without a threshold the whole sequence is one round.
    fn draw(
        &self,
        target: u64,
        stop_hits: Option<u64>,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> (Drawn, Option<Exhausted>) {
        let u = *self.cumulative.last().unwrap();
        let counts = shard_counts(target, DEFAULT_SHARDS);
        let take = budget
            .remaining(Resource::Samples)
            .map_or(target, |left| left.min(target));
        let limits = if take < target {
            sequence_prefix(&counts, take)
        } else {
            counts
        };
        let blocks_total = limits.iter().max().map_or(0, |l| l.div_ceil(BLOCK));
        // Each shard owns its stream and a clock: a child budget that
        // shares the deadline and cancellation token. Counters are
        // charged on `budget` itself once the sequence position is known.
        let mut shards: Vec<Shard> = budget
            .split(DEFAULT_SHARDS)
            .into_iter()
            .enumerate()
            .map(|(s, clock)| Shard {
                rng: StdRng::seed_from_u64(split_seed(seed, s as u64)),
                assignment: vec![0u64; self.packed.num_words()],
                clock,
            })
            .collect();
        // Without a threshold no hit count stops the read.
        let stop = stop_hits.unwrap_or(u64::MAX);
        let mut drawn = Drawn::default();
        let mut cut = None;
        let round = match stop_hits {
            None => blocks_total.max(1),
            Some(_) if threads > 1 => THREADED_ROUND_BLOCKS,
            Some(_) => 1,
        };
        let mut block = 0u64;
        'rounds: while block < blocks_total {
            let blocks = round.min(blocks_total - block);
            let seg_len =
                |r: u64, s: usize| limits[s].saturating_sub((block + r) * BLOCK).min(BLOCK);
            let hits_before = drawn.hits;
            // Hits per finished segment of this round, in sequence order
            // (`r · shards + s`): the lower bound the early stop reads.
            // Each is a count that publishes no other data, and a slot
            // read before its segment finishes reads 0, which keeps the
            // bound a lower bound, so `Relaxed` suffices.
            let progress: Vec<AtomicU64> = (0..blocks as usize * DEFAULT_SHARDS)
                .map(|_| AtomicU64::new(0))
                .collect();
            let outs = run_shards_with(shards, threads, |s, mut shard: Shard| {
                let mut out = ShardRound::default();
                for r in 0..blocks {
                    let len = seg_len(r, s);
                    if len == 0 {
                        break;
                    }
                    let slot = r as usize * DEFAULT_SHARDS + s;
                    let need = stop_hits.map_or(u64::MAX, |stop| {
                        let earlier: u64 = progress[..slot]
                            .iter()
                            .map(|p| p.load(Ordering::Relaxed))
                            .sum();
                        stop.saturating_sub(hits_before + earlier)
                    });
                    let (mut mask, mut n, mut hits) = (0u64, 0u64, 0u64);
                    while n < len && hits < need {
                        if let Err(e) = shard.clock.checkpoint() {
                            out.cause = Some(e);
                            break;
                        }
                        if self.sample_once(u, &mut shard.assignment, &mut shard.rng) {
                            mask |= 1 << n;
                            hits += 1;
                        }
                        n += 1;
                    }
                    progress[slot].store(hits, Ordering::Relaxed);
                    out.segments.push((mask, n));
                    if n < len {
                        break;
                    }
                }
                (shard, out)
            });
            let (back, outs): (Vec<Shard>, Vec<ShardRound>) = outs.into_iter().unzip();
            shards = back;
            for r in 0..blocks {
                for (s, out) in outs.iter().enumerate() {
                    let len = seg_len(r, s);
                    if len == 0 {
                        continue;
                    }
                    let (mask, n) = out.segments.get(r as usize).copied().unwrap_or((0, 0));
                    let hits = u64::from(mask.count_ones());
                    if drawn.hits + hits >= stop {
                        let at = nth_set_bit(mask, stop - drawn.hits);
                        drawn.hits = stop;
                        drawn.samples += at + 1;
                        drawn.stopped = true;
                        break 'rounds;
                    }
                    drawn.hits += hits;
                    drawn.samples += n;
                    // A segment ends early only on reaching the threshold
                    // (handled above) or on a trip: the sequence has a
                    // gap here, so the read ends with it.
                    if n < len {
                        cut = Some(out.cause.expect("a segment cut short has a cause"));
                        break 'rounds;
                    }
                }
            }
            block += blocks;
        }
        charge_read(budget, drawn, target, cut)
    }

    /// Estimate the model count of a DNF over `num_vars` variables:
    /// `2^n · estimate` under `p ≡ 1/2`.
    pub fn estimate_count<R: Rng>(
        dnf: &Dnf,
        num_vars: usize,
        eps: f64,
        delta: f64,
        rng: &mut R,
    ) -> f64 {
        let kl = Self::for_counting(dnf, num_vars);
        let report = kl.run(eps, delta, rng);
        report.estimate * (num_vars as f64).exp2()
    }

    /// Exact term weights (diagnostics; aligned with the DNF's terms).
    pub fn weights(&self) -> &[BigRational] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_dnf::dnf_probability_shannon;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn trivial_formulas() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = vec![r(1, 2); 2];
        let empty = KarpLuby::new(&Dnf::new(), &probs);
        assert_eq!(empty.run(0.1, 0.1, &mut rng).estimate, 0.0);

        let mut top = Dnf::new();
        top.push_term_checked(vec![]);
        let taut = KarpLuby::new(&top, &probs);
        assert_eq!(taut.run(0.1, 0.1, &mut rng).estimate, 1.0);
    }

    #[test]
    fn matches_exact_on_small_formulas() {
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..10 {
            let n = 6usize;
            let mut d = Dnf::new();
            for _ in 0..4 {
                let len = rng.gen_range(1..4usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = rng.gen_range(0..n) as u32;
                        if rng.gen() {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        }
                    })
                    .collect();
                d.push_term_checked(lits);
            }
            if d.num_terms() == 0 {
                continue;
            }
            let probs: Vec<BigRational> = (0..n).map(|i| r(1 + (i as i64 % 3), 4)).collect();
            let exact = dnf_probability_shannon(&d, &probs).to_f64();
            let kl = KarpLuby::new(&d, &probs);
            let est = kl.run(0.05, 0.02, &mut rng).estimate;
            let tol = 0.05 * exact.max(0.01) + 0.01;
            assert!(
                (est - exact).abs() <= tol,
                "trial {trial}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn low_probability_instance_still_accurate_relative() {
        // A conjunction-like DNF with tiny probability: single term of 12
        // positive literals at p = 1/4 → (1/4)^12 ≈ 6e-8. Karp–Luby is
        // exact here (one term ⇒ Y ≡ 1 ⇒ estimate = U = true probability).
        let term: Vec<Lit> = (0..12).map(Lit::pos).collect();
        let d = Dnf::from_terms([term]);
        let probs = vec![r(1, 4); 12];
        let exact = dnf_probability_shannon(&d, &probs);
        let kl = KarpLuby::new(&d, &probs);
        let mut rng = StdRng::seed_from_u64(3);
        let report = kl.run_with_samples(100, &mut rng);
        assert_eq!(report.hit_rate, 1.0);
        let rel = (report.estimate - exact.to_f64()).abs() / exact.to_f64();
        assert!(rel < 1e-9, "relative error {rel}");
    }

    #[test]
    fn low_probability_multi_term() {
        // Two disjoint low-probability terms; relative accuracy must hold
        // with modest samples (this is the regime where naive MC needs
        // ~1/p ≈ 10^5 samples just to see one hit).
        let d = Dnf::from_terms([
            (0..8).map(Lit::pos).collect::<Vec<_>>(),
            (8..16).map(Lit::pos).collect::<Vec<_>>(),
        ]);
        let probs = vec![r(1, 4); 16];
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let kl = KarpLuby::new(&d, &probs);
        let mut rng = StdRng::seed_from_u64(4);
        let est = kl.run(0.05, 0.01, &mut rng).estimate;
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < 0.1,
            "relative error {rel}: est {est} vs exact {exact}"
        );
    }

    #[test]
    fn counting_matches_exact() {
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(2)],
            vec![Lit::pos(3), Lit::neg(0)],
        ]);
        let n = 4;
        let exact = d.count_models_brute(n) as f64;
        let mut rng = StdRng::seed_from_u64(5);
        let est = KarpLuby::estimate_count(&d, n, 0.03, 0.01, &mut rng);
        assert!(
            (est - exact).abs() / exact < 0.05,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn unbiasedness_via_exact_weights() {
        // U must equal the exact sum of term probabilities.
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1), Lit::neg(0)]]);
        let probs = vec![r(1, 3), r(1, 5)];
        let kl = KarpLuby::new(&d, &probs);
        assert_eq!(kl.total_weight(), &r(1, 3).add_ref(&r(2, 15)));
        assert_eq!(kl.weights().len(), 2);
    }

    #[test]
    fn zero_weight_terms_filtered_out() {
        // Term x0 has ν(x0) = 0: it can never hold, so it must not be
        // sampled (regression: a flat stretch of the f64 cumulative
        // vector could select it and skew the hit rate).
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1)]]);
        let probs = vec![r(0, 1), r(1, 2)];
        let kl = KarpLuby::new(&d, &probs);
        assert_eq!(kl.num_terms(), 1);
        assert_eq!(kl.total_weight(), &r(1, 2));
        let mut rng = StdRng::seed_from_u64(31);
        let rep = kl.run(0.05, 0.05, &mut rng);
        assert!((rep.estimate - 0.5).abs() <= 0.05);
    }

    #[test]
    fn negated_certain_literal_is_zero_weight() {
        // ¬x0 with ν(x0) = 1 is the dual zero-weight shape.
        let d = Dnf::from_terms([vec![Lit::neg(0)]]);
        let probs = vec![r(1, 1)];
        let kl = KarpLuby::new(&d, &probs);
        assert_eq!(kl.num_terms(), 0);
        let mut rng = StdRng::seed_from_u64(32);
        let rep = kl.run(0.1, 0.1, &mut rng);
        assert_eq!(rep.estimate, 0.0);
        assert_eq!(rep.hit_rate, 0.0);
    }

    #[test]
    fn all_zero_weight_dnf_reports_probability_zero() {
        // Regression: Pr[φ] = 0 structurally; the run must not divide by
        // a zero total weight, sample degenerate terms, or report a
        // misleading nonzero hit rate.
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1), Lit::neg(2)]]);
        let probs = vec![r(0, 1), r(0, 1), r(1, 2)];
        let kl = KarpLuby::new(&d, &probs);
        assert!(kl.total_weight().is_zero());
        let mut rng = StdRng::seed_from_u64(33);
        let rep = kl.run(0.1, 0.1, &mut rng);
        assert_eq!(rep.estimate, 0.0);
        assert_eq!(rep.hit_rate, 0.0);
        assert_eq!(rep.samples, 0);
    }

    #[test]
    fn budgeted_run_is_thread_count_invariant() {
        use qrel_budget::Budget;
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::pos(2)],
            vec![Lit::neg(0), Lit::pos(3)],
        ]);
        let probs = vec![r(1, 3), r(1, 2), r(1, 5), r(2, 7)];
        let kl = KarpLuby::new(&d, &probs);
        let run = |threads| {
            kl.run_budgeted(10_000, &Budget::unlimited(), 0xC0FFEE, threads)
                .0
        };
        let serial = run(1);
        for threads in [2usize, 4, 8, 16] {
            let par = run(threads);
            assert_eq!(par.estimate.to_bits(), serial.estimate.to_bits());
            assert_eq!(par.hit_rate.to_bits(), serial.hit_rate.to_bits());
            assert_eq!(par.samples, serial.samples);
        }
    }

    #[test]
    fn serial_run_is_the_budgeted_run_at_a_drawn_seed() {
        use qrel_budget::Budget;
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::pos(2)],
            vec![Lit::neg(0), Lit::pos(3)],
        ]);
        let probs = vec![r(1, 3), r(1, 2), r(1, 5), r(2, 7)];
        let kl = KarpLuby::new(&d, &probs);
        for s in [0u64, 1, 42] {
            let serial = kl.run_with_samples(3_000, &mut StdRng::seed_from_u64(s));
            let seed = StdRng::seed_from_u64(s).gen::<u64>();
            for threads in [1usize, 4] {
                let (prod, exhausted) = kl.run_budgeted(3_000, &Budget::unlimited(), seed, threads);
                assert!(exhausted.is_none());
                assert_eq!(prod.estimate.to_bits(), serial.estimate.to_bits());
                assert_eq!(prod.hit_rate.to_bits(), serial.hit_rate.to_bits());
                assert_eq!(prod.samples, serial.samples);
            }
        }
    }

    #[test]
    fn budgeted_run_matches_exact_probability() {
        use qrel_budget::Budget;
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::pos(1)],
            vec![Lit::neg(2)],
            vec![Lit::pos(3), Lit::neg(0)],
        ]);
        let probs: Vec<BigRational> = (0..4).map(|i| r(1 + (i as i64 % 3), 4)).collect();
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let kl = KarpLuby::new(&d, &probs);
        let samples = kl.samples_for(0.05, 0.02);
        let est = kl
            .run_budgeted(samples, &Budget::unlimited(), 99, 4)
            .0
            .estimate;
        assert!(
            (est - exact).abs() <= 0.05 * exact + 0.01,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn budgeted_run_conserves_the_sample_cap() {
        use qrel_budget::{Budget, Resource};
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1)]]);
        let probs = vec![r(1, 3), r(1, 3)];
        let kl = KarpLuby::new(&d, &probs);
        for threads in [1usize, 4] {
            let budget = Budget::unlimited().with_max_samples(50);
            let (rep, exhausted) = kl.run_budgeted(1_000_000, &budget, 7, threads);
            let e = exhausted.expect("sample budget must trip");
            assert_eq!(e.resource, Resource::Samples);
            // Split-and-settle accounting: exactly the cap was spent.
            assert_eq!(rep.samples, 50);
            assert_eq!(budget.spent(Resource::Samples), 50);
            // The partial estimate is still a bounded, plausible number.
            assert!(rep.estimate >= 0.0 && rep.estimate <= kl.total_weight().to_f64());
        }
    }

    #[test]
    fn budgeted_run_without_tripping_matches_unlimited() {
        use qrel_budget::{Budget, Resource};
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1), Lit::neg(0)]]);
        let probs = vec![r(1, 3), r(1, 5)];
        let kl = KarpLuby::new(&d, &probs);
        let (plain, exhausted) = kl.run_budgeted(500, &Budget::unlimited(), 11, 4);
        assert!(exhausted.is_none());
        // A cap of exactly the sample count never trips.
        let budget = Budget::unlimited().with_max_samples(500);
        let (capped, exhausted) = kl.run_budgeted(500, &budget, 11, 4);
        assert!(exhausted.is_none());
        assert_eq!(plain.estimate.to_bits(), capped.estimate.to_bits());
        assert_eq!(plain.samples, capped.samples);
        assert_eq!(budget.spent(Resource::Samples), 500);
    }

    #[test]
    fn vectorized_sampling_matches_scalar_reference_bit_for_bit() {
        // The wordwise draw/force path must consume the RNG in the same
        // per-variable order and produce the same indicator as the
        // historical scalar loop (per-bit `set_bit`, per-literal force).
        // Any divergence shifts every later draw and breaks the pinned
        // determinism suites.
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::neg(65)],
            vec![Lit::pos(64), Lit::pos(1)],
            vec![Lit::neg(3), Lit::pos(130)],
        ]);
        // 131 variables: three words, a ragged tail, cross-word terms.
        let probs: Vec<BigRational> = (0..131).map(|i| r(1 + (i as i64 % 3), 4)).collect();
        let kl = KarpLuby::new(&d, &probs);
        let u = *kl.cumulative.last().unwrap();
        let probs_f64: Vec<f64> = probs.iter().map(|p| p.to_f64()).collect();
        let mut fast_rng = StdRng::seed_from_u64(77);
        let mut ref_rng = StdRng::seed_from_u64(77);
        let mut fast_buf = vec![0u64; kl.packed.num_words()];
        let mut ref_buf = vec![0u64; kl.packed.num_words()];
        for round in 0..2_000 {
            let fast = kl.sample_once(u, &mut fast_buf, &mut fast_rng);
            // Scalar reference: identical draw sequence, bit-by-bit.
            let reference = {
                let rng = &mut ref_rng;
                let x = rng.gen::<f64>() * u;
                let ti = match kl.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
                    Ok(i) => (i + 1).min(kl.terms.len() - 1),
                    Err(i) => i.min(kl.terms.len() - 1),
                };
                for (v, p) in probs_f64.iter().enumerate() {
                    PackedDnf::set_bit(&mut ref_buf, v, rng.gen::<f64>() < *p);
                }
                for l in &kl.terms[ti] {
                    PackedDnf::set_bit(&mut ref_buf, l.var as usize, l.positive);
                }
                kl.packed.first_satisfied(&ref_buf).unwrap() == ti
            };
            assert_eq!(fast, reference, "round {round} diverged");
            assert_eq!(fast_buf, ref_buf, "round {round} assignment diverged");
        }
    }

    #[test]
    fn sample_bound_scales_with_terms() {
        let probs = vec![r(1, 2); 4];
        let d1 = Dnf::from_terms([vec![Lit::pos(0)]]);
        let d8 = Dnf::from_terms(
            (0..4)
                .map(|i| vec![Lit::pos(i)])
                .chain((0..4).map(|i| vec![Lit::neg(i)])),
        );
        let k1 = KarpLuby::new(&d1, &probs);
        let k8 = KarpLuby::new(&d8, &probs);
        assert!(k8.samples_for(0.1, 0.1) > k1.samples_for(0.1, 0.1));
    }

    /// The canonical sequence read serially, one shard stream after
    /// another within each block: the reference the sharded loop must
    /// reproduce.
    fn reference_sequence(kl: &KarpLuby, target: u64, seed: u64) -> Vec<bool> {
        let counts = shard_counts(target, DEFAULT_SHARDS);
        let mut rngs: Vec<StdRng> = (0..DEFAULT_SHARDS as u64)
            .map(|s| StdRng::seed_from_u64(split_seed(seed, s)))
            .collect();
        let mut buf = vec![0u64; kl.packed.num_words()];
        let u = *kl.cumulative.last().unwrap();
        let mut seq = Vec::new();
        for block in 0..counts[0].div_ceil(BLOCK) {
            for (rng, &count) in rngs.iter_mut().zip(&counts) {
                for _ in block * BLOCK..count.min((block + 1) * BLOCK) {
                    seq.push(kl.sample_once(u, &mut buf, rng));
                }
            }
        }
        seq
    }

    /// Terms `x0 ∧ yᵢ` with `ν(yᵢ) = 19/20`: all nearly the event `x0`,
    /// so the hit rate sits just above its `1/m` floor.
    fn overlapping() -> KarpLuby {
        let d = Dnf::from_terms((1..9).map(|i| vec![Lit::pos(0), Lit::pos(i)]));
        let mut probs = vec![r(19, 20); 9];
        probs[0] = r(1, 3);
        KarpLuby::new(&d, &probs)
    }

    #[test]
    fn stopping_rule_stops_on_the_threshold_hit_of_the_sequence() {
        use qrel_budget::{Budget, Resource};
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::pos(2)],
            vec![Lit::neg(0), Lit::pos(3)],
        ]);
        let probs = vec![r(1, 3), r(1, 2), r(1, 5), r(2, 7)];
        let kl = KarpLuby::new(&d, &probs);
        let (eps, delta) = (0.1, 0.1);
        let upsilon = stopping_rule_hits(eps, delta);
        let cap = kl.samples_for(eps, delta / 2.0);
        for seed in [0u64, 5, 0xC0FFEE] {
            let seq = reference_sequence(&kl, cap, seed);
            let mut hits = 0u64;
            let n = 1 + seq
                .iter()
                .position(|&y| {
                    hits += u64::from(y);
                    hits == upsilon.ceil() as u64
                })
                .expect("the rule stops before the cap") as u64;
            let expected = kl.total_weight().to_f64() * upsilon / n as f64;
            for threads in [1usize, 2, 4, 8] {
                let budget = Budget::unlimited();
                let (rep, exhausted) = kl.run_eps_delta(eps, delta, &budget, seed, threads);
                assert!(exhausted.is_none());
                assert!(rep.stopped);
                assert_eq!(rep.samples, n, "seed {seed}, {threads} threads");
                assert_eq!(rep.estimate.to_bits(), expected.to_bits());
                assert_eq!(budget.spent(Resource::Samples), n);
            }
        }
    }

    #[test]
    fn cap_branch_answers_the_mean_over_the_whole_sequence() {
        use qrel_budget::{Budget, Resource};
        // At ε = 1/2 the threshold (≈ 53 hits) exceeds the expected hits
        // at the cap (≈ 51), so the cap answers a good share of seeds.
        let kl = overlapping();
        let (eps, delta) = (0.5, 0.2);
        let cap = kl.samples_for(eps, delta / 2.0);
        let mut capped = 0;
        for seed in 0..20u64 {
            let rep = kl
                .run_eps_delta(eps, delta, &Budget::unlimited(), seed, 1)
                .0;
            if rep.stopped {
                continue;
            }
            capped += 1;
            let hits = reference_sequence(&kl, cap, seed)
                .iter()
                .filter(|&&y| y)
                .count() as u64;
            assert!((hits as f64) < stopping_rule_hits(eps, delta));
            let expected = kl.total_weight().to_f64() * (hits as f64 / cap as f64);
            for threads in [1usize, 4] {
                let budget = Budget::unlimited();
                let (rep, exhausted) = kl.run_eps_delta(eps, delta, &budget, seed, threads);
                assert!(exhausted.is_none());
                assert!(!rep.stopped);
                assert_eq!(rep.samples, cap);
                assert_eq!(rep.estimate.to_bits(), expected.to_bits());
                assert_eq!(budget.spent(Resource::Samples), cap);
            }
        }
        assert!(capped > 0, "no seed reached the cap");
    }

    #[test]
    fn samples_cap_admits_a_prefix_of_the_sequence() {
        use qrel_budget::{Budget, Resource};
        let kl = overlapping();
        let (eps, delta) = (0.1, 0.1);
        let seq = reference_sequence(&kl, kl.samples_for(eps, delta / 2.0), 3);
        // Caps inside the first block row, across rows, and ragged.
        for limit in [1u64, 50, 64, 1_000, 1_025, 3_333] {
            let hits = seq[..limit as usize].iter().filter(|&&y| y).count() as f64;
            let expected = kl.total_weight().to_f64() * (hits / limit as f64);
            for threads in [1usize, 4] {
                let budget = Budget::unlimited().with_max_samples(limit);
                let (rep, exhausted) = kl.run_eps_delta(eps, delta, &budget, 3, threads);
                let e = exhausted.expect("the cap trips before the rule stops");
                assert_eq!(e.resource, Resource::Samples);
                assert!(!rep.stopped);
                assert_eq!(rep.samples, limit);
                assert_eq!(rep.estimate.to_bits(), expected.to_bits());
                assert_eq!(budget.spent(Resource::Samples), limit);
            }
        }
    }

    #[test]
    fn stopping_rule_draws_fewer_samples_than_the_zero_one_count() {
        let d = Dnf::from_terms((0..6).map(|i| vec![Lit::pos(2 * i), Lit::neg(2 * i + 1)]));
        let probs = vec![r(1, 4); 12];
        let kl = KarpLuby::new(&d, &probs);
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let mut rng = StdRng::seed_from_u64(9);
        let rep = kl.run(0.1, 0.1, &mut rng);
        assert!(rep.stopped);
        assert!(
            rep.samples < kl.samples_for(0.1, 0.1) / 3,
            "{}",
            rep.samples
        );
        assert!((rep.estimate - exact).abs() <= 0.1 * exact);
    }

    #[test]
    fn a_late_clock_trip_does_not_cut_a_complete_read() {
        use qrel_budget::{Budget, Resource};
        use std::time::Duration;
        // Every budget's deadline has passed, so the charge itself trips
        // the clock; only a read that is not complete was cut short.
        let expired = || Budget::unlimited().with_deadline(Duration::ZERO);
        let stopped = Drawn {
            hits: 3,
            samples: 10,
            stopped: true,
        };
        let whole = Drawn {
            hits: 3,
            samples: 100,
            stopped: false,
        };
        let partial = Drawn {
            hits: 3,
            samples: 10,
            stopped: false,
        };
        for drawn in [stopped, whole] {
            let budget = expired();
            let (kept, cut) = charge_read(&budget, drawn, 100, None);
            assert!(cut.is_none(), "{drawn:?} flagged {cut:?}");
            assert_eq!(kept.samples, drawn.samples);
            assert_eq!(budget.spent(Resource::Samples), drawn.samples);
        }
        let (_, cut) = charge_read(&expired(), partial, 100, None);
        assert_eq!(cut.map(|e| e.resource), Some(Resource::WallClock));
    }
}
