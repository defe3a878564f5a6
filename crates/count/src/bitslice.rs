//! Bit-parallel (bit-sliced) exact DNF evaluation: 64 worlds per `u64`.
//!
//! The Thm 4.2-style enumerators walk all `2^n` worlds of the lineage.
//! Serial code evaluates one world per iteration; this kernel packs 64
//! worlds into the lanes of a `u64` and evaluates every term against all
//! 64 at once with three bitwise ops, so the satisfaction test costs
//! `terms` instructions per *block* instead of `terms × width` per
//! *world*.
//!
//! **Layout.** Let `n = var_bound`, `low = min(n, 6)`, `L = 2^low ≤ 64`.
//! World `w = block·L + lane`: the `low` least-significant variables take
//! their values from the lane index (variable `v < low` is bit `v` of the
//! lane, realized as the constant lane pattern `PATTERNS[v]`), and the
//! remaining `h = n − low` variables take theirs from `gray(block) =
//! block ^ (block >> 1)`. Gray-coding the block index keeps consecutive
//! blocks one bit apart (cheap for incremental schemes) while remaining a
//! bijection on `0..2^h`, so the blocks cover every world exactly once.
//!
//! **Per-term compilation.** Low literals fold into a single 64-bit
//! `low_mask` (AND of patterns / complements); high literals fold into
//! `hi_pos`/`hi_neg` masks tested once per block. A block's satisfied-lane
//! mask is the OR of `low_mask` over terms whose high masks match, with
//! early exit once all lanes are satisfied.
//!
//! **Probability accumulation** runs on [`FastProb`] — fixed-width dyadic
//! `u128` arithmetic that promotes to `BigRational` only on overflow
//! (exactly, see `qrel-arith::dyadic`). Per block the high-variable
//! weight is an `O(h)` multiply-only product (dyadics are not closed
//! under division, so nothing is ever divided), and the satisfied lanes
//! contribute precomputed lane weights; a fully satisfied block
//! contributes the high weight times the precomputed total lane mass.
//! All arithmetic is exact, so results are bit-identical to the serial
//! `BigRational` engines after gcd normalization, in any summation order.

use qrel_arith::{BigRational, BigUint, FastProb};
use qrel_logic::prop::Dnf;

/// Lane patterns: bit `j` of `PATTERNS[v]` is bit `v` of lane index `j`.
const PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA, // v=0: lane bit 0
    0xCCCC_CCCC_CCCC_CCCC, // v=1
    0xF0F0_F0F0_F0F0_F0F0, // v=2
    0xFF00_FF00_FF00_FF00, // v=3
    0xFFFF_0000_FFFF_0000, // v=4
    0xFFFF_FFFF_0000_0000, // v=5
];

/// Balanced Gray code: consecutive block indices differ in one bit, and
/// `gray` is a bijection on any `0..2^h`.
#[inline]
fn gray(b: u64) -> u64 {
    b ^ (b >> 1)
}

/// A term compiled against the bit-sliced layout.
struct SlicedTerm {
    /// Lanes (low-variable assignments) satisfying the term's low literals.
    low_mask: u64,
    /// High variables required true / required false, as bits of `gray(block)`.
    hi_pos: u64,
    hi_neg: u64,
}

/// The compiled DNF plus the probability tables shared by every block.
struct Sliced {
    n: usize,
    low: usize,
    terms: Vec<SlicedTerm>,
    /// `lane_weight[j]` = Π over low vars of (bit j set → p_v, else 1−p_v).
    lane_weight: Vec<FastProb>,
    /// High-var weight factors: `(p_v, 1−p_v)` for each of the `h` high vars.
    hi_weight: Vec<(FastProb, FastProb)>,
}

fn compile(dnf: &Dnf, probs: &[BigRational]) -> Sliced {
    let n = dnf.var_bound();
    assert!(
        n <= probs.len(),
        "probability vector does not cover all variables"
    );
    assert!(n < 64, "bit-sliced enumeration limited to 63 variables");
    for p in &probs[..n] {
        assert!(p.is_probability(), "probability out of range");
    }
    let low = n.min(6);
    let lanes = 1usize << low;
    let full = lane_mask(lanes);

    let terms = dnf
        .terms()
        .iter()
        .map(|t| {
            let mut st = SlicedTerm {
                low_mask: full,
                hi_pos: 0,
                hi_neg: 0,
            };
            for l in t {
                let v = l.var as usize;
                if v < low {
                    let pat = PATTERNS[v];
                    st.low_mask &= if l.positive { pat } else { !pat };
                } else {
                    let bit = 1u64 << (v - low);
                    if l.positive {
                        st.hi_pos |= bit;
                    } else {
                        st.hi_neg |= bit;
                    }
                }
            }
            st
        })
        .collect();

    let mut lane_weight = Vec::with_capacity(lanes);
    for j in 0..lanes {
        let mut w = FastProb::one();
        for (v, p) in probs.iter().enumerate().take(low) {
            let f = FastProb::from_rational(p);
            w = w.mul(&if (j >> v) & 1 == 1 { f } else { f.one_minus() });
        }
        lane_weight.push(w);
    }
    let hi_weight = probs
        .iter()
        .take(n)
        .skip(low)
        .map(|p| {
            let f = FastProb::from_rational(p);
            let c = f.one_minus();
            (f, c)
        })
        .collect();

    Sliced {
        n,
        low,
        terms,
        lane_weight,
        hi_weight,
    }
}

#[inline]
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

impl Sliced {
    fn lanes(&self) -> u64 {
        1u64 << self.low
    }

    /// Satisfied-lane mask for one block (high assignment `hi`), with
    /// early exit once every lane in `valid` is covered.
    #[inline]
    fn block_sat(&self, hi: u64, valid: u64) -> u64 {
        let mut sat = 0u64;
        for t in &self.terms {
            if hi & t.hi_pos == t.hi_pos && hi & t.hi_neg == 0 {
                sat |= t.low_mask;
                if sat & valid == valid {
                    break;
                }
            }
        }
        sat & valid
    }

    /// Π over high vars of their weight under assignment `hi`
    /// (multiply-only: no division, so the dyadic fast path survives).
    fn high_weight(&self, hi: u64) -> FastProb {
        let mut w = FastProb::one();
        for (j, (p, q)) in self.hi_weight.iter().enumerate() {
            w = w.mul(if (hi >> j) & 1 == 1 { p } else { q });
        }
        w
    }

    /// Probability mass of the satisfying worlds.
    fn probability(&self) -> FastProb {
        let lanes = self.lanes();
        let full = lane_mask(lanes as usize);
        // Total lane mass = 1 exactly (the low vars' distribution sums
        // out), letting fully satisfied blocks skip the per-lane sum.
        let mut acc = FastProb::zero();
        for block in 0..(1u64 << self.n) / lanes {
            let hi = gray(block);
            let sat = self.block_sat(hi, full);
            if sat != 0 {
                let hw = self.high_weight(hi);
                let low_sum = if sat == full {
                    FastProb::one()
                } else {
                    let mut s = FastProb::zero();
                    let mut m = sat;
                    while m != 0 {
                        let j = m.trailing_zeros() as usize;
                        s = s.add(&self.lane_weight[j]);
                        m &= m - 1;
                    }
                    s
                };
                acc = acc.add(&hw.mul(&low_sum));
            }
        }
        acc
    }
}

/// Exact DNF probability by bit-sliced world enumeration — same contract
/// as [`crate::dnf_probability_shannon`], different algorithm, bit-equal
/// result.
pub fn dnf_probability_bitslice(dnf: &Dnf, probs: &[BigRational]) -> BigRational {
    if dnf.is_false() {
        return BigRational::zero();
    }
    compile(dnf, probs).probability().to_rational()
}

/// Exact model count over `num_vars` variables by bit-sliced enumeration
/// with per-block popcounts — same contract as
/// [`crate::exact_dnf::dnf_count_models`].
pub fn dnf_count_models_bitslice(dnf: &Dnf, num_vars: usize) -> BigUint {
    assert!(
        dnf.var_bound() <= num_vars,
        "variable count does not cover the formula"
    );
    if dnf.is_false() {
        return BigUint::zero();
    }
    let probs = vec![BigRational::from_ratio(1, 2); dnf.var_bound()];
    let s = compile(dnf, &probs);
    let lanes = s.lanes();
    let full = lane_mask(lanes as usize);
    let blocks = (1u64 << s.n) / lanes;
    let mut count = 0u128;
    for b in 0..blocks {
        count += u128::from(s.block_sat(gray(b), full).count_ones());
    }
    // Variables above var_bound are free: each doubles every model.
    let free = (num_vars - s.n) as u64;
    let mut c = BigUint::from_u128(count);
    c = c.shl_bits(free);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_dnf::{dnf_count_models, dnf_probability_shannon};
    use qrel_logic::prop::Lit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn random_dnf(rng: &mut StdRng, num_vars: usize, num_terms: usize, k: usize) -> Dnf {
        let mut d = Dnf::new();
        for _ in 0..num_terms {
            let len = rng.gen_range(1..=k);
            let lits: Vec<Lit> = (0..len)
                .map(|_| {
                    let v = rng.gen_range(0..num_vars) as u32;
                    if rng.gen() {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect();
            d.push_term_checked(lits);
        }
        d
    }

    #[test]
    fn gray_is_a_bijection() {
        for h in [0u32, 1, 3, 7] {
            let mut seen: Vec<u64> = (0..1u64 << h).map(gray).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 1 << h);
            assert!(seen.iter().all(|&g| g < 1 << h));
        }
    }

    #[test]
    fn lane_patterns_encode_lane_bits() {
        for (v, pat) in PATTERNS.iter().enumerate() {
            for j in 0..64u64 {
                assert_eq!((pat >> j) & 1, (j >> v) & 1, "v={v} j={j}");
            }
        }
    }

    #[test]
    fn trivial_shapes() {
        let probs = vec![r(1, 3); 3];
        assert_eq!(
            dnf_probability_bitslice(&Dnf::new(), &probs),
            BigRational::zero()
        );
        let mut top = Dnf::new();
        top.push_term_checked(vec![]);
        assert_eq!(dnf_probability_bitslice(&top, &probs), BigRational::one());
        // ⊤ with no variables at all.
        assert_eq!(dnf_probability_bitslice(&top, &[]), BigRational::one());
    }

    #[test]
    fn matches_shannon_across_sizes() {
        let mut rng = StdRng::seed_from_u64(64);
        // Sizes straddle the low/high split: below 6 vars (partial lane
        // block), exactly 6, and above (multi-block).
        for n in [1usize, 3, 5, 6, 7, 9, 12] {
            for trial in 0..6 {
                let nt = rng.gen_range(1..7);
                let d = random_dnf(&mut rng, n, nt, 3);
                let probs: Vec<BigRational> =
                    (0..n).map(|_| r(rng.gen_range(0..=8), 8).clone()).collect();
                let expect = dnf_probability_shannon(&d, &probs);
                assert_eq!(
                    dnf_probability_bitslice(&d, &probs),
                    expect,
                    "n={n} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn matches_shannon_on_non_dyadic_probs() {
        // Promotion path: thirds and sevenths never enter the dyadic rep.
        let mut rng = StdRng::seed_from_u64(65);
        for trial in 0..8 {
            let n = rng.gen_range(2..9usize);
            let nt = rng.gen_range(1..6);
            let d = random_dnf(&mut rng, n, nt, 3);
            let probs: Vec<BigRational> = (0..n)
                .map(|_| {
                    r(
                        rng.gen_range(0..=7),
                        [3, 5, 7, 12][rng.gen_range(0..4usize)],
                    )
                })
                .collect();
            let probs: Vec<BigRational> = probs
                .into_iter()
                .map(|p| if p.is_probability() { p } else { r(1, 3) })
                .collect();
            assert_eq!(
                dnf_probability_bitslice(&d, &probs),
                dnf_probability_shannon(&d, &probs),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn count_matches_brute_and_shannon() {
        let mut rng = StdRng::seed_from_u64(68);
        for _ in 0..10 {
            let n = rng.gen_range(1..11usize);
            let nt = rng.gen_range(1..6);
            let d = random_dnf(&mut rng, n, nt, 3);
            let bits = dnf_count_models_bitslice(&d, n);
            assert_eq!(bits.to_u64().unwrap(), d.count_models_brute(n));
            assert_eq!(bits, dnf_count_models(&d, n));
            // Padding with unused variables scales by powers of two.
            let padded = dnf_count_models_bitslice(&d, n + 3);
            assert_eq!(padded, bits.shl_bits(3));
        }
    }
}
