//! Exact arbitrary-precision arithmetic for query-reliability computations.
//!
//! The algorithms of Grädel/Gurevich/Hirsch (PODS '98) are defined over
//! exact rational probabilities: the probability of a possible world is a
//! product of up to thousands of rationals, the `g` normalizer of
//! Theorem 4.2 is an lcm of denominators, and the legal-assignment
//! accounting of Theorem 5.3 counts assignments exactly. Floating point
//! underflows and destroys the identities those proofs rely on, so this
//! crate provides [`BigUint`], [`BigInt`] and [`BigRational`] built from
//! scratch (no external bignum dependency is sanctioned for this project).
//!
//! Representation: little-endian `u32` limbs with `u64` intermediates,
//! Knuth Algorithm D for division, binary GCD for rational normalization.
//! Sizes in this workload are modest (hundreds of limbs at most), so the
//! schoolbook algorithms are the right trade-off of simplicity vs speed.

mod bigint;
mod biguint;
mod dyadic;
mod fastnat;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use dyadic::{Dyadic, FastProb};
pub use fastnat::FastNat;
pub use rational::BigRational;

/// Parse error for the string forms accepted by the numeric types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumError {
    msg: String,
}

impl ParseNumError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for ParseNumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "number parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseNumError {}
