//! [`FastNat`]: an exact natural number on a `u128` fast path.

use crate::BigUint;

/// An exact natural number that lives in a `u128` while it fits and
/// promotes to [`BigUint`] the moment an operation overflows — the
/// integer counterpart of [`crate::FastProb`]. A result that fits again
/// drops back to `u128`. Both representations are exact, so
/// [`FastNat::to_biguint`] is bit-identical to an all-`BigUint`
/// computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastNat {
    Small(u128),
    Big(BigUint),
}

impl FastNat {
    pub fn zero() -> Self {
        FastNat::Small(0)
    }

    pub fn one() -> Self {
        FastNat::Small(1)
    }

    /// Wrap a [`BigUint`], choosing `u128` when it fits.
    pub fn from_biguint(v: BigUint) -> Self {
        match v.to_u128() {
            Some(s) => FastNat::Small(s),
            None => FastNat::Big(v),
        }
    }

    /// Whether the value is on the `u128` fast path.
    pub fn is_small(&self) -> bool {
        matches!(self, FastNat::Small(_))
    }

    /// Exact conversion to [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        match self {
            FastNat::Small(s) => BigUint::from_u128(*s),
            FastNat::Big(b) => b.clone(),
        }
    }

    /// `self += other`, promoting on overflow.
    pub fn add_assign(&mut self, other: &FastNat) {
        if let (FastNat::Small(a), FastNat::Small(b)) = (&*self, other) {
            if let Some(s) = a.checked_add(*b) {
                *self = FastNat::Small(s);
                return;
            }
        }
        *self = FastNat::from_biguint(self.to_biguint().add_ref(&other.to_biguint()));
    }

    /// Exact product, promoting on overflow.
    pub fn mul(&self, other: &FastNat) -> FastNat {
        if let (FastNat::Small(a), FastNat::Small(b)) = (self, other) {
            if let Some(p) = a.checked_mul(*b) {
                return FastNat::Small(p);
            }
        }
        FastNat::from_biguint(self.to_biguint().mul_ref(&other.to_biguint()))
    }

    /// The quotient `self / divisor` of an exact division.
    ///
    /// # Panics
    /// Panics (in debug) if `divisor` does not divide `self`.
    pub fn div_exact(&self, divisor: &FastNat) -> FastNat {
        if let (FastNat::Small(a), FastNat::Small(b)) = (self, divisor) {
            debug_assert_eq!(a % b, 0, "inexact division");
            return FastNat::Small(a / b);
        }
        let (q, r) = self.to_biguint().div_rem(&divisor.to_biguint());
        debug_assert!(r.is_zero(), "inexact division");
        FastNat::from_biguint(q)
    }
}

impl Default for FastNat {
    fn default() -> Self {
        FastNat::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotes_on_overflow_and_drops_back() {
        let big = FastNat::Small(u128::MAX);
        let two = FastNat::Small(2);
        let doubled = big.mul(&two);
        assert!(!doubled.is_small());
        assert_eq!(
            doubled.to_biguint(),
            BigUint::from_u128(u128::MAX).mul_ref(&BigUint::from_u32(2))
        );
        let back = doubled.div_exact(&two);
        assert_eq!(back, FastNat::Small(u128::MAX));

        let mut sum = FastNat::Small(u128::MAX);
        sum.add_assign(&FastNat::one());
        assert_eq!(
            sum.to_biguint(),
            BigUint::from_u128(u128::MAX).add_ref(&BigUint::one())
        );
    }

    #[test]
    fn from_biguint_picks_the_small_form() {
        assert!(FastNat::from_biguint(BigUint::from_u64(7)).is_small());
        let huge = BigUint::from_u128(u128::MAX).mul_ref(&BigUint::from_u32(3));
        assert_eq!(FastNat::from_biguint(huge.clone()).to_biguint(), huge);
    }
}
