//! Exact rational numbers.

use crate::{BigInt, BigUint, ParseNumError, Sign};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `numer / denom`.
///
/// Invariants: `denom > 0`, and `gcd(|numer|, denom) == 1` (with the
/// canonical zero being `0/1`). All operations re-normalize, so `Eq` and
/// `Hash` are structural equality of values.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "RawBigRational")]
pub struct BigRational {
    numer: BigInt,
    denom: BigUint,
}

/// Deserialization shadow: rejects a zero denominator and renormalizes,
/// so the `denom > 0` / gcd-reduced invariants cannot be bypassed
/// through serde.
#[derive(Deserialize)]
struct RawBigRational {
    numer: BigInt,
    denom: BigUint,
}

impl TryFrom<RawBigRational> for BigRational {
    type Error = String;

    fn try_from(raw: RawBigRational) -> Result<Self, String> {
        if raw.denom.is_zero() {
            return Err("rational with zero denominator".to_string());
        }
        Ok(BigRational::new_raw(raw.numer, raw.denom))
    }
}

impl BigRational {
    /// The value 0.
    pub fn zero() -> Self {
        BigRational {
            numer: BigInt::zero(),
            denom: BigUint::one(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigRational {
            numer: BigInt::one(),
            denom: BigUint::one(),
        }
    }

    /// Construct `numer / denom`, normalizing.
    ///
    /// # Panics
    /// Panics if `denom` is zero.
    pub fn new(numer: BigInt, denom: BigInt) -> Self {
        assert!(!denom.is_zero(), "rational with zero denominator");
        let sign_flip = denom.is_negative();
        let n = if sign_flip { numer.neg_ref() } else { numer };
        Self::new_raw(n, denom.into_magnitude())
    }

    fn new_raw(numer: BigInt, denom: BigUint) -> Self {
        if numer.is_zero() {
            return BigRational::zero();
        }
        let g = numer.magnitude().gcd(&denom);
        if g.is_one() {
            BigRational { numer, denom }
        } else {
            let (nq, nr) = numer.magnitude().div_rem(&g);
            debug_assert!(nr.is_zero());
            let (dq, dr) = denom.div_rem(&g);
            debug_assert!(dr.is_zero());
            BigRational {
                numer: BigInt::from_sign_mag(numer.sign(), nq),
                denom: dq,
            }
        }
    }

    /// Construct from machine integers.
    pub fn from_ratio(numer: i64, denom: u64) -> Self {
        assert!(denom != 0, "rational with zero denominator");
        Self::new_raw(BigInt::from_i64(numer), BigUint::from_u64(denom))
    }

    /// Construct `numer / denom` from machine words, reduced by a word
    /// gcd before any limb is allocated.
    ///
    /// # Panics
    /// Panics if `denom` is zero.
    pub fn from_u128_ratio(numer: u128, denom: u128) -> Self {
        assert!(denom != 0, "rational with zero denominator");
        if numer == 0 {
            return BigRational::zero();
        }
        let g = gcd_u128(numer, denom);
        BigRational {
            numer: BigInt::from_biguint(BigUint::from_u128(numer / g)),
            denom: BigUint::from_u128(denom / g),
        }
    }

    /// Construct the integer `v`.
    pub fn from_int(v: i64) -> Self {
        BigRational {
            numer: BigInt::from_i64(v),
            denom: BigUint::one(),
        }
    }

    /// Numerator (signed, normalized).
    pub fn numer(&self) -> &BigInt {
        &self.numer
    }

    /// Denominator (positive, normalized).
    pub fn denom(&self) -> &BigUint {
        &self.denom
    }

    pub fn is_zero(&self) -> bool {
        self.numer.is_zero()
    }

    pub fn is_one(&self) -> bool {
        self.denom.is_one() && self.numer == BigInt::one()
    }

    pub fn is_negative(&self) -> bool {
        self.numer.is_negative()
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.denom.is_one()
    }

    /// True iff the denominator is a power of two (integers count as dyadic).
    ///
    /// Theorem 5.3 of the paper splits on exactly this property: dyadic
    /// probabilities reduce to #DNF directly, general rationals need the
    /// legal/illegal-assignment accounting.
    pub fn is_dyadic(&self) -> bool {
        self.denom.is_one() || self.denom.is_power_of_two()
    }

    /// True iff `0 <= self <= 1`.
    pub fn is_probability(&self) -> bool {
        !self.is_negative() && self.numer.magnitude() <= &self.denom
    }

    pub fn add_ref(&self, other: &BigRational) -> BigRational {
        // a/b + c/d with g = gcd(b, d) (Knuth 4.5.1): t = a(d/g) + c(b/g)
        // over (b/g)d, where only gcd(t, g) can still divide both.
        let g = self.denom.gcd(&other.denom);
        let b_g = div_exact(&self.denom, &g);
        let d_g = div_exact(&other.denom, &g);
        let t = self
            .numer
            .mul_ref(&BigInt::from_biguint(d_g.into_owned()))
            .add_ref(
                &other
                    .numer
                    .mul_ref(&BigInt::from_biguint(b_g.clone().into_owned())),
            );
        if t.is_zero() {
            return BigRational::zero();
        }
        let g2 = t.magnitude().gcd(&g);
        let numer = div_exact(t.magnitude(), &g2).into_owned();
        let denom = b_g.mul_ref(&div_exact(&other.denom, &g2));
        BigRational {
            numer: BigInt::from_sign_mag(t.sign(), numer),
            denom,
        }
    }

    pub fn sub_ref(&self, other: &BigRational) -> BigRational {
        self.add_ref(&other.neg_ref())
    }

    pub fn mul_ref(&self, other: &BigRational) -> BigRational {
        Self::mul_parts(&self.numer, &self.denom, &other.numer, &other.denom)
    }

    /// `self / other`.
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn div_ref(&self, other: &BigRational) -> BigRational {
        assert!(!other.is_zero(), "rational division by zero");
        let reciprocal = BigInt::from_sign_mag(other.numer.sign(), other.denom.clone());
        Self::mul_parts(
            &self.numer,
            &self.denom,
            &reciprocal,
            other.numer.magnitude(),
        )
    }

    /// `(a/b)·(c/d)` for `a/b` in lowest terms and `gcd(c, d) = 1`,
    /// `d > 0`. Cross-cancelling `g1 = gcd(a, d)` and `g2 = gcd(c, b)`
    /// leaves the product in lowest terms, with no gcd of the products.
    fn mul_parts(a: &BigInt, b: &BigUint, c: &BigInt, d: &BigUint) -> BigRational {
        let sign = match (a.sign(), c.sign()) {
            (Sign::Zero, _) | (_, Sign::Zero) => return BigRational::zero(),
            (x, y) if x == y => Sign::Positive,
            _ => Sign::Negative,
        };
        let g1 = a.magnitude().gcd(d);
        let g2 = c.magnitude().gcd(b);
        let numer = div_exact(a.magnitude(), &g1).mul_ref(&div_exact(c.magnitude(), &g2));
        let denom = div_exact(b, &g2).mul_ref(&div_exact(d, &g1));
        BigRational {
            numer: BigInt::from_sign_mag(sign, numer),
            denom,
        }
    }

    pub fn neg_ref(&self) -> BigRational {
        BigRational {
            numer: self.numer.neg_ref(),
            denom: self.denom.clone(),
        }
    }

    /// `1 - self`. Ubiquitous for flipping `μ` to `ν` and back.
    pub fn one_minus(&self) -> BigRational {
        // (d − n)/d is in lowest terms: gcd(d − n, d) = gcd(n, d) = 1.
        let numer = BigInt::from_biguint(self.denom.clone()).sub_ref(&self.numer);
        if numer.is_zero() {
            return BigRational::zero();
        }
        BigRational {
            numer,
            denom: self.denom.clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigRational {
        BigRational {
            numer: self.numer.abs(),
            denom: self.denom.clone(),
        }
    }

    /// `self^exp` for a signed exponent (negative exponent inverts).
    pub fn pow(&self, exp: i64) -> BigRational {
        if exp == 0 {
            return BigRational::one();
        }
        let e = exp.unsigned_abs();
        let n_mag = self.numer.magnitude().pow(e);
        let d = self.denom.pow(e);
        let sign = if self.numer.is_negative() && e % 2 == 1 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        let base = if self.numer.is_zero() {
            assert!(exp > 0, "0^negative is undefined");
            return BigRational::zero();
        } else {
            BigRational {
                numer: BigInt::from_sign_mag(sign, n_mag),
                denom: d,
            }
        };
        if exp > 0 {
            base
        } else {
            BigRational::one().div_ref(&base)
        }
    }

    /// Approximate as `f64` (exact for small values; best-effort for huge).
    pub fn to_f64(&self) -> f64 {
        if self.numer.is_zero() {
            return 0.0;
        }
        let nbits = self.numer.magnitude().bit_length() as i64;
        let dbits = self.denom.bit_length() as i64;
        // Scale both to ~64 significant bits to avoid overflow/underflow.
        let nshift = (nbits - 63).max(0) as u64;
        let dshift = (dbits - 63).max(0) as u64;
        let n = self.numer.magnitude().shr_bits(nshift).to_u64().unwrap() as f64;
        let d = self.denom.shr_bits(dshift).to_u64().unwrap() as f64;
        let mag = n / d * (2f64).powi(nshift as i32 - dshift as i32);
        if self.numer.is_negative() {
            -mag
        } else {
            mag
        }
    }

    /// Parse `"p"`, `"-p"`, `"p/q"` or `"-p/q"` (decimal).
    pub fn parse(s: &str) -> Result<BigRational, ParseNumError> {
        match s.split_once('/') {
            None => Ok(BigRational {
                numer: BigInt::parse_decimal(s.trim())?,
                denom: BigUint::one(),
            }),
            Some((n, d)) => {
                let numer = BigInt::parse_decimal(n.trim())?;
                let denom = BigUint::parse_decimal(d.trim())?;
                if denom.is_zero() {
                    return Err(ParseNumError::new("zero denominator"));
                }
                Ok(Self::new_raw(numer, denom))
            }
        }
    }

    /// Floor of the value as a `BigInt`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.numer.magnitude().div_rem(&self.denom);
        match self.numer.sign() {
            Sign::Zero => BigInt::zero(),
            Sign::Positive => BigInt::from_biguint(q),
            Sign::Negative => {
                let base = BigInt::from_biguint(q).neg_ref();
                if r.is_zero() {
                    base
                } else {
                    base.sub_ref(&BigInt::one())
                }
            }
        }
    }

    /// Ceiling of the value as a `BigInt`.
    pub fn ceil(&self) -> BigInt {
        self.neg_ref().floor().neg_ref()
    }
}

/// `x / g` for a divisor `g` of `x`, borrowing `x` when `g = 1`.
fn div_exact<'a>(x: &'a BigUint, g: &BigUint) -> Cow<'a, BigUint> {
    if g.is_one() {
        Cow::Borrowed(x)
    } else {
        let (q, r) = x.div_rem(g);
        debug_assert!(r.is_zero());
        Cow::Owned(q)
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        let ad = self
            .numer
            .mul_ref(&BigInt::from_biguint(other.denom.clone()));
        let cb = other
            .numer
            .mul_ref(&BigInt::from_biguint(self.denom.clone()));
        ad.cmp(&cb)
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom.is_one() {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

impl std::str::FromStr for BigRational {
    type Err = ParseNumError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigRational::parse(s)
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from_int(v)
    }
}

macro_rules! rat_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl $trait for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                self.$inner(&rhs)
            }
        }
        impl<'a> $trait<&'a BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, rhs: &'a BigRational) -> BigRational {
                self.$inner(rhs)
            }
        }
    };
}

rat_binop!(Add, add, add_ref);
rat_binop!(Sub, sub, sub_ref);
rat_binop!(Mul, mul, mul_ref);
rat_binop!(Div, div, div_ref);

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        self.neg_ref()
    }
}

/// Binary gcd of two nonzero words.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    let common = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << common;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-6, 9), r(-2, 3));
        assert_eq!(r(0, 7), BigRational::zero());
        assert_eq!(r(1, 2).denom(), &BigUint::from_u32(2));
        let neg_den = BigRational::new(BigInt::from_i64(3), BigInt::from_i64(-6));
        assert_eq!(neg_den, r(-1, 2));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(r(1, 2) / r(-1, 4), r(-2, 1));
    }

    #[test]
    fn from_u128_ratio_reduces_like_from_ratio() {
        for (n, d) in [(0u128, 5u128), (6, 4), (7, 7), (12, 18), (1 << 70, 3 << 69)] {
            let expected = BigRational::new(
                BigInt::from_biguint(BigUint::from_u128(n)),
                BigInt::from_biguint(BigUint::from_u128(d)),
            );
            assert_eq!(BigRational::from_u128_ratio(n, d), expected, "{n}/{d}");
        }
    }

    #[test]
    fn one_minus() {
        assert_eq!(r(1, 3).one_minus(), r(2, 3));
        assert_eq!(BigRational::zero().one_minus(), BigRational::one());
        assert_eq!(r(1, 3).one_minus().one_minus(), r(1, 3));
    }

    #[test]
    fn comparison() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == BigRational::one());
        assert!(r(2, 3) <= r(2, 3));
    }

    #[test]
    fn dyadic_detection() {
        assert!(r(3, 8).is_dyadic());
        assert!(r(1, 1).is_dyadic());
        assert!(r(5, 1).is_dyadic());
        assert!(!r(1, 3).is_dyadic());
        assert!(!r(5, 12).is_dyadic());
        assert!(r(1, 1024).is_dyadic());
    }

    #[test]
    fn probability_range() {
        assert!(r(0, 1).is_probability());
        assert!(r(1, 1).is_probability());
        assert!(r(1, 2).is_probability());
        assert!(!r(-1, 2).is_probability());
        assert!(!r(3, 2).is_probability());
    }

    #[test]
    fn pow() {
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(0), BigRational::one());
        assert_eq!(r(2, 3).pow(-1), r(3, 2));
        assert_eq!(r(-1, 2).pow(2), r(1, 4));
        assert_eq!(r(-1, 2).pow(3), r(-1, 8));
        assert_eq!(BigRational::zero().pow(5), BigRational::zero());
    }

    #[test]
    fn to_f64_accuracy() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(r(-7, 2).to_f64(), -3.5);
        assert_eq!(BigRational::zero().to_f64(), 0.0);
        // Huge numerator/denominator ratio still finite and ~1.
        let big = BigUint::from_u32(3).pow(200);
        let x = BigRational::new(BigInt::from_biguint(big.clone()), BigInt::from_biguint(big));
        assert_eq!(x.to_f64(), 1.0);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0", "1", "-3", "1/2", "-7/12", "355/113"] {
            let v = BigRational::parse(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert_eq!(BigRational::parse("2/4").unwrap().to_string(), "1/2");
        assert!(BigRational::parse("1/0").is_err());
        assert!(BigRational::parse("x/2").is_err());
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from_i64(3));
        assert_eq!(r(7, 2).ceil(), BigInt::from_i64(4));
        assert_eq!(r(-7, 2).floor(), BigInt::from_i64(-4));
        assert_eq!(r(-7, 2).ceil(), BigInt::from_i64(-3));
        assert_eq!(r(6, 2).floor(), BigInt::from_i64(3));
        assert_eq!(r(6, 2).ceil(), BigInt::from_i64(3));
        assert_eq!(BigRational::zero().floor(), BigInt::zero());
    }

    #[test]
    fn product_of_many_probabilities_stays_exact() {
        // The workload that motivates exact arithmetic: a product of many
        // small rationals that would underflow f64 multiplication chains.
        let mut acc = BigRational::one();
        for i in 1..=200u64 {
            acc = acc.mul_ref(&BigRational::from_ratio(1, i + 1));
        }
        // acc = 1/201!
        assert!(acc > BigRational::zero());
        assert!(acc.numer() == &BigInt::one());
    }
}
