//! Signed arbitrary-precision integers.

use crate::{BigUint, ParseNumError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sign {
    Negative,
    Zero,
    Positive,
}

/// A signed arbitrary-precision integer.
///
/// Invariant: `mag` is zero iff `sign == Sign::Zero`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(from = "RawBigInt")]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

/// Deserialization shadow: renormalizes the zero representation so the
/// `mag == 0 ⇔ sign == Zero` invariant cannot be bypassed through serde.
#[derive(Deserialize)]
struct RawBigInt {
    sign: Sign,
    mag: BigUint,
}

impl From<RawBigInt> for BigInt {
    fn from(raw: RawBigInt) -> Self {
        if raw.mag.is_zero() {
            BigInt::zero()
        } else if raw.sign == Sign::Zero {
            BigInt {
                sign: Sign::Positive,
                mag: raw.mag,
            }
        } else {
            BigInt {
                sign: raw.sign,
                mag: raw.mag,
            }
        }
    }
}

impl BigInt {
    /// The value 0.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            mag: BigUint::zero(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigInt {
            sign: Sign::Positive,
            mag: BigUint::one(),
        }
    }

    /// Construct from sign and magnitude, normalizing zero.
    pub fn from_sign_mag(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            assert!(sign != Sign::Zero, "nonzero magnitude with Sign::Zero");
            BigInt { sign, mag }
        }
    }

    /// Construct from an `i64`.
    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt {
                sign: Sign::Positive,
                mag: BigUint::from_u64(v as u64),
            },
            Ordering::Less => BigInt {
                sign: Sign::Negative,
                mag: BigUint::from_u64(v.unsigned_abs()),
            },
        }
    }

    /// Construct a non-negative value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        BigInt::from_biguint(BigUint::from_u64(v))
    }

    /// Construct a non-negative value from a [`BigUint`].
    pub fn from_biguint(mag: BigUint) -> Self {
        if mag.is_zero() {
            BigInt::zero()
        } else {
            BigInt {
                sign: Sign::Positive,
                mag,
            }
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// Consume into the magnitude, discarding the sign.
    pub fn into_magnitude(self) -> BigUint {
        self.mag
    }

    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_biguint(self.mag.clone())
    }

    /// Convert to `i64` if it fits.
    pub fn to_i64(&self) -> Option<i64> {
        let m = self.mag.to_u64()?;
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => i64::try_from(m).ok(),
            Sign::Negative => {
                if m == i64::MIN.unsigned_abs() {
                    Some(i64::MIN)
                } else {
                    i64::try_from(m).ok().map(|v| -v)
                }
            }
        }
    }

    /// Best-effort conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.mag.to_f64();
        match self.sign {
            Sign::Negative => -m,
            _ => m,
        }
    }

    pub fn add_ref(&self, other: &BigInt) -> BigInt {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt {
                sign: a,
                mag: self.mag.add_ref(&other.mag),
            },
            _ => {
                // Opposite signs: subtract smaller magnitude from larger.
                match self.mag.cmp(&other.mag) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => BigInt {
                        sign: self.sign,
                        mag: self.mag.checked_sub(&other.mag).unwrap(),
                    },
                    Ordering::Less => BigInt {
                        sign: other.sign,
                        mag: other.mag.checked_sub(&self.mag).unwrap(),
                    },
                }
            }
        }
    }

    pub fn neg_ref(&self) -> BigInt {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        BigInt {
            sign,
            mag: self.mag.clone(),
        }
    }

    pub fn sub_ref(&self, other: &BigInt) -> BigInt {
        self.add_ref(&other.neg_ref())
    }

    pub fn mul_ref(&self, other: &BigInt) -> BigInt {
        let sign = match (self.sign, other.sign) {
            (Sign::Zero, _) | (_, Sign::Zero) => return BigInt::zero(),
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        BigInt {
            sign,
            mag: self.mag.mul_ref(&other.mag),
        }
    }

    /// Parse a decimal string with optional leading `-` or `+`.
    pub fn parse_decimal(s: &str) -> Result<BigInt, ParseNumError> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Negative, rest),
            None => (Sign::Positive, s.strip_prefix('+').unwrap_or(s)),
        };
        let mag = BigUint::parse_decimal(digits)?;
        if mag.is_zero() {
            Ok(BigInt::zero())
        } else {
            Ok(BigInt { sign, mag })
        }
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Negative => -1,
                Sign::Zero => 0,
                Sign::Positive => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Zero => Ordering::Equal,
                Sign::Positive => self.mag.cmp(&other.mag),
                Sign::Negative => other.mag.cmp(&self.mag),
            },
            ord => ord,
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl std::str::FromStr for BigInt {
    type Err = ParseNumError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigInt::parse_decimal(s)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from_i64(v)
    }
}

impl From<BigUint> for BigInt {
    fn from(v: BigUint) -> Self {
        BigInt::from_biguint(v)
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(self, rhs: BigInt) -> BigInt {
        self.add_ref(&rhs)
    }
}

impl<'a> Add<&'a BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &'a BigInt) -> BigInt {
        self.add_ref(rhs)
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(self, rhs: BigInt) -> BigInt {
        self.sub_ref(&rhs)
    }
}

impl<'a> Sub<&'a BigInt> for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &'a BigInt) -> BigInt {
        self.sub_ref(rhs)
    }
}

impl Mul for BigInt {
    type Output = BigInt;
    fn mul(self, rhs: BigInt) -> BigInt {
        self.mul_ref(&rhs)
    }
}

impl<'a> Mul<&'a BigInt> for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &'a BigInt) -> BigInt {
        self.mul_ref(rhs)
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        self.neg_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> BigInt {
        BigInt::from_i64(v)
    }

    #[test]
    fn sign_normalization() {
        assert!(i(0).is_zero());
        assert_eq!(
            BigInt::from_sign_mag(Sign::Negative, BigUint::zero()),
            BigInt::zero()
        );
    }

    #[test]
    fn add_mixed_signs() {
        assert_eq!(i(5) + i(-3), i(2));
        assert_eq!(i(3) + i(-5), i(-2));
        assert_eq!(i(-5) + i(-3), i(-8));
        assert_eq!(i(5) + i(-5), i(0));
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(i(5) - i(8), i(-3));
        assert_eq!(-i(7), i(-7));
        assert_eq!(-i(0), i(0));
        assert_eq!(i(-4) - i(-4), i(0));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(i(3) * i(-4), i(-12));
        assert_eq!(i(-3) * i(-4), i(12));
        assert_eq!(i(0) * i(-4), i(0));
    }

    #[test]
    fn ordering_across_signs() {
        assert!(i(-5) < i(-3));
        assert!(i(-1) < i(0));
        assert!(i(0) < i(1));
        assert!(i(3) < i(5));
    }

    #[test]
    fn display_parse() {
        assert_eq!(i(-123).to_string(), "-123");
        assert_eq!(BigInt::parse_decimal("-456").unwrap(), i(-456));
        assert_eq!(BigInt::parse_decimal("+7").unwrap(), i(7));
        assert_eq!(BigInt::parse_decimal("-0").unwrap(), i(0));
    }

    #[test]
    fn i64_roundtrip_extremes() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX] {
            assert_eq!(BigInt::from_i64(v).to_i64(), Some(v));
        }
    }
}
