//! Unsigned arbitrary-precision integers.

use crate::ParseNumError;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, BitAnd, Div, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};

/// An unsigned arbitrary-precision integer.
///
/// Invariant: `limbs` is little-endian with no trailing zero limbs, so the
/// canonical zero is the empty limb vector. All public constructors and
/// operations maintain this invariant, which makes `Eq`/`Hash` structural.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(from = "RawBigUint")]
pub struct BigUint {
    limbs: Vec<u32>,
}

/// Deserialization shadow: accepts any limb vector and canonicalizes
/// (trims trailing zeros) so the no-trailing-zeros invariant cannot be
/// bypassed through serde.
#[derive(Deserialize)]
struct RawBigUint {
    limbs: Vec<u32>,
}

impl From<RawBigUint> for BigUint {
    fn from(raw: RawBigUint) -> Self {
        let mut limbs = raw.limbs;
        trim(&mut limbs);
        BigUint { limbs }
    }
}

const BASE_BITS: u32 = 32;

/// Operand size (in limbs) above which multiplication switches to
/// Karatsuba. Chosen empirically; below this, schoolbook's cache
/// behaviour wins.
const KARATSUBA_THRESHOLD: usize = 32;

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a primitive.
    pub fn from_u64(v: u64) -> Self {
        let lo = (v & 0xffff_ffff) as u32;
        let hi = (v >> 32) as u32;
        let mut limbs = vec![lo, hi];
        trim(&mut limbs);
        BigUint { limbs }
    }

    /// Construct from a primitive.
    pub fn from_u32(v: u32) -> Self {
        let mut limbs = vec![v];
        trim(&mut limbs);
        BigUint { limbs }
    }

    /// Construct from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = vec![
            (v & 0xffff_ffff) as u32,
            ((v >> 32) & 0xffff_ffff) as u32,
            ((v >> 64) & 0xffff_ffff) as u32,
            ((v >> 96) & 0xffff_ffff) as u32,
        ];
        trim(&mut limbs);
        BigUint { limbs }
    }

    /// Convert to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// Convert to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v: u128 = 0;
        for (i, &l) in self.limbs.iter().enumerate() {
            v |= (l as u128) << (32 * i);
        }
        Some(v)
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits (`0` for the value 0).
    pub fn bit_length(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BASE_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    /// The `i`-th bit (little-endian), `false` beyond the top.
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / BASE_BITS as u64) as usize;
        let off = (i % BASE_BITS as u64) as u32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// True iff the value is a power of two (requires value > 0).
    pub fn is_power_of_two(&self) -> bool {
        if self.is_zero() {
            return false;
        }
        let mut seen_nonzero = false;
        for &l in &self.limbs {
            if l != 0 {
                if seen_nonzero || !l.is_power_of_two() {
                    return false;
                }
                seen_nonzero = true;
            }
        }
        // Top limb is nonzero by the trim invariant, so the single nonzero
        // limb (if any) must be the power-of-two one.
        seen_nonzero
    }

    /// Number of trailing zero bits; `None` for the value 0.
    pub fn trailing_zeros(&self) -> Option<u64> {
        limbs_trailing_zeros(&self.limbs)
    }

    /// `self + other`.
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry: u64 = 0;
        for (i, &limb) in longer.iter().enumerate() {
            let a = limb as u64;
            let b = shorter.get(i).copied().unwrap_or(0) as u64;
            let s = a + b + carry;
            out.push((s & 0xffff_ffff) as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        trim(&mut out);
        BigUint { limbs: out }
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = self.limbs.clone();
        sub_in_place(&mut out, &other.limbs);
        Some(BigUint { limbs: out })
    }

    /// `self * other` — schoolbook below `KARATSUBA_THRESHOLD` limbs,
    /// Karatsuba above it.
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len().min(other.limbs.len()) >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        trim(&mut out);
        BigUint { limbs: out }
    }

    /// Karatsuba: split both operands at `m` limbs; three recursive
    /// multiplications instead of four. `z1 = (a0+a1)(b0+b1) − z0 − z2`
    /// is non-negative, so the `checked_sub`s cannot fail.
    fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let m = self.limbs.len().min(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at_limb(m);
        let (b0, b1) = other.split_at_limb(m);
        let z0 = a0.mul_ref(&b0);
        let z2 = a1.mul_ref(&b1);
        let z1 = a0
            .add_ref(&a1)
            .mul_ref(&b0.add_ref(&b1))
            .checked_sub(&z0)
            .expect("Karatsuba middle term is non-negative")
            .checked_sub(&z2)
            .expect("Karatsuba middle term is non-negative");
        // z2·B^{2m} + z1·B^m + z0 where B = 2^32.
        z2.shl_bits(64 * m as u64)
            .add_ref(&z1.shl_bits(32 * m as u64))
            .add_ref(&z0)
    }

    /// Split into (low `m` limbs, the rest).
    fn split_at_limb(&self, m: usize) -> (BigUint, BigUint) {
        if m >= self.limbs.len() {
            return (self.clone(), BigUint::zero());
        }
        let mut low = self.limbs[..m].to_vec();
        trim(&mut low);
        let mut high = self.limbs[m..].to_vec();
        trim(&mut high);
        (BigUint { limbs: low }, BigUint { limbs: high })
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero BigUint");
        if let (Some(a), Some(d)) = (self.to_u64(), divisor.to_u64()) {
            return (BigUint::from_u64(a / d), BigUint::from_u64(a % d));
        }
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u32(divisor.limbs[0]);
            return (q, BigUint::from_u32(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Fast path: divide by a single `u32`.
    pub fn div_rem_u32(&self, divisor: u32) -> (BigUint, u32) {
        assert!(divisor != 0, "division by zero u32");
        let d = divisor as u64;
        let mut out = vec![0u32; self.limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | self.limbs[i] as u64;
            out[i] = (cur / d) as u32;
            rem = cur % d;
        }
        trim(&mut out);
        (BigUint { limbs: out }, rem as u32)
    }

    /// Knuth Algorithm D. Preconditions: divisor has ≥ 2 limbs, self > divisor.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros();
        let v = divisor.shl_bits(shift as u64);
        let mut u = self.shl_bits(shift as u64).limbs;
        let n = v.limbs.len();
        let m = u.len() - n; // u.len() >= n since self > divisor
        u.push(0); // extra top limb for the algorithm
        let mut q = vec![0u32; m + 1];
        let vtop = v.limbs[n - 1] as u64;
        let vsec = v.limbs[n - 2] as u64;
        for j in (0..=m).rev() {
            // Estimate q̂ from the top two limbs of the current remainder.
            let num = ((u[j + n] as u64) << 32) | u[j + n - 1] as u64;
            let mut qhat = num / vtop;
            let mut rhat = num % vtop;
            while qhat >= 1 << 32 || qhat * vsec > ((rhat << 32) | u[j + n - 2] as u64) {
                qhat -= 1;
                rhat += vtop;
                if rhat >= 1 << 32 {
                    break;
                }
            }
            // Multiply-and-subtract u[j..j+n+1] -= qhat * v.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u64 + carry;
                carry = p >> 32;
                let mut d = u[j + i] as i64 - (p & 0xffff_ffff) as i64 - borrow;
                if d < 0 {
                    d += 1 << 32;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                u[j + i] = d as u32;
            }
            let mut d = u[j + n] as i64 - carry as i64 - borrow;
            if d < 0 {
                // q̂ was one too large: add the divisor back.
                d += 1 << 32;
                u[j + n] = d as u32;
                qhat -= 1;
                let mut carry2: u64 = 0;
                for i in 0..n {
                    let s = u[j + i] as u64 + v.limbs[i] as u64 + carry2;
                    u[j + i] = (s & 0xffff_ffff) as u32;
                    carry2 = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u32);
            } else {
                u[j + n] = d as u32;
            }
            q[j] = qhat as u32;
        }
        trim(&mut q);
        let mut r = u;
        r.truncate(n);
        trim(&mut r);
        let rem = BigUint { limbs: r }.shr_bits(shift as u64);
        (BigUint { limbs: q }, rem)
    }

    /// Left shift by an arbitrary number of bits.
    pub fn shl_bits(&self, bits: u64) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / BASE_BITS as u64) as usize;
        let bit_shift = (bits % BASE_BITS as u64) as u32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        trim(&mut out);
        BigUint { limbs: out }
    }

    /// Right shift by an arbitrary number of bits.
    pub fn shr_bits(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / BASE_BITS as u64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out = self.limbs[limb_shift..].to_vec();
        shr_in_place(&mut out, bits % BASE_BITS as u64);
        BigUint { limbs: out }
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u64) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// Greatest common divisor (binary / Stein algorithm — no division).
    ///
    /// Narrow then wide: operands that fit a `u64` never touch the limb
    /// code; once one side fits, one remainder pass over the other's
    /// limbs (`gcd(a, b) = gcd(b, a mod b)`) brings both into a `u64`;
    /// only two wide operands run the limb loop, in place.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        match (self.to_u64(), other.to_u64()) {
            (Some(a), Some(b)) => return BigUint::from_u64(gcd_u64(a, b)),
            (Some(0), None) => return other.clone(),
            (None, Some(0)) => return self.clone(),
            (Some(a), None) => return BigUint::from_u64(gcd_u64(a, rem_u64(&other.limbs, a))),
            (None, Some(b)) => return BigUint::from_u64(gcd_u64(b, rem_u64(&self.limbs, b))),
            (None, None) => {}
        }
        let za = self.trailing_zeros().expect("wide operand is nonzero");
        let zb = other.trailing_zeros().expect("wide operand is nonzero");
        let common = za.min(zb);
        let mut a = self.shr_bits(za).limbs;
        let mut b = other.shr_bits(zb).limbs;
        // Both odd now; keep `a >= b` and replace `a` by the odd part
        // of `a - b` until the two meet or `b` fits a `u64`.
        loop {
            if cmp_limbs(&a, &b) == Ordering::Less {
                std::mem::swap(&mut a, &mut b);
            }
            if b.len() <= 2 {
                let b = limbs_u64(&b);
                return BigUint::from_u64(gcd_u64(b, rem_u64(&a, b))).shl_bits(common);
            }
            if a == b {
                return BigUint { limbs: b }.shl_bits(common);
            }
            sub_in_place(&mut a, &b);
            let tz = limbs_trailing_zeros(&a).expect("odd minus smaller odd is nonzero");
            shr_in_place(&mut a, tz);
        }
    }

    /// Least common multiple. `lcm(0, x) = 0`.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        let (q, r) = self.div_rem(&g);
        debug_assert!(r.is_zero());
        q.mul_ref(other)
    }

    /// Parse a decimal string (no sign).
    ///
    /// Narrow then wide: digits accumulate in a `u64` while the value
    /// fits, and only the digits past that point run the limb code.
    pub fn parse_decimal(s: &str) -> Result<BigUint, ParseNumError> {
        if s.is_empty() {
            return Err(ParseNumError::new("empty string"));
        }
        let mut chars = s.chars();
        let mut small: u64 = 0;
        while let Some(c) = chars.next() {
            let d = decimal_digit(c)?;
            match small
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d)))
            {
                Some(v) => small = v,
                None => {
                    let ten = BigUint::from_u32(10);
                    let mut acc = BigUint::from_u64(small)
                        .mul_ref(&ten)
                        .add_ref(&BigUint::from_u32(d));
                    for c in chars {
                        let d = decimal_digit(c)?;
                        acc = acc.mul_ref(&ten).add_ref(&BigUint::from_u32(d));
                    }
                    return Ok(acc);
                }
            }
        }
        Ok(BigUint::from_u64(small))
    }

    /// Best-effort conversion to `f64` (may overflow to `inf` for huge values).
    pub fn to_f64(&self) -> f64 {
        let bits = self.bit_length();
        if bits <= 64 {
            return self.to_u64().unwrap() as f64;
        }
        // Take the top 64 bits and scale by the dropped exponent.
        let shift = bits - 64;
        let top = self.shr_bits(shift).to_u64().unwrap();
        (top as f64) * (2f64).powi(shift as i32)
    }
}

fn trim(limbs: &mut Vec<u32>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

/// Compare two trimmed limb vectors.
fn cmp_limbs(a: &[u32], b: &[u32]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a -= b` for trimmed limbs with `a >= b`.
fn sub_in_place(a: &mut Vec<u32>, b: &[u32]) {
    let mut borrow = false;
    for (i, l) in a.iter_mut().enumerate() {
        if i >= b.len() && !borrow {
            break;
        }
        let rhs = u64::from(b.get(i).copied().unwrap_or(0)) + u64::from(borrow);
        let (d, under) = u64::from(*l).overflowing_sub(rhs);
        *l = d as u32;
        borrow = under;
    }
    debug_assert!(!borrow, "sub_in_place needs a >= b");
    trim(a);
}

/// `a >>= bits` for trimmed limbs.
fn shr_in_place(a: &mut Vec<u32>, bits: u64) {
    let limb_shift = ((bits / BASE_BITS as u64) as usize).min(a.len());
    a.drain(..limb_shift);
    let bit_shift = (bits % BASE_BITS as u64) as u32;
    if bit_shift > 0 {
        let mut carry: u32 = 0;
        for l in a.iter_mut().rev() {
            let new = (*l >> bit_shift) | carry;
            carry = *l << (32 - bit_shift);
            *l = new;
        }
    }
    trim(a);
}

fn limbs_trailing_zeros(limbs: &[u32]) -> Option<u64> {
    let i = limbs.iter().position(|&l| l != 0)?;
    Some(i as u64 * BASE_BITS as u64 + u64::from(limbs[i].trailing_zeros()))
}

/// The value of at most two limbs.
fn limbs_u64(limbs: &[u32]) -> u64 {
    limbs
        .iter()
        .rev()
        .fold(0, |acc, &l| (acc << BASE_BITS) | u64::from(l))
}

/// `limbs mod m` for `m > 0`, in one pass from the top limb.
fn rem_u64(limbs: &[u32], m: u64) -> u64 {
    match u32::try_from(m) {
        Ok(m) => limbs
            .iter()
            .rev()
            .fold(0, |r, &l| ((r << BASE_BITS) | u64::from(l)) % u64::from(m)),
        Err(_) => limbs.iter().rev().fold(0, |r, &l| {
            (((u128::from(r) << BASE_BITS) | u128::from(l)) % u128::from(m)) as u64
        }),
    }
}

/// Binary gcd of two machine words; `gcd(0, x) = x`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
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

/// The value of a decimal digit, or the parse error naming it.
fn decimal_digit(c: char) -> Result<u32, ParseNumError> {
    c.to_digit(10)
        .ok_or_else(|| ParseNumError::new(format!("invalid digit {c:?}")))
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.limbs, &other.limbs)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.to_u64() {
            return write!(f, "{v}");
        }
        // Wide: peel 9 decimal digits at a time.
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u32(1_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        s.push_str(&chunks.pop().unwrap().to_string());
        while let Some(c) = chunks.pop() {
            s.push_str(&format!("{c:09}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({self})")
    }
}

impl std::str::FromStr for BigUint {
    type Err = ParseNumError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BigUint::parse_decimal(s)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_u32(v)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl $trait for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$inner(&rhs)
            }
        }
        impl<'a> $trait<&'a BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &'a BigUint) -> BigUint {
                self.$inner(rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Mul, mul, mul_ref);

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        self.checked_sub(&rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl<'a> Sub<&'a BigUint> for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &'a BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Div for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).0
    }
}

impl<'a> Div<&'a BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &'a BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).1
    }
}

impl<'a> Rem<&'a BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &'a BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_ref(rhs);
    }
}

impl SubAssign<&BigUint> for BigUint {
    fn sub_assign(&mut self, rhs: &BigUint) {
        *self = self
            .checked_sub(rhs)
            .expect("BigUint subtraction underflow");
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = self.mul_ref(rhs);
    }
}

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self.shr_bits(bits)
    }
}

impl BitAnd<u32> for &BigUint {
    type Output = u32;
    fn bitand(self, rhs: u32) -> u32 {
        self.limbs.first().copied().unwrap_or(0) & rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().to_u64(), Some(0));
        assert_eq!(BigUint::from_u64(0), BigUint::zero());
    }

    #[test]
    fn add_small() {
        assert_eq!(b(7) + b(8), b(15));
        assert_eq!(b(u64::MAX as u128) + b(1), b(u64::MAX as u128 + 1));
    }

    #[test]
    fn add_carries_across_limbs() {
        let x = b(0xffff_ffff_ffff_ffff_ffff_ffff_ffff_fffe);
        assert_eq!(x.add_ref(&b(1)), b(u128::MAX));
    }

    #[test]
    fn sub_basic() {
        assert_eq!(b(100) - b(58), b(42));
        assert_eq!(b(1 << 64) - b(1), b((1u128 << 64) - 1));
        assert_eq!(b(5).checked_sub(&b(6)), None);
        assert_eq!(b(5).checked_sub(&b(5)), Some(BigUint::zero()));
    }

    #[test]
    fn mul_basic() {
        assert_eq!(b(12345) * b(67890), b(12345 * 67890));
        assert_eq!(
            b(u64::MAX as u128).mul_ref(&b(u64::MAX as u128)),
            b((u64::MAX as u128) * (u64::MAX as u128))
        );
        assert_eq!(b(0) * b(55), b(0));
    }

    #[test]
    fn div_rem_single_limb() {
        let (q, r) = b(1_000_000_007).div_rem_u32(97);
        assert_eq!(q.to_u64(), Some(1_000_000_007 / 97));
        assert_eq!(r, (1_000_000_007 % 97) as u32);
    }

    #[test]
    fn div_rem_multi_limb() {
        let n = b(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        let d = b(0x0000_0000_ffff_ffff_ffff_ffff_0000_0001);
        let (q, r) = n.div_rem(&d);
        assert_eq!(q.mul_ref(&d).add_ref(&r), n);
        assert!(r < d);
    }

    #[test]
    fn div_rem_exercises_qhat_correction() {
        // Crafted so the initial q̂ estimate is too large.
        let n = BigUint::from_u128(0x8000_0000_0000_0000_0000_0000).shl_bits(32);
        let d = BigUint::from_u128(0x8000_0000_0000_0001);
        let (q, r) = n.div_rem(&d);
        assert_eq!(q.mul_ref(&d).add_ref(&r), n.shl_bits(0));
        assert!(r < d);
    }

    #[test]
    fn shifts_roundtrip() {
        let x = b(0xdead_beef_cafe_babe);
        assert_eq!(x.shl_bits(17).shr_bits(17), x);
        assert_eq!(x.shl_bits(64).shr_bits(64), x);
        assert_eq!(x.shr_bits(200), BigUint::zero());
    }

    #[test]
    fn pow_basic() {
        assert_eq!(b(2).pow(10), b(1024));
        assert_eq!(b(3).pow(0), b(1));
        assert_eq!(b(10).pow(30).to_string(), format!("1{}", "0".repeat(30)));
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(7).gcd(&b(13)), b(1));
        assert_eq!(b(4).lcm(&b(6)), b(12));
        assert_eq!(b(0).lcm(&b(6)), b(0));
        // Large coprime pair.
        let p = BigUint::parse_decimal("618970019642690137449562111").unwrap(); // 2^89-1
        let q = BigUint::parse_decimal("162259276829213363391578010288127").unwrap(); // 2^107-1
        assert_eq!(p.gcd(&q), BigUint::one());
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
        ] {
            let v = BigUint::parse_decimal(s).unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!(BigUint::parse_decimal("12x").is_err());
        assert!(BigUint::parse_decimal("").is_err());
    }

    #[test]
    fn ordering() {
        assert!(b(3) < b(5));
        assert!(b(1 << 80) > b(u64::MAX as u128));
        assert_eq!(b(42).cmp(&b(42)), Ordering::Equal);
    }

    #[test]
    fn bit_length_and_bits() {
        assert_eq!(BigUint::zero().bit_length(), 0);
        assert_eq!(b(1).bit_length(), 1);
        assert_eq!(b(255).bit_length(), 8);
        assert_eq!(b(256).bit_length(), 9);
        assert_eq!(b(1 << 100).bit_length(), 101);
        assert!(b(4).bit(2));
        assert!(!b(4).bit(1));
        assert!(!b(4).bit(500));
    }

    #[test]
    fn power_of_two_detection() {
        assert!(b(1).is_power_of_two());
        assert!(b(1 << 77).is_power_of_two());
        assert!(!b(3).is_power_of_two());
        assert!(!b(0).is_power_of_two());
        assert!(!b((1 << 40) + 4).is_power_of_two());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(b(0).trailing_zeros(), None);
        assert_eq!(b(1).trailing_zeros(), Some(0));
        assert_eq!(b(8).trailing_zeros(), Some(3));
        assert_eq!(b(1 << 90).trailing_zeros(), Some(90));
    }

    #[test]
    fn to_f64_large() {
        let x = b(1 << 100);
        let f = x.to_f64();
        assert!((f - (2f64).powi(100)).abs() / (2f64).powi(100) < 1e-9);
    }
}
