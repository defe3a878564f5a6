//! Property-based tests cross-checking bignum arithmetic against `u128`
//! primitives and algebraic laws.

use proptest::prelude::*;
use qrel_arith::{BigInt, BigRational, BigUint};

fn bu(v: u128) -> BigUint {
    BigUint::from_u128(v)
}

fn euclid(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Referee: binary gcd one limb vector at a time, from the public
/// shift and subtract operations.
fn stein(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return a.add_ref(b);
    }
    let (za, zb) = (a.trailing_zeros().unwrap(), b.trailing_zeros().unwrap());
    let (mut a, mut b) = (a.shr_bits(za), b.shr_bits(zb));
    while a != b {
        if a < b {
            std::mem::swap(&mut a, &mut b);
        }
        a = a.checked_sub(&b).unwrap();
        a = a.shr_bits(a.trailing_zeros().unwrap());
    }
    a.shl_bits(za.min(zb))
}

/// Referee: the digit-by-digit limb parse, one multiply-add per digit,
/// with its error for the first non-digit.
fn limb_parse(s: &str) -> Result<BigUint, String> {
    let mut acc = BigUint::zero();
    for c in s.chars() {
        let d = c
            .to_digit(10)
            .ok_or_else(|| format!("number parse error: invalid digit {c:?}"))?;
        acc = acc
            .mul_ref(&BigUint::from_u32(10))
            .add_ref(&BigUint::from_u32(d));
    }
    Ok(acc)
}

proptest! {
    #[test]
    fn add_matches_u128(a in 0u128..=u128::MAX / 2, b in 0u128..=u128::MAX / 2) {
        prop_assert_eq!(bu(a).add_ref(&bu(b)), bu(a + b));
    }

    #[test]
    fn sub_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!(bu(hi).checked_sub(&bu(lo)), Some(bu(hi - lo)));
        if hi != lo {
            prop_assert_eq!(bu(lo).checked_sub(&bu(hi)), None);
        }
    }

    #[test]
    fn mul_matches_u128(a in 0u128..=u64::MAX as u128, b in 0u128..=u64::MAX as u128) {
        prop_assert_eq!(bu(a).mul_ref(&bu(b)), bu(a * b));
    }

    #[test]
    fn div_rem_matches_u128(a in any::<u128>(), b in 1u128..=u128::MAX) {
        let (q, r) = bu(a).div_rem(&bu(b));
        prop_assert_eq!(q, bu(a / b));
        prop_assert_eq!(r, bu(a % b));
    }

    #[test]
    fn div_rem_reconstructs(a_limbs in proptest::collection::vec(any::<u64>(), 1..8),
                            b_limbs in proptest::collection::vec(any::<u64>(), 1..5)) {
        // Build large operands beyond u128 range.
        let mut a = BigUint::zero();
        for l in &a_limbs {
            a = a.shl_bits(64).add_ref(&BigUint::from_u64(*l));
        }
        let mut b = BigUint::zero();
        for l in &b_limbs {
            b = b.shl_bits(64).add_ref(&BigUint::from_u64(*l));
        }
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
    }

    #[test]
    fn gcd_divides_both_and_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let g = bu(a as u128).gcd(&bu(b as u128));
        prop_assert_eq!(g.to_u128(), Some(euclid(a as u128, b as u128)));
    }

    /// Multi-limb operands: past `u64` on one or both sides, and with a
    /// shared factor (powers of two included) so the gcd is not 1.
    #[test]
    fn gcd_matches_u128_euclid_on_multi_limb_inputs(
        a in (1u128 << 64)..=u128::MAX,
        b in any::<u128>(),
        g in 1u128..=u64::MAX as u128,
        shift in 0u32..40,
    ) {
        prop_assert_eq!(bu(a).gcd(&bu(b)), bu(euclid(a, b)));
        prop_assert_eq!(bu(b).gcd(&bu(a)), bu(euclid(a, b)));
        let (x, y) = ((a >> 64) * g, (b >> 64) * g);
        prop_assert_eq!(bu(x).gcd(&bu(y)), bu(euclid(x, y)));
        let (x, y) = ((a >> 40) << shift, (b >> 40) << (39 - shift));
        prop_assert_eq!(bu(x).gcd(&bu(y)), bu(euclid(x, y)));
    }

    /// Operands of up to eight limbs with a shared factor, against the
    /// limb-by-limb binary gcd.
    #[test]
    fn gcd_matches_the_limb_stein_referee(
        a in proptest::collection::vec(any::<u64>(), 1..5),
        b in proptest::collection::vec(any::<u64>(), 1..5),
        g in proptest::collection::vec(any::<u64>(), 0..3),
        shift in 0u64..70,
    ) {
        let build = |limbs: &[u64]| {
            limbs.iter().fold(BigUint::one(), |x, &l| x.shl_bits(64).add_ref(&BigUint::from_u64(l)))
        };
        let g = build(&g).shl_bits(shift);
        let (a, b) = (build(&a).mul_ref(&g), build(&b).mul_ref(&g));
        prop_assert_eq!(a.gcd(&b), stein(&a, &b));
        prop_assert_eq!(b.gcd(&a), stein(&a, &b));
        let small = BigUint::from_u64(b.to_u128().map_or(12345, |v| v as u64) | 1);
        prop_assert_eq!(a.gcd(&small), stein(&a, &small));
    }

    /// Print and parse on both sides of `2^64`: 19- to 21-digit values
    /// and `u128`-wide ones, against `u128`'s own formatting.
    #[test]
    fn display_parse_roundtrip_across_u64(
        near in (u64::MAX as u128 - 100_000)..=(u64::MAX as u128 + 100_000),
        digits in 19u32..=21,
        v in any::<u128>(),
        zeros in 0usize..4,
    ) {
        let sized = v % 10u128.pow(digits);
        for x in [near, sized, v] {
            let text = x.to_string();
            prop_assert_eq!(bu(x).to_string(), text.clone());
            prop_assert_eq!(BigUint::parse_decimal(&text).unwrap(), bu(x));
            let padded = format!("{}{text}", "0".repeat(zeros));
            prop_assert_eq!(BigUint::parse_decimal(&padded).unwrap(), bu(x));
            prop_assert_eq!(limb_parse(&padded), Ok(bu(x)));
        }
    }

    /// Signed and rational spellings around `2^64`: `+`/`-` signs, `-0`,
    /// leading zeros and whitespace around `/`.
    #[test]
    fn rational_parse_and_print_across_u64(
        n in (u64::MAX as u128 - 1000)..=(u64::MAX as u128 + 1000),
        d in (u64::MAX as u128 - 1000)..=(u64::MAX as u128 + 1000),
        sign in 0usize..4,
        zeros in 0usize..3,
        pad in 0usize..3,
    ) {
        let signed = ["", "+", "-", "-0"][sign];
        let numer = format!("{signed}{}{n}", "0".repeat(zeros));
        let negative = signed.starts_with('-');
        let text = format!("{numer}{ws}/{ws}{}{d}", "0".repeat(zeros), ws = " ".repeat(pad));
        let r = BigRational::parse(&text).unwrap();
        let g = euclid(n, d);
        let expected = format!("{}{}/{}", if negative { "-" } else { "" }, n / g, d / g);
        let expected = expected.strip_suffix("/1").unwrap_or(&expected).to_string();
        prop_assert_eq!(r.to_string(), expected.clone());
        prop_assert_eq!(BigRational::parse(&expected).unwrap(), r);
        let int = BigInt::parse_decimal(&numer).unwrap();
        prop_assert_eq!(int.to_string(), format!("{}{n}", if negative { "-" } else { "" }));
        prop_assert_eq!(BigInt::parse_decimal("-0").unwrap(), BigInt::zero());
    }

    /// A bad character anywhere — inside the `u64` prefix or past it —
    /// fails with the same message the digit-by-digit limb parse gives,
    /// and a zero denominator of any width is refused.
    #[test]
    fn parse_errors_match_the_limb_parse(
        v in any::<u128>(),
        at in 0usize..40,
        bad in 0usize..6,
        zeros in 1usize..25,
    ) {
        let mut text = v.to_string();
        let at = at.min(text.len());
        text.insert(at, ['x', ' ', '-', '٣', '.', '/'][bad]);
        let err = BigUint::parse_decimal(&text).unwrap_err();
        prop_assert_eq!(Err(err.to_string()), limb_parse(&text).map_err(|e| e.to_string()));
        prop_assert!(BigUint::parse_decimal("").is_err());
        let zero = format!("{v}/{}", "0".repeat(zeros));
        prop_assert_eq!(
            BigRational::parse(&zero).unwrap_err().to_string(),
            "number parse error: zero denominator"
        );
    }

    #[test]
    fn shifts_invert(v in any::<u128>(), s in 0u64..300) {
        let x = bu(v);
        prop_assert_eq!(x.shl_bits(s).shr_bits(s), x);
    }

    #[test]
    fn display_parse_roundtrip(v in any::<u128>()) {
        let x = bu(v);
        prop_assert_eq!(x.to_string(), v.to_string());
        prop_assert_eq!(BigUint::parse_decimal(&x.to_string()).unwrap(), x);
    }

    #[test]
    fn bigint_ring_laws(a in any::<i64>(), b in any::<i64>(), c in any::<i64>()) {
        let (x, y, z) = (BigInt::from_i64(a), BigInt::from_i64(b), BigInt::from_i64(c));
        prop_assert_eq!(x.add_ref(&y), y.add_ref(&x));
        prop_assert_eq!(x.add_ref(&y).add_ref(&z), x.add_ref(&y.add_ref(&z)));
        prop_assert_eq!(x.mul_ref(&y), y.mul_ref(&x));
        prop_assert_eq!(x.mul_ref(&y.add_ref(&z)), x.mul_ref(&y).add_ref(&x.mul_ref(&z)));
        prop_assert_eq!(x.sub_ref(&x), BigInt::zero());
    }

    #[test]
    fn bigint_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let sum = BigInt::from_i64(a).add_ref(&BigInt::from_i64(b));
        prop_assert_eq!(sum.to_string(), (a as i128 + b as i128).to_string());
        let prod = BigInt::from_i64(a).mul_ref(&BigInt::from_i64(b));
        prop_assert_eq!(prod.to_string(), (a as i128 * b as i128).to_string());
    }

    #[test]
    fn rational_field_laws(an in -1000i64..1000, ad in 1u64..1000,
                           bn in -1000i64..1000, bd in 1u64..1000,
                           cn in -1000i64..1000, cd in 1u64..1000) {
        let a = BigRational::from_ratio(an, ad);
        let b = BigRational::from_ratio(bn, bd);
        let c = BigRational::from_ratio(cn, cd);
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
        prop_assert_eq!(a.mul_ref(&b.add_ref(&c)), a.mul_ref(&b).add_ref(&a.mul_ref(&c)));
        if !b.is_zero() {
            prop_assert_eq!(a.div_ref(&b).mul_ref(&b), a.clone());
        }
        prop_assert_eq!(a.sub_ref(&b).add_ref(&b), a);
    }

    /// The cross-cancelling product and quotient, the gcd-of-denominators
    /// sum and the gcd-free `1 − x` equal the textbook form normalized
    /// by one gcd at the end, on operands past `u64` as well as small.
    #[test]
    fn rational_ops_match_normalize_at_the_end(
        an in any::<i128>(), ad in 1u128..=i128::MAX as u128,
        bn in any::<i128>(), bd in 1u128..=i128::MAX as u128,
        small in any::<bool>(),
    ) {
        let (an, ad, bn, bd) = if small {
            (an % 1000, ad % 1000 + 1, bn % 1000, bd % 1000 + 1)
        } else {
            (an, ad, bn, bd)
        };
        let int = |v: i128| {
            let mag = BigInt::from_biguint(bu(v.unsigned_abs()));
            if v < 0 { mag.neg_ref() } else { mag }
        };
        let (na, da, nb, db) = (int(an), int(ad as i128), int(bn), int(bd as i128));
        let a = BigRational::new(na.clone(), da.clone());
        let b = BigRational::new(nb.clone(), db.clone());
        prop_assert_eq!(
            a.add_ref(&b),
            BigRational::new(na.mul_ref(&db).add_ref(&nb.mul_ref(&da)), da.mul_ref(&db))
        );
        prop_assert_eq!(
            a.sub_ref(&b),
            BigRational::new(na.mul_ref(&db).sub_ref(&nb.mul_ref(&da)), da.mul_ref(&db))
        );
        prop_assert_eq!(a.mul_ref(&b), BigRational::new(na.mul_ref(&nb), da.mul_ref(&db)));
        if !b.is_zero() {
            prop_assert_eq!(a.div_ref(&b), BigRational::new(na.mul_ref(&db), da.mul_ref(&nb)));
        }
        prop_assert_eq!(a.one_minus(), BigRational::new(da.sub_ref(&na), da.clone()));
        let g = a.numer().magnitude().gcd(a.denom());
        prop_assert!(a.is_zero() || g.is_one());
        prop_assert_eq!(
            a.is_probability(),
            a >= BigRational::zero() && a <= BigRational::one()
        );
    }

    #[test]
    fn rational_normalized(an in -10_000i64..10_000, ad in 1u64..10_000) {
        let a = BigRational::from_ratio(an, ad);
        let g = a.numer().magnitude().gcd(a.denom());
        prop_assert!(a.is_zero() || g.is_one());
    }

    #[test]
    fn rational_cmp_matches_f64(an in -1000i64..1000, ad in 1u64..1000,
                                bn in -1000i64..1000, bd in 1u64..1000) {
        let a = BigRational::from_ratio(an, ad);
        let b = BigRational::from_ratio(bn, bd);
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn one_minus_involution(n in 0i64..1000, d in 1u64..1000) {
        prop_assume!(n as u64 <= d);
        let p = BigRational::from_ratio(n, d);
        prop_assert!(p.is_probability());
        prop_assert!(p.one_minus().is_probability());
        prop_assert_eq!(p.one_minus().one_minus(), p);
    }

    #[test]
    fn floor_ceil_consistent(n in -10_000i64..10_000, d in 1u64..100) {
        let x = BigRational::from_ratio(n, d);
        let f = x.floor();
        let c = x.ceil();
        // floor <= x <= ceil, and they differ by at most 1.
        let fr = BigRational::new(f.clone(), BigInt::one());
        let cr = BigRational::new(c.clone(), BigInt::one());
        prop_assert!(fr <= x && x <= cr);
        let diff = c.sub_ref(&f);
        prop_assert!(diff == BigInt::zero() || diff == BigInt::one());
        prop_assert_eq!(diff == BigInt::zero(), x.is_integer());
    }

    #[test]
    fn lcm_is_common_multiple(a in 1u64..100_000, b in 1u64..100_000) {
        let l = BigUint::from_u64(a).lcm(&BigUint::from_u64(b));
        prop_assert!(l.div_rem(&BigUint::from_u64(a)).1.is_zero());
        prop_assert!(l.div_rem(&BigUint::from_u64(b)).1.is_zero());
    }
}

proptest! {
    /// Karatsuba agrees with schoolbook well past the threshold.
    #[test]
    fn karatsuba_matches_schoolbook(a in proptest::collection::vec(any::<u32>(), 60..90),
                                    b in proptest::collection::vec(any::<u32>(), 60..90)) {
        // Build operands limb by limb (shift-and-add keeps it independent
        // of the multiplication under test).
        let build = |limbs: &[u32]| {
            let mut x = BigUint::zero();
            for &l in limbs.iter().rev() {
                x = x.shl_bits(32).add_ref(&BigUint::from_u32(l));
            }
            x
        };
        let x = build(&a);
        let y = build(&b);
        let product = x.mul_ref(&y);
        // Verify by reconstruction through division (Knuth D is
        // independently tested against u128).
        if !y.is_zero() {
            let (q, r) = product.div_rem(&y);
            prop_assert_eq!(q, x);
            prop_assert!(r.is_zero());
        }
    }
}
