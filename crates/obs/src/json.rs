//! Minimal JSON emission helpers.
//!
//! The workspace has no crates.io access and the vendored `serde` is a
//! no-op marker subset, so every JSON producer in-tree writes its output by
//! hand. These helpers centralize the two error-prone parts — string
//! escaping and float formatting — so snapshots, reports, and benchmarks
//! all emit valid JSON the same way. The `push_*` forms append to a byte
//! buffer instead of returning a `String`, for the hot writers (journal
//! records and event lines) that build a whole line in one buffer.

use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal (no quotes
/// added).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a quoted JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders an `f64` as a JSON number, mapping non-finite values to `null`
/// (JSON has no NaN/Infinity).
#[must_use]
pub fn number(v: f64) -> String {
    let mut out = Vec::new();
    push_number(&mut out, v);
    String::from_utf8(out).expect("numbers render as ASCII")
}

/// Appends [`number`]`(v)` to `out`: for finite `v` the bytes of
/// `format!("{v:.6}")`, computed with integer arithmetic below `2^63`.
pub fn push_number(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        push_fixed6(out, v);
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Two decimal digits per entry: `PAIRS[2k..2k + 2]` spells `k` for
/// `k < 100`.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

fn push_pair(out: &mut Vec<u8>, k: u64) {
    let d = k as usize * 2;
    out.extend_from_slice(&PAIRS[d..d + 2]);
}

/// Writes finite `v` exactly as `{:.6}` does.
///
/// `v = m · 2^e` with an integer mantissa `m < 2^53`. For `|v| < 2^63` the
/// integer part is `m` shifted by `e`. The fraction is `f / 2^s` with
/// `s = -e` and `f < 2^min(s, 53)`, so its six digits are `f · 10^6 / 2^s`:
/// the product is below `2^73` and fits a `u128`, and the shift leaves the
/// exact remainder, which rounds half to even, as `core::fmt` does. Digits
/// that round up to `10^6` carry into the integer part. The sign comes from
/// the sign bit, so `-0.0` and negatives that round to zero print
/// `-0.000000`. Magnitudes from `2^63` up go through `core::fmt`.
fn push_fixed6(out: &mut Vec<u8>, v: f64) {
    const SCALE: u64 = 1_000_000;
    let bits = v.to_bits();
    let biased = (bits >> 52 & 0x7ff) as i32;
    if biased >= 1023 + 63 {
        use std::io::Write as _;
        write!(out, "{v:.6}").expect("writing to a Vec cannot fail");
        return;
    }
    let frac_bits = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (frac_bits, -1074)
    } else {
        (frac_bits | 1 << 52, biased - 1075)
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    let (mut int, mut digits) = if e >= 0 {
        (m << e, 0)
    } else {
        let s = e.unsigned_abs();
        let (int, f) = if s < 64 {
            (m >> s, m & ((1 << s) - 1))
        } else {
            (0, m)
        };
        // f · 10^6 < 2^73 <= 2^(s-1) once s > 73: below one half.
        let digits = if s > 73 {
            0
        } else {
            let p = u128::from(f) * u128::from(SCALE);
            let q = (p >> s) as u64;
            let rem = p & ((1 << s) - 1);
            let half = 1u128 << (s - 1);
            q + u64::from(rem > half || (rem == half && q & 1 == 1))
        };
        (int, digits)
    };
    if digits == SCALE {
        int += 1;
        digits = 0;
    }
    push_u64(out, int);
    out.push(b'.');
    push_pair(out, digits / 10_000);
    push_pair(out, digits / 100 % 100);
    push_pair(out, digits % 100);
}

/// Appends the decimal digits of `v` to `out`: the bytes of
/// `v.to_string()`, two digits per division and without the allocation.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = v;
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("x"), "\"x\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(number(1.5), "1.500000");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    fn fixed6(v: f64) -> Vec<u8> {
        let mut out = b"x".to_vec();
        push_number(&mut out, v);
        out
    }

    /// `push_number` against `core::fmt`, the renderer it replaced.
    fn check(v: f64) {
        let want = if v.is_finite() {
            format!("x{v:.6}")
        } else {
            "xnull".to_string()
        };
        assert_eq!(
            fixed6(v),
            want.into_bytes(),
            "{v:e} (bits {:#x})",
            v.to_bits()
        );
    }

    #[test]
    fn float_writer_edges() {
        for v in [
            0.0,
            -0.0,
            -1e-9,
            0.5,
            2.5,
            0.0078125,
            0.0234375,
            0.9999995,
            0.99999949999999,
            1.9999995,
            999_999.999_999_5,
            f64::MIN_POSITIVE,
            -f64::from_bits(1),
            9_007_199_254_740_993.0,
            9_223_372_036_854_774_784.0,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            f64::MAX,
            f64::MIN,
        ] {
            check(v);
        }
        assert_eq!(number(0.0234375), "0.023438");
        assert_eq!(number(0.0078125), "0.007812");
        assert_eq!(number(-0.0), "-0.000000");
        assert_eq!(number(19.9999995), "20.000000");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The debug-build companion of `float_writer_sweep`: random bit
        /// patterns, random values in the fast path's range, and dyadics
        /// `k / 2^j`, among them every kind of sixth-decimal tie.
        #[test]
        fn float_writer_matches_fmt(bits in 0u64..=u64::MAX, k in 0u64..1 << 40, j in 0u32..=40) {
            check(f64::from_bits(bits));
            let exp = 1023 - 80 + bits % 144;
            check(f64::from_bits(bits & 0x800f_ffff_ffff_ffff | exp << 52));
            #[allow(clippy::cast_precision_loss)]
            let dyadic = k as f64 / (1u64 << j) as f64;
            check(dyadic);
            check(-dyadic);
        }
    }

    /// Every dyadic `k / 2^j` for `j <= 40` over two ranges of `k`, which
    /// holds every kind of sixth-decimal tie (a value ties exactly when its
    /// fraction is an odd multiple of 1/128); the neighbourhoods of the
    /// carry (`x.9999995`) and of other half-way digits; subnormals and
    /// zeros; and ten million seeded bit patterns. Run it with
    /// `cargo test --release -p dmig-obs -- --ignored`.
    #[test]
    #[ignore = "exhaustive: about 20 s in release, run by CI with --release"]
    fn float_writer_sweep() {
        use std::fmt::Write as _;
        let (mut mine, mut theirs) = (Vec::new(), String::new());
        let mut check = |v: f64| {
            mine.clear();
            theirs.clear();
            push_number(&mut mine, v);
            if v.is_finite() {
                write!(theirs, "{v:.6}").expect("a String takes any write");
            } else {
                theirs.push_str("null");
            }
            assert!(mine == theirs.as_bytes(), "{v:e} (bits {:#x})", v.to_bits());
        };
        #[allow(clippy::cast_precision_loss)]
        for j in 0..=40u32 {
            let scale = (1u64 << j) as f64;
            for k in (0..1u64 << 17).chain((1 << 53) - (1 << 17)..1 << 53) {
                let v = k as f64 / scale;
                check(v);
                if k % 7 == 0 {
                    check(-v);
                }
            }
        }
        #[allow(clippy::cast_precision_loss)]
        for x in (0..1000u64).chain((10..63).map(|p| 1 << p)) {
            for tail in [0.9999995, 0.0000005, 0.4999995, 0.5000005] {
                let at = (x as f64 + tail).to_bits();
                for bits in at.saturating_sub(200)..at + 200 {
                    check(f64::from_bits(bits));
                    check(-f64::from_bits(bits));
                }
            }
        }
        for bits in (0..1u64 << 18).chain((1 << 52) - (1 << 18)..(1 << 52) + (1 << 18)) {
            check(f64::from_bits(bits));
            check(-f64::from_bits(bits));
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..10_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly the exponents the fast path takes, and a few past
            // 2^63; one in 16 over every pattern (`core::fmt` spends
            // microseconds on each huge one, where both sides are it).
            if i % 16 == 0 {
                check(f64::from_bits(x));
            } else {
                let exp = 1023 - 80 + (x >> 52) % 150;
                check(f64::from_bits(x & 0x800f_ffff_ffff_ffff | exp << 52));
            }
        }
    }

    #[test]
    fn digit_writer_matches_display() {
        let mut edges = vec![0, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1];
        edges.extend((1..20).map(|k| 10u64.pow(k) - 1));
        edges.extend((1..20).map(|k| 10u64.pow(k)));
        edges.extend((0..64).map(|k| 1u64 << k));
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            edges.push(x >> (x % 64));
        }
        for v in edges {
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }
}
