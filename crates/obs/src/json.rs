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

/// Appends [`number`]`(v)` to `out`.
pub fn push_number(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        use std::io::Write as _;
        write!(out, "{v:.6}").expect("writing to a Vec cannot fail");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Appends the decimal digits of `v` to `out`: the bytes of
/// `v.to_string()`, two digits per division and without the allocation.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    const PAIRS: &[u8; 200] = b"\
        0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
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
