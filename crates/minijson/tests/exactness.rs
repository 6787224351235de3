//! The number fast paths are exact: over a seeded corpus, `render` prints
//! what the formatter before them printed, and `Value::parse` of each of
//! those strings (and of random decimal tokens) returns the bits of
//! `str::parse::<f64>`.  Release builds run a larger corpus.

mod common;

use common::SplitMix;
use minijson::Value;

/// Values per class.
const N: usize = if cfg!(debug_assertions) {
    20_000
} else {
    1_000_000
};

/// `write_number` before the fast paths, verbatim: the reference.
fn write_number(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    // Formatting into a `String` cannot fail.
    if x.is_finite() {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            // Integral values print without a trailing `.0`, like serde_json.
            let _ = write!(out, "{}", x as i64);
        } else {
            let _ = write!(out, "{x}");
        }
    } else {
        out.push_str("null");
    }
}

fn reference(x: f64) -> String {
    let mut out = String::new();
    write_number(&mut out, x);
    out
}

/// Asserts that `text` parses, alone and inside an array, to the bits of
/// `str::parse::<f64>`.
fn check_parse(text: &str) {
    let expected = text.parse::<f64>().unwrap().to_bits();
    for (document, value) in [
        (text.to_string(), Value::parse(text)),
        (format!("[{text},0]"), Value::parse(&format!("[{text},0]"))),
    ] {
        let value = match value {
            Ok(Value::Arr(items)) => items[0].clone(),
            Ok(value) => value,
            Err(error) => panic!("{document:?}: {error}"),
        };
        assert_eq!(
            value.as_f64().map(f64::to_bits),
            Some(expected),
            "parse of {document:?}"
        );
    }
}

/// Asserts that `x` renders as the reference prints it and that the
/// reference string parses back as `str::parse` reads it.
fn check(x: f64) {
    let expected = reference(x);
    assert_eq!(
        Value::Num(x).render(),
        expected,
        "render of {x:?} (bits {:#018x})",
        x.to_bits()
    );
    if expected == "null" {
        assert_eq!(Value::parse(&expected), Ok(Value::Null));
    } else {
        check_parse(&expected);
    }
}

fn signed(rng: &mut SplitMix, x: f64) -> f64 {
    if rng.below(2) == 1 {
        -x
    } else {
        x
    }
}

#[test]
fn random_bit_patterns() {
    let mut rng = SplitMix::new(0x5eed_0001);
    for _ in 0..N {
        check(f64::from_bits(rng.next_u64()));
    }
}

#[test]
fn dyadic_fractions() {
    let mut rng = SplitMix::new(0x5eed_0002);
    for _ in 0..N {
        // ±k/2^j, j ≤ 25, with k of 1 to 53 bits.
        let bits = 1 + rng.below(53);
        let k = rng.below(1 << bits) as f64;
        let j = rng.below(26) as i32;
        check(signed(&mut rng, k / 2f64.powi(j)));
    }
    for j in 0..=60 {
        for x in [2f64.powi(-j), 3.0 * 2f64.powi(-j), 1.0 + 2f64.powi(-j)] {
            check(x);
            check(-x);
        }
    }
}

#[test]
fn a_negative_dyadic_past_the_fast_path_keeps_one_sign() {
    // -2^-20 needs j = 20 > 19: the fast path declines it, and the
    // formatter it falls back to prints the sign once.
    let x = -(2f64.powi(-20));
    assert_eq!(Value::Num(x).render(), "-0.00000095367431640625");
    check(x);
    for j in 16..=40 {
        check(-(2f64.powi(-j)));
        check(-(7.0 * 2f64.powi(-j)));
    }
}

#[test]
fn integers_near_the_fast_path_limits() {
    for centre in [1e15, 2f64.powi(53), 1e16, 2f64.powi(50)] {
        for delta in -1000..=1000 {
            let x = centre + f64::from(delta);
            for y in [x, x + 0.5, x - 0.25, x / 8.0, x / 1024.0] {
                check(y);
                check(-y);
            }
        }
    }
    // The largest dyadics under the digit limit, and their neighbours.
    for j in 1..=20 {
        let scale = 2f64.powi(-j);
        let top = (1e15 / 5f64.powi(j)).floor();
        for m in [top - 2.0, top - 1.0, top, top + 1.0, top + 2.0] {
            check(m * scale);
            check(-m * scale);
        }
    }
}

#[test]
fn subnormals_zeros_and_non_finite_values() {
    for x in [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        check(x);
        check(-x);
    }
    let mut rng = SplitMix::new(0x5eed_0005);
    for _ in 0..N / 10 {
        let subnormal = f64::from_bits(rng.below(1 << 52));
        check(signed(&mut rng, subnormal));
    }
}

#[test]
fn decimal_fractions() {
    let mut rng = SplitMix::new(0x5eed_0006);
    for _ in 0..N {
        let k = rng.below(10_000_000) as f64;
        check(signed(&mut rng, k / 10.0));
        check(signed(&mut rng, k / 500.0));
    }
}

#[test]
fn random_decimal_tokens_parse_as_std_reads_them() {
    // Tokens the writer never prints: leading and trailing zeros, `1.`,
    // mantissas around 2^53 and up to 25 digits, up to 25 after the point.
    let mut rng = SplitMix::new(0x5eed_0007);
    let mut token = String::new();
    for _ in 0..N {
        token.clear();
        if rng.below(2) == 1 {
            token.push('-');
        }
        let len = 1 + rng.below(25) as usize;
        let point = rng.below(len as u64 + 2) as usize;
        if point == 0 && token.is_empty() {
            // A document cannot start with `.`; `-.5` is a number token.
            token.push('0');
        }
        for i in 0..len {
            if i == point {
                token.push('.');
            }
            let digit = match rng.below(4) {
                0 => b'0',
                1 => b'9',
                _ => b'0' + rng.below(10) as u8,
            };
            token.push(char::from(digit));
        }
        if point == len {
            token.push('.');
        }
        check_parse(&token);
    }
    // Small mantissas behind up to 24 zeros: 10^k is exact only for k ≤ 22.
    for _ in 0..N {
        token.clear();
        token.push_str("0.");
        for _ in 0..rng.below(25) {
            token.push('0');
        }
        for _ in 0..1 + rng.below(17) {
            token.push(char::from(b'0' + rng.below(10) as u8));
        }
        check_parse(&token);
    }
    for token in ["9007199254740992", "9007199254740993", "900719925474099.3"] {
        check_parse(token);
        check_parse(&format!("-{token}"));
    }
}
