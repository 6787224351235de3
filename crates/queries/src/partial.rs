//! The exact text codec for world-block partials and statistics.
//!
//! A fleet worker returns a world block as flat `f64` vectors — each
//! observer's [`partial`](crate::batch::WorldObserver::partial) and, for
//! adaptive plans, every world's tracked statistics — and the coordinator
//! folds them into answers that must equal the in-process run **bit for
//! bit**.  JSON numbers cannot carry that: non-finite values have no
//! spelling, and `-0.0` prints as `0`.  This codec writes a vector as one
//! comma-separated string of entries, each either
//!
//! * a **decimal integer** (`0`, `17`, …) for a non-negative integral value
//!   below 2⁵³ — every such value is exact in an `f64` and the common case
//!   for count accumulators, so a 240k-edge frequency partial is ~0.5 MB;
//! * or `x` plus **16 hex digits** of the IEEE-754 bits for everything
//!   else: fractions, negatives, `-0.0`, infinities, NaN payloads and
//!   subnormals alike.
//!
//! Decoding is strict — a non-canonical integer, a short hex field or a
//! stray character is a [`PartialError`], never a guess — and streams:
//! [`decode_values`] yields one value at a time, so a caller writes
//! straight into a pre-sized destination and a hostile declared length
//! allocates nothing.
//!
//! ```
//! use ugs_queries::partial::{decode_values, encode_values};
//!
//! let values = [3.0, 0.25, -0.0, f64::INFINITY, 5e-324];
//! let mut text = String::new();
//! encode_values(&values, &mut text);
//! assert_eq!(text.split(',').next(), Some("3"));
//! let back: Vec<f64> = decode_values(&text).collect::<Result<_, _>>().unwrap();
//! assert!(back.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
//! ```

/// Largest integral magnitude written in decimal: every integer below it
/// is exact in an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0; // 2^53

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Why a partial did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialError(String);

impl std::fmt::Display for PartialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed partial: {}", self.0)
    }
}

impl std::error::Error for PartialError {}

/// Appends one entry for `x` (no separator).  Digits are produced by
/// hand: a partial holds hundreds of thousands of entries, and the
/// formatting machinery would dominate the encode.
pub fn encode_value(x: f64, out: &mut String) {
    let integral =
        (0.0..EXACT_INTEGERS).contains(&x) && x.is_sign_positive() && (x as u64) as f64 == x;
    if integral && x < 10.0 {
        // The common case for count accumulators: one digit.
        out.push(char::from(b'0' + x as u8));
        return;
    }
    let mut buf = [0u8; 17];
    let start = if integral {
        let mut n = x as u64;
        let mut at = buf.len();
        while n > 0 {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
        }
        at
    } else {
        let bits = x.to_bits();
        buf[0] = b'x';
        for (i, slot) in buf[1..].iter_mut().enumerate() {
            *slot = HEX_DIGITS[((bits >> (60 - 4 * i)) & 0xf) as usize];
        }
        0
    };
    out.push_str(std::str::from_utf8(&buf[start..]).expect("entries are ASCII"));
}

/// Appends `values` as comma-separated entries.
pub fn encode_values(values: &[f64], out: &mut String) {
    for (i, &x) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_value(x, out);
    }
}

/// Decodes one entry: a canonical decimal integer below 2⁵³, or `x` and
/// exactly 16 hex digits.
fn decode_value(entry: &[u8]) -> Result<f64, PartialError> {
    let bad = || PartialError(format!("bad entry {:?}", String::from_utf8_lossy(entry)));
    if let Some((&b'x', hex)) = entry.split_first() {
        if hex.len() != 16 {
            return Err(bad());
        }
        let mut bits = 0u64;
        for &b in hex {
            let digit = char::from(b).to_digit(16).ok_or_else(bad)?;
            bits = bits << 4 | u64::from(digit);
        }
        return Ok(f64::from_bits(bits));
    }
    if entry.is_empty() || entry.len() > 16 || (entry[0] == b'0' && entry.len() > 1) {
        return Err(bad());
    }
    let mut n = 0u64;
    for &b in entry {
        if !b.is_ascii_digit() {
            return Err(bad());
        }
        n = n * 10 + u64::from(b - b'0');
    }
    if (n as f64) < EXACT_INTEGERS {
        Ok(n as f64)
    } else {
        Err(bad())
    }
}

/// Decodes a comma-separated entry list lazily, one value per item; the
/// empty string holds no values.
pub fn decode_values(text: &str) -> impl Iterator<Item = Result<f64, PartialError>> + '_ {
    let bytes = text.as_bytes();
    // A hand-rolled scan: `str::split` costs more per (one- or
    // two-byte) entry than decoding it does.
    let mut pos = (!bytes.is_empty()).then_some(0);
    std::iter::from_fn(move || {
        let start = pos?;
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b',')
            .map_or(bytes.len(), |offset| start + offset);
        pos = (end < bytes.len()).then_some(end + 1);
        Some(decode_value(&bytes[start..end]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) -> Vec<f64> {
        let mut text = String::new();
        encode_values(values, &mut text);
        decode_values(&text).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn every_bit_pattern_round_trips() {
        let values = [
            0.0,
            -0.0,
            1.0,
            42.0,
            EXACT_INTEGERS - 1.0,
            EXACT_INTEGERS,
            -3.0,
            0.1,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::MAX,
        ];
        let back = round_trip(&values);
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits(), "{b:?}");
        }
        assert!(round_trip(&[]).is_empty());
    }

    #[test]
    fn counts_stay_compact_and_the_rest_is_hex() {
        let mut text = String::new();
        encode_values(&[0.0, 7.0, 0.5, -0.0, EXACT_INTEGERS], &mut text);
        assert_eq!(
            text,
            "0,7,x3fe0000000000000,x8000000000000000,x4340000000000000"
        );
    }

    #[test]
    fn malformed_entries_are_typed_errors() {
        for bad in [
            ",",
            "1,",
            "01",
            "+1",
            "-1",
            "1.5",
            "1e3",
            "x",
            "x3ff",
            "x3ff000000000000g",
            "x+3ff00000000000",
            "X3ff0000000000000",
            "9007199254740992",
            "99999999999999999999",
            " 1",
            "1 ",
        ] {
            let decoded: Result<Vec<f64>, _> = decode_values(bad).collect();
            assert!(decoded.is_err(), "{bad:?} decoded to {decoded:?}");
        }
    }
}
