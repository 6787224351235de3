//! Hostile inputs: a seeded mutation run over rendered reports and number
//! tokens never panics the parser, and every failure is a `JsonError` whose
//! offset lies within the input; a fixed table pins which odd number tokens
//! parse, to which bits, and where the others fail.

mod common;

use common::SplitMix;
use minijson::{ObjBuilder, Value};

/// Mutated documents per base.
const ROUNDS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    40_000
};

/// Odd tokens with the bits they parse to, or the offset of their error
/// from the token's start.  A token that overflows to ±∞ is refused; the
/// others read as `str::parse::<f64>` reads them.
const ODD_TOKENS: &[(&str, Result<u64, usize>)] = &[
    ("1.", Ok(0x3ff0_0000_0000_0000)),
    ("0.", Ok(0)),
    ("01", Ok(0x3ff0_0000_0000_0000)),
    ("-01", Ok(0xbff0_0000_0000_0000)),
    ("00", Ok(0)),
    ("00.5", Ok(0x3fe0_0000_0000_0000)),
    ("-.5", Ok(0xbfe0_0000_0000_0000)),
    ("1.e5", Ok(0x40f8_6a00_0000_0000)),
    ("1E+2", Ok(0x4059_0000_0000_0000)),
    ("1e-2", Ok(0x3f84_7ae1_47ae_147b)),
    ("1e400", Err(0)),
    ("-1e400", Err(0)),
    ("1e-400", Ok(0)),
    ("9007199254740992", Ok(0x4340_0000_0000_0000)),
    ("9007199254740993", Ok(0x4340_0000_0000_0000)),
    ("9007199254740992.5", Ok(0x4340_0000_0000_0000)),
    ("18446744073709551616", Ok(0x43f0_0000_0000_0000)),
    ("1234567890123456789012345", Ok(0x44f0_56e0_f36a_6444)),
    ("-1234567890123456789012345", Ok(0xc4f0_56e0_f36a_6444)),
    ("0.1234567890123456789012345", Ok(0x3fbf_9add_3746_f65f)),
    ("0.0000000000000000000001", Ok(0x3b5e_3920_1017_5ee6)),
    ("0.00000000000000000000001", Ok(0x3b28_2db3_4012_b251)),
    ("-0", Ok(0x8000_0000_0000_0000)),
    ("-0.0", Ok(0x8000_0000_0000_0000)),
    ("-00.000", Ok(0x8000_0000_0000_0000)),
    ("-", Err(0)),
    ("-.", Err(0)),
    ("--1", Err(0)),
    ("1e", Err(0)),
    ("1ee5", Err(0)),
    ("1.2.3", Err(0)),
    ("1-2", Err(0)),
    ("+1", Err(0)),
    (".5", Err(0)),
    ("0x10", Err(1)),
];

#[test]
fn odd_number_tokens_keep_their_acceptance_bits_and_offsets() {
    for &(token, expected) in ODD_TOKENS {
        // The token alone, as an array item and as an object value.
        for (document, at) in [
            (token.to_string(), 0),
            (format!("[{token}]"), 1),
            (format!("{{\"k\": {token}}}"), 6),
        ] {
            let got = match Value::parse(&document) {
                Ok(Value::Arr(items)) => Ok(items[0].as_f64().unwrap().to_bits()),
                Ok(Value::Obj(entries)) => Ok(entries[0].1.as_f64().unwrap().to_bits()),
                Ok(value) => Ok(value.as_f64().unwrap().to_bits()),
                Err(error) => Err(error.offset - at),
            };
            assert_eq!(got, expected, "{document:?}");
        }
    }
}

/// Report-shaped documents: an edge-frequency answer (counts and `k/8`), a
/// PageRank answer (17-digit values), and k-NN objects with negative
/// numbers, nulls, booleans and escaped strings.
fn reports(rng: &mut SplitMix) -> Vec<String> {
    let report = |result: Value| {
        ObjBuilder::new()
            .field("graph", "fingerprint:00c0ffee\t\"x\"")
            .field("worlds", 8usize)
            .field("seed", 901usize)
            .field(
                "results",
                Value::Arr(vec![ObjBuilder::new()
                    .field("status", "ok")
                    .field("result", result)
                    .build()]),
            )
            .build()
    };
    let numbers = |rng: &mut SplitMix, f: &dyn Fn(&mut SplitMix) -> f64| {
        Value::Arr((0..64).map(|_| Value::Num(f(rng))).collect())
    };
    let frequencies = numbers(rng, &|rng| rng.below(9) as f64 / 8.0);
    let scores = numbers(rng, &|rng| rng.below(1 << 53) as f64 / 2f64.powi(65));
    let neighbors = Value::Arr(
        (0..8)
            .map(|i| {
                ObjBuilder::new()
                    .field("vertex", i)
                    .field("expected_distance", -(rng.below(1000) as f64) / 7.0)
                    .field(
                        "reachability",
                        if i % 3 == 0 { Value::Null } else { true.into() },
                    )
                    .build()
            })
            .collect(),
    );
    [frequencies, scores, neighbors]
        .into_iter()
        .map(|result| report(ObjBuilder::new().field("values", result).build()).render())
        .collect()
}

/// A number-like token: leading zeros, digit runs of 18–25, and repeated
/// `.`, `e` and `-`.
fn number_token(rng: &mut SplitMix) -> String {
    let mut token = String::new();
    for _ in 0..1 + rng.below(4) {
        match rng.below(6) {
            0 => token.push_str(&"0".repeat(1 + rng.below(4) as usize)),
            1 | 2 => {
                for _ in 0..18 + rng.below(8) {
                    token.push(char::from(b'0' + rng.below(10) as u8));
                }
            }
            3 => token.push_str(&".".repeat(1 + rng.below(3) as usize)),
            4 => token.push_str(&"e".repeat(1 + rng.below(3) as usize)),
            _ => token.push_str(&"-".repeat(1 + rng.below(3) as usize)),
        }
    }
    token
}

const ALPHABET: &[u8] = b"0123456789.eE+-[]{},:\"\\ nutrfalsx\t";

/// One to four byte inserts, deletes or replacements, number-token
/// inserts or inserts of a two-byte character.
fn mutate(rng: &mut SplitMix, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let byte = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
        let inserted = match rng.below(5) {
            0 => vec![byte],
            1 if at < bytes.len() => {
                bytes.remove(at);
                continue;
            }
            2 if at < bytes.len() => {
                bytes[at] = byte;
                continue;
            }
            3 => number_token(rng).into_bytes(),
            _ => "é".as_bytes().to_vec(),
        };
        bytes.splice(at..at, inserted);
    }
}

/// Parses `document`, failing the test with the input on a panic or on an
/// error offset past its end; returns whether it parsed.
fn parse_checked(document: &str) -> bool {
    let result = std::panic::catch_unwind(|| Value::parse(document));
    match result {
        Ok(Ok(_)) => true,
        Ok(Err(error)) => {
            assert!(
                error.offset <= document.len(),
                "offset {} past the end of {document:?}",
                error.offset
            );
            false
        }
        Err(_) => panic!("Value::parse panicked on {document:?}"),
    }
}

#[test]
fn mutated_reports_and_tokens_fail_typed_within_the_input() {
    let mut rng = SplitMix::new(0x4057_11e5);
    let mut bases = reports(&mut rng);
    for report in &bases {
        assert!(parse_checked(report), "{report}");
    }
    bases.extend((0..8).map(|_| {
        let tokens: Vec<String> = (0..6).map(|_| number_token(&mut rng)).collect();
        format!("[{}]", tokens.join(","))
    }));
    for base in &bases {
        let mut failed = 0;
        for _ in 0..ROUNDS {
            let mut bytes = base.clone().into_bytes();
            mutate(&mut rng, &mut bytes);
            // A byte edit can split `é`; `parse` takes only valid UTF-8.
            let Ok(document) = String::from_utf8(bytes) else {
                continue;
            };
            failed += usize::from(!parse_checked(&document));
        }
        assert!(failed > 0, "no mutation of {base:?} failed");
    }
}
