//! A deterministic mutation fuzzer for the JSON decoders a socket reaches.
//!
//! Seed documents are a `/predict` body, a `Grant`, a `UnitResult` and a
//! CLI campaign report. [`mutants`] derives variants from each by byte
//! flips, inserts, deletes, truncations and spliced brackets, quotes and
//! backslashes, drawn from a SplitMix64 stream, so every run sees the same
//! inputs. Every input must decode to a value or a typed error, never a
//! panic, and every value must render to text that parses again. The
//! server's private `parse_rows` is driven from its own module's tests.

use crate::protocol::{unit_id, Grant, UnitResult, WorkUnit};
use fitact_faults::TrialPoint;
use fitact_io::JsonValue;

/// Mutants derived from each seed document.
pub(crate) const MUTANTS_PER_SEED: usize = 4000;

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny, seedable stream that is
/// identical on every platform.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bytes that change a JSON document's structure when spliced in.
const SPLICE: &[u8] = b"{}[]\",:\\-.e0u";

/// `count` mutants of `seed`, each one to four mutations away from it. The
/// first mutant of every stream is the unmodified seed.
pub(crate) fn mutants(seed: &[u8], stream: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64(stream);
    let mut out = vec![seed.to_vec()];
    while out.len() < count {
        let mut doc = seed.to_vec();
        for _ in 0..=rng.below(4) {
            let at = rng.below(doc.len() + 1);
            match rng.below(6) {
                0 if at < doc.len() => doc[at] ^= 1 << rng.below(8),
                1 => doc.insert(at, rng.next() as u8),
                2 if at < doc.len() => {
                    doc.remove(at);
                }
                3 => doc.truncate(at),
                4 => {
                    let run = 1 + rng.below(8);
                    let byte = SPLICE[rng.below(SPLICE.len())];
                    doc.splice(at..at, std::iter::repeat_n(byte, run));
                }
                _ => doc.insert(at, SPLICE[rng.below(SPLICE.len())]),
            }
        }
        out.push(doc);
    }
    out
}

/// The `/predict` seed body.
pub(crate) const PREDICT_BODY: &str =
    r#"{"inputs": [[0.5, -1.25, 3e-2, 0], [1, 2, 3, 4e0]], "note": "a\"b\\cé"}"#;

fn grant_seed() -> String {
    Grant::Unit {
        unit: WorkUnit {
            id: unit_id(3, 7),
            stratum: 2,
            start: 24,
            count: 4,
        },
        lease_ms: 30_000,
    }
    .to_json()
}

fn unit_result_seed() -> String {
    UnitResult {
        worker: "w\"0\\".into(),
        unit: WorkUnit {
            id: unit_id(1, 0),
            stratum: 0,
            start: 8,
            count: 3,
        },
        points: [(0.75_f32, 0), (f32::NAN, 2), (-0.0, 17)]
            .map(|(accuracy, faults)| TrialPoint { accuracy, faults })
            .to_vec(),
    }
    .to_json()
}

/// Every seed document, as bytes.
fn seeds() -> Vec<Vec<u8>> {
    vec![
        PREDICT_BODY.as_bytes().to_vec(),
        grant_seed().into_bytes(),
        unit_result_seed().into_bytes(),
        include_bytes!("../../io/tests/fixtures/campaign_report.json").to_vec(),
    ]
}

/// Every mutant of every seed, as (lossily decoded) text.
fn corpus() -> Vec<String> {
    seeds()
        .iter()
        .enumerate()
        .flat_map(|(i, seed)| mutants(seed, 0xF1A7 + i as u64, MUTANTS_PER_SEED))
        .map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        .collect()
}

#[test]
fn mutants_are_deterministic_and_varied() {
    let a = mutants(PREDICT_BODY.as_bytes(), 1, 64);
    assert_eq!(a, mutants(PREDICT_BODY.as_bytes(), 1, 64));
    assert_eq!(a[0], PREDICT_BODY.as_bytes());
    let distinct: std::collections::HashSet<_> = a.iter().collect();
    assert!(distinct.len() > 60, "{} distinct mutants", distinct.len());
}

#[test]
fn parsed_values_render_to_text_that_parses_again() {
    let (mut ok, mut err) = (0, 0);
    for text in corpus() {
        match JsonValue::parse(&text) {
            Ok(value) => {
                ok += 1;
                let rendered = value.to_string();
                let again = JsonValue::parse(&rendered)
                    .unwrap_or_else(|e| panic!("`{rendered}` does not parse again: {e}"));
                // Non-finite numbers (an overflowing `1e999`) render as
                // `null`, so the rendering, not the value, is the fixed point.
                assert_eq!(again.to_string(), rendered);
            }
            Err(_) => err += 1,
        }
    }
    // Both outcomes are exercised, not just the error paths.
    assert!(ok > 1000 && err > 5000, "{ok} parsed, {err} rejected");
}

#[test]
fn control_messages_decode_to_values_or_typed_errors() {
    let corpus = corpus();
    let (mut grants, mut results) = (0, 0);
    for text in &corpus {
        if let Ok(grant) = Grant::from_json(text) {
            grants += 1;
            assert_eq!(Grant::from_json(&grant.to_json()), Ok(grant));
        }
        if let Ok(result) = UnitResult::from_json(text) {
            results += 1;
            let encoded = result.to_json();
            let decoded = UnitResult::from_json(&encoded).expect("re-encoded result decodes");
            assert_eq!(decoded.to_json(), encoded);
        }
    }
    assert!(
        grants > 20 && results > 50,
        "{grants} grants, {results} results"
    );
}
