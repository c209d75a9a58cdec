//! Minimal JSON tree: parse, query and emit — the workspace's one JSON
//! writer.
//!
//! The CI gates (`fitact diff-report`, `fitact bench-gate`) must *read* the
//! machine-readable reports the pipeline emits, and the build environment is
//! offline (no serde). This module implements the small JSON subset those
//! reports use: objects, arrays, strings, finite numbers, booleans and
//! null — which is all of standard JSON except exotic escapes (`\uXXXX` is
//! supported).
//!
//! Every JSON document the workspace writes — CLI reports, campaign reports
//! ([`JsonValue::from`] a [`CampaignReport`]), serve and coordinator bodies —
//! is a [`JsonValue`] rendered through its `Display`, so string escaping and
//! number formatting live only here.
//!
//! Numbers parse into `f64`, matching how the reports are produced (Rust's
//! shortest-round-trip float formatting), so a value survives an emit →
//! parse cycle exactly. `f32` values are widened to `f64` first, which is
//! exact; non-finite values — illegal in JSON — are emitted as `null`.

use fitact_faults::{CampaignReport, StratumReport, WilsonInterval};
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, preserving key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error, with
    /// its byte offset.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object<'a>(entries: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Looks up a key of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Descends through a chain of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&JsonValue> {
        let mut current = self;
        for key in keys {
            current = current.get(key)?;
        }
        Some(current)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(v) => write_number(f, *v),
            JsonValue::String(s) => write_string(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes an `f64` as its shortest round-trip decimal; non-finite values
/// (illegal in JSON) become `null`.
fn write_number(f: &mut fmt::Formatter<'_>, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(f, "{v}")
    } else {
        f.write_str("null")
    }
}

/// Writes a string quoted and escaped.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<f32> for JsonValue {
    /// Widens exactly, so the value parses back bit-equal as an `f32`.
    fn from(v: f32) -> Self {
        JsonValue::Number(f64::from(v))
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl From<&CampaignReport> for JsonValue {
    /// Renders a statistical-campaign report (the `report` object of
    /// `fitact campaign`, read back by `fitact diff-report`):
    ///
    /// ```json
    /// {
    ///   "fault_free_accuracy": 0.97, "fault_rate": 1e-6, "model": "bitflip",
    ///   "confidence": 0.95, "epsilon": 0.02, "critical_threshold": 0.05,
    ///   "allocation": "equal",
    ///   "rounds": 4, "converged": true, "total_trials": 96, "total_faults": 12,
    ///   "pooled_critical": {"successes":1,"trials":96,"point":…,"low":…,"high":…},
    ///   "pooled_sdc": {…},
    ///   "stratified_critical_half_width": 0.0312,
    ///   "population_weighted_critical_rate": 0.0104,
    ///   "strata": [ {"label":…,"population_bits":…,"weight":…,"trials":…,
    ///                "masked":…,"tolerable":…,"critical":…,"total_faults":…,
    ///                "mean_accuracy":…,"critical_ci":{…},"sdc_ci":{…}}, … ]
    /// }
    /// ```
    fn from(report: &CampaignReport) -> Self {
        JsonValue::object([
            ("fault_free_accuracy", report.fault_free_accuracy.into()),
            ("fault_rate", report.fault_rate.into()),
            ("model", report.model.as_str().into()),
            ("confidence", report.confidence.into()),
            ("epsilon", report.epsilon.into()),
            ("critical_threshold", report.critical_threshold.into()),
            ("allocation", report.allocation.name().into()),
            ("rounds", report.rounds.into()),
            ("converged", report.converged.into()),
            ("total_trials", report.total_trials().into()),
            ("total_faults", report.total_faults().into()),
            ("pooled_critical", interval(&report.pooled_critical())),
            ("pooled_sdc", interval(&report.pooled_sdc())),
            (
                "stratified_critical_half_width",
                report.stratified_critical_half_width().into(),
            ),
            (
                "population_weighted_critical_rate",
                report.population_weighted_critical_rate().into(),
            ),
            (
                "strata",
                JsonValue::Array(report.strata.iter().map(stratum).collect()),
            ),
        ])
    }
}

/// One stratum's outcome counts and intervals.
fn stratum(s: &StratumReport) -> JsonValue {
    JsonValue::object([
        ("label", s.label.as_str().into()),
        ("population_bits", s.population_bits.into()),
        ("weight", s.weight.into()),
        ("trials", s.trials().into()),
        ("masked", s.masked.into()),
        ("tolerable", s.tolerable.into()),
        ("critical", s.critical.into()),
        ("total_faults", s.total_faults.into()),
        ("mean_accuracy", s.mean_accuracy().into()),
        ("critical_ci", interval(&s.critical_ci)),
        ("sdc_ci", interval(&s.sdc_ci)),
    ])
}

/// A Wilson interval with its point estimate.
fn interval(ci: &WilsonInterval) -> JsonValue {
    JsonValue::object([
        ("successes", ci.successes.into()),
        ("trials", ci.trials.into()),
        ("point", ci.point().into()),
        ("low", ci.low.into()),
        ("high", ci.high.into()),
    ])
}

/// Maximum container nesting the parser accepts. The recursive-descent
/// `value → array/object → value` cycle consumes stack per level, and parse
/// input is not always trusted (`fitact serve` feeds request bodies here),
/// so depth must be bounded the same way the artifact decoder bounds its
/// spec tree — a typed error, never a stack overflow.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth >= MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"`, `\` or
            // control character in one slice: all three are ASCII, so they
            // are char boundaries of the `&str` input and the run is valid
            // UTF-8. Scanning once per run keeps parsing linear in the
            // string's length.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {}
                _ => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    // Exactly four hex digits, and no sign.
                    let code = hex
                        .iter()
                        .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
                        .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
                    out.push(
                        char::from_u32(code).ok_or_else(|| "invalid \\u code point".to_string())?,
                    );
                    self.pos += 4;
                }
                _ => return Err(format!("invalid escape at byte {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let n = self.bytes[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n
    }

    /// A number in the RFC 8259 grammar,
    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, whose value is
    /// a finite `f64`: `01`, `1.`, `.5` and `1e999` are errors.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let invalid = || format!("invalid number at byte {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(invalid());
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid()),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid());
            }
        }
        let text = &self.text[start..self.pos];
        let value: f64 = text.parse().map_err(|_| invalid())?;
        if !value.is_finite() {
            return Err(format!("number `{text}` at byte {start} is out of range"));
        }
        Ok(JsonValue::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_emit_round_trip() {
        let doc = r#"{"a": 1.5, "b": [true, false, null], "s": "x\"y\n", "nested": {"k": -3e-2}}"#;
        let value = JsonValue::parse(doc).unwrap();
        assert_eq!(value.path(&["nested", "k"]).unwrap().as_f64(), Some(-0.03));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        // Emit → parse is stable.
        let emitted = value.to_string();
        assert_eq!(JsonValue::parse(&emitted).unwrap(), value);
    }

    #[test]
    fn numbers_survive_shortest_roundtrip_formatting() {
        for v in [0.123456789012345_f64, 4.871, 1e-6, -0.0, 1.0 / 3.0] {
            let text = JsonValue::from(v).to_string();
            let parsed = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(JsonValue::from(4.871).to_string(), "4.871");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(JsonValue::from(v).to_string(), "null");
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            JsonValue::from("a\"b\\c\n").to_string(),
            "\"a\\\"b\\\\c\\n\""
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of plain characters (ASCII and multi-byte) with an escape
        // every 64 KiB. Copying each plain run as one slice parses this in
        // tens of milliseconds even in a debug build; a parser that
        // re-validates the rest of the input per character needs hours.
        let chunk = format!("{}\\n", "ab\u{e9}\u{20ac}".repeat(9362));
        let body = chunk.repeat(64);
        assert_eq!((chunk.len(), body.len()), (64 << 10, 4 << 20));
        let doc = format!("{{\"s\":\"{body}\"}}");
        // Parse on a helper thread so that a slow parser fails at the
        // deadline instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let _ = tx.send(JsonValue::parse(&doc));
        });
        let parsed = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            !matches!(parsed, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a 4 MiB string did not parse within 10 s"
        );
        parser.join().expect("the parser thread panicked");
        let value = parsed.unwrap().unwrap();
        let parsed = value.get("s").and_then(JsonValue::as_str).unwrap();
        assert_eq!(parsed, body.replace("\\n", "\n"));
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1..2",
            // Numbers outside the RFC 8259 grammar, or not finite as f64.
            "01",
            "-01",
            "00",
            "1.",
            "-",
            "-a",
            ".5",
            "+1",
            "1e",
            "1e+",
            "1.e3",
            "--1",
            "0x10",
            "1.5.2",
            "1e999",
            "-1e999",
            "[1e400]",
            // `\u` takes exactly four hex digits.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u041""#,
            r#""\u 041""#,
            r#""\u00g1""#,
            // Raw U+0000–U+001F inside a string.
            "\"a\u{0}b\"",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "\"\u{1f}\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?}");
        }
        let err = JsonValue::parse("1e999").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn rfc_numbers_and_escapes_parse() {
        for good in [
            "0", "-0", "10", "1.5", "-0.25", "1e3", "1E+3", "2.5e-3", "1e-999",
        ] {
            assert!(JsonValue::parse(good).is_ok(), "{good}");
        }
        let escaped = JsonValue::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(escaped.as_str(), Some("Aé"));
        // DEL and everything above U+001F stay plain characters.
        let plain = JsonValue::parse("\"\u{7f} \u{20}\"").unwrap();
        assert_eq!(plain.as_str(), Some("\u{7f} \u{20}"));
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        // Depth just under the cap parses; just past it fails cleanly.
        let ok = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(JsonValue::parse(&ok).is_ok());
        let deep = format!(
            "{}0{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A network-scale bracket bomb (the /predict attack shape) must
        // error, not blow the connection thread's stack.
        let bomb = "[".repeat(200_000);
        assert!(JsonValue::parse(&bomb).is_err());
        let object_bomb = "{\"k\":".repeat(200_000);
        assert!(JsonValue::parse(&object_bomb).is_err());
    }

    #[test]
    fn unicode_escape_and_control_escaping() {
        let value = JsonValue::parse(r#""éA""#).unwrap();
        assert_eq!(value.as_str(), Some("éA"));
        let emitted = JsonValue::String("a\u{1}b".into()).to_string();
        assert_eq!(emitted, "\"a\\u0001b\"");
        assert_eq!(
            JsonValue::parse(&emitted).unwrap().as_str(),
            Some("a\u{1}b")
        );
    }

    fn stratum(
        label: &str,
        population_bits: u64,
        weight: f64,
        accuracies: Vec<f32>,
        (masked, tolerable, critical): (usize, usize, usize),
        total_faults: u64,
    ) -> StratumReport {
        let z = fitact_faults::z_for_confidence(0.95);
        let trials = accuracies.len() as u64;
        StratumReport {
            label: label.into(),
            population_bits,
            weight,
            accuracies,
            masked,
            tolerable,
            critical,
            total_faults,
            critical_ci: WilsonInterval::new(critical as u64, trials, z),
            sdc_ci: WilsonInterval::new((tolerable + critical) as u64, trials, z),
        }
    }

    /// Two strata, a label that needs escaping and a non-finite `epsilon`.
    /// The expected text was captured from the renderer that preceded this
    /// one, and `fitact diff-report` compares numbers only, so this test is
    /// what pins the report's keys and their order.
    #[test]
    fn campaign_report_renders_the_pinned_layout() {
        let report = CampaignReport {
            fault_free_accuracy: 0.96875,
            fault_rate: 1e-3,
            model: "bitflip".into(),
            confidence: 0.95,
            epsilon: f64::INFINITY,
            critical_threshold: 0.05,
            rounds: 3,
            converged: false,
            allocation: fitact_faults::AllocationPolicy::Neyman,
            strata: vec![
                stratum(
                    "sign \"msb\"\\\n\u{1}",
                    4096,
                    0.25,
                    vec![0.96875, 0.5, 0.9375],
                    (1, 1, 1),
                    5,
                ),
                stratum(
                    "mantissa",
                    12288,
                    0.75,
                    vec![0.96875, 0.90625, 0.96875, 0.125],
                    (2, 1, 1),
                    9,
                ),
            ],
        };
        let expected = concat!(
            r#"{"fault_free_accuracy":0.96875,"fault_rate":0.001,"model":"bitflip","#,
            r#""confidence":0.95,"epsilon":null,"critical_threshold":0.05000000074505806,"#,
            r#""allocation":"neyman","rounds":3,"converged":false,"total_trials":7,"#,
            r#""total_faults":14,"pooled_critical":{"successes":2,"trials":7,"#,
            r#""point":0.2857142857142857,"low":0.08221892392691232,"high":0.6410655484026205},"#,
            r#""pooled_sdc":{"successes":4,"trials":7,"point":0.5714285714285714,"#,
            r#""low":0.2504583643462755,"high":0.8417801448772135},"#,
            r#""stratified_critical_half_width":0.38189783088347307,"#,
            r#""population_weighted_critical_rate":0.2708333333333333,"strata":["#,
            r#"{"label":"sign \"msb\"\\\n\u0001","population_bits":4096,"weight":0.25,"#,
            r#""trials":3,"masked":1,"tolerable":1,"critical":1,"total_faults":5,"#,
            r#""mean_accuracy":0.8020833134651184,"critical_ci":{"successes":1,"trials":3,"#,
            r#""point":0.3333333333333333,"low":0.061491944648904784,"high":0.7923403994017792},"#,
            r#""sdc_ci":{"successes":2,"trials":3,"point":0.6666666666666666,"#,
            r#""low":0.20765960059822086,"high":0.9385080553510953}},"#,
            r#"{"label":"mantissa","population_bits":12288,"weight":0.75,"trials":4,"#,
            r#""masked":2,"tolerable":1,"critical":1,"total_faults":9,"#,
            r#""mean_accuracy":0.7421875,"critical_ci":{"successes":1,"trials":4,"point":0.25,"#,
            r#""low":0.04558726075713143,"high":0.6993581576716372},"#,
            r#""sdc_ci":{"successes":2,"trials":4,"point":0.5,"low":0.15003898900822643,"#,
            r#""high":0.8499610109917736}}]}"#,
        );
        assert_eq!(JsonValue::from(&report).to_string(), expected);
    }
}
