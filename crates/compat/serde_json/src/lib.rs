//! Offline stand-in for `serde_json`: renders the serde stand-in's
//! [`serde::Value`] tree to JSON text and parses it back.
//!
//! Output is deterministic — map entries emit in insertion order, and
//! float formatting uses Rust's shortest-roundtrip `Display`, so repeated
//! runs of the same simulation produce byte-identical files.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::Write;

/// Error type mirroring `serde_json::Error`: parse or decode failure.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
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
    out.push('"');
}

fn fmt_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        // serde_json emits null for non-finite floats.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Match serde_json: integral floats print with a trailing `.0`.
        // Below 1e15 the value is exact as an `i64`, whose digits are the
        // same as `{x:.1}`'s and much cheaper to print; only the sign of
        // `-0.0` is lost in the conversion.
        if x == 0.0 && x.is_sign_negative() {
            out.push('-');
        }
        let _ = write!(out, "{}.0", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => fmt_f64(*x, out),
        Value::Str(s) => escape_into(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out);
    Ok(out)
}

/// Serialize to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Parse a JSON string into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing data at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error(format!("expected `{word}` at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => {
                            return Err(Error(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let v = self.value()?;
                    entries.push((k, v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => {
                            return Err(Error(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .ok_or_else(|| Error("bad \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("bad \\u escape".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error(format!("bad number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<bool>(" true ").unwrap(), true);
    }

    #[test]
    fn roundtrip_containers() {
        let v: Vec<u64> = vec![1, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let s = String::from("a\"b\\c\nd");
        let json = to_string(&s).unwrap();
        assert_eq!(json, r#""a\"b\\c\nd""#);
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn pretty_is_stable() {
        let v = Value::Map(vec![
            ("b".into(), Value::U64(1)),
            ("a".into(), Value::Seq(vec![Value::U64(2)])),
        ]);
        let mut out = String::new();
        write_pretty(&v, 0, &mut out);
        assert_eq!(out, "{\n  \"b\": 1,\n  \"a\": [\n    2\n  ]\n}");
    }

    /// The float rule before integral floats were printed through `i64`:
    /// `{x:.1}` below 1e15, shortest round-trip `Display` otherwise.
    fn fmt_f64_reference(x: f64) -> String {
        if !x.is_finite() {
            "null".into()
        } else if x == x.trunc() && x.abs() < 1e15 {
            format!("{x:.1}")
        } else {
            format!("{x}")
        }
    }

    #[test]
    fn float_output_matches_the_format_rule_byte_for_byte() {
        let check = |x: f64| {
            let mut out = String::new();
            fmt_f64(x, &mut out);
            assert_eq!(out, fmt_f64_reference(x), "bits {:#018x}", x.to_bits());
        };
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            1e15,
            -1e15,
            below(1e15),
            above(1e15),
            -below(1e15),
            -above(1e15),
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15 + 1.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            below(f64::MIN_POSITIVE),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(x);
        }
        // Random bit patterns cover every exponent; random integers below
        // 2^50 cover the integral fast path, which random bits rarely hit.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..100_000 {
            let bits = next();
            check(f64::from_bits(bits));
            let int = (bits >> 14) as i64 * if bits & 1 == 0 { 1 } else { -1 };
            check(int as f64);
        }
    }

    #[test]
    fn strings_print_whole_or_escaped() {
        for (s, json) in [
            ("plain ascii", r#""plain ascii""#),
            ("ünïcödé ✓", r#""ünïcödé ✓""#),
            ("", r#""""#),
            ("tab\there", r#""tab\there""#),
            ("bell\u{7}", r#""bell\u0007""#),
            ("ünï\"q\"", r#""ünï\"q\"""#),
        ] {
            assert_eq!(to_string(&s.to_string()).unwrap(), json);
            assert_eq!(from_str::<String>(json).unwrap(), s);
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("42 xyz").is_err());
    }
}
