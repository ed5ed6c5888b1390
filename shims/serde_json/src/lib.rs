//! JSON printing/parsing over the serde shim's [`Value`] model, with the
//! `serde_json` API surface this workspace uses: `to_vec`, `to_string`,
//! `to_string_pretty`, `from_slice`, `from_str`, `Value`, and the `json!`
//! macro (including nested object/array literals).

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON error (parse or conversion).
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.serialize_value()
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &to_value(value));
    Ok(out)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Serialize to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &to_value(value), 0);
    Ok(out)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::deserialize_value(&value).map_err(Error::from)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---- writer ------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, v: &Value) {
    match *v {
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's Display for f64 is shortest-round-trip, so the
                // parse side recovers the value exactly.
                out.push_str(&f.to_string());
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        _ => unreachable!("write_number on non-number"),
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => write_number(out, v),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(indent + 1));
                write_escaped(out, k);
                out.push_str(": ");
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        other => write_value(out, other),
    }
}

// ---- parser ------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "unterminated array at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::new(format!(
                        "unterminated object at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !(self.literal("\\u")) {
                                    return Err(Error::new("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("bad surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| Error::new("bad codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice. Both are ASCII, so they never fall inside a
                    // multi-byte UTF-8 sequence and the run splits cleanly.
                    let run = &self.bytes[self.pos..];
                    let len = run
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(run.len());
                    let text = std::str::from_utf8(&run[..len])
                        .map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
                    out.push_str(text);
                    self.pos += len;
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
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
            .map_err(|_| Error::new("bad number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

// ---- json! macro -------------------------------------------------------

/// Build a [`Value`] from a JSON-shaped literal. Nested `{…}`/`[…]`
/// literals recurse; any other value position takes a Rust expression
/// implementing `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let mut obj: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::json_object!(obj; $($body)*);
        $crate::Value::Object(obj)
    }};
    ([ $($body:tt)* ]) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let mut arr: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array!(arr; $($body)*);
        $crate::Value::Array(arr)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Implementation detail of [`json!`]: munches array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ($arr:ident;) => {};
    ($arr:ident; { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!({ $($inner)* }));
        $( $crate::json_array!($arr; $($rest)*); )?
    };
    ($arr:ident; [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $arr.push($crate::json!([ $($inner)* ]));
        $( $crate::json_array!($arr; $($rest)*); )?
    };
    ($arr:ident; $val:expr , $($rest:tt)*) => {
        $arr.push($crate::to_value(&$val));
        $crate::json_array!($arr; $($rest)*);
    };
    ($arr:ident; $val:expr) => {
        $arr.push($crate::to_value(&$val));
    };
}

/// Implementation detail of [`json!`]: munches `"key": value` pairs.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ($obj:ident;) => {};
    ($obj:ident; $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $obj.push(($key.to_string(), $crate::json!({ $($inner)* })));
        $( $crate::json_object!($obj; $($rest)*); )?
    };
    ($obj:ident; $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $obj.push(($key.to_string(), $crate::json!([ $($inner)* ])));
        $( $crate::json_object!($obj; $($rest)*); )?
    };
    ($obj:ident; $key:literal : $val:expr , $($rest:tt)*) => {
        $obj.push(($key.to_string(), $crate::to_value(&$val)));
        $crate::json_object!($obj; $($rest)*);
    };
    ($obj:ident; $key:literal : $val:expr) => {
        $obj.push(($key.to_string(), $crate::to_value(&$val)));
    };
}

#[cfg(test)]
#[allow(clippy::vec_init_then_push)] // json! expands to push sequences
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({
            "name": "hpmdr",
            "count": 3usize,
            "ratio": 0.125,
            "neg": -7,
            "flag": true,
            "nested": { "a": [1, 2, 3] },
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
        assert_eq!(back["name"], "hpmdr");
        assert_eq!(back["nested"]["a"][1], 2);
    }

    #[test]
    fn float_precision_roundtrips() {
        for x in [1.0e-300f64, 0.1, 1.5e300, -2.2250738585072014e-308, 33.333] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\te\u{1F600}".to_string());
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn multibyte_utf8_next_to_escapes_round_trips() {
        for (json, want) in [
            ("\"é\\n漢\\\"字\\\\😀\"", "é\n漢\"字\\😀"),
            ("\"\\t😀\\u00e9ü\"", "\t😀éü"),
            ("\"ß\\/Ω\\r\"", "ß/Ω\r"),
            ("\"\\u263a☺\\ud83d\\ude00\"", "☺☺😀"),
        ] {
            let v: Value = from_str(json).unwrap();
            assert_eq!(v, Value::Str(want.to_string()), "{json}");
            let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(back, v, "{json}");
        }
    }

    #[test]
    fn invalid_utf8_inside_a_string_is_an_error() {
        for bad in [
            &b"\"ab\xff\""[..],
            b"\"\\n\xc3\"",
            b"{\"k\": \"\xe6\xbc\"}",
            b"[\"ok\", \"\xf0\x9f\x98\"]",
        ] {
            assert!(from_slice::<Value>(bad).is_err(), "{bad:?}");
        }
        // The parser itself rejects a bad run, whatever its caller checked.
        let mut p = Parser {
            bytes: b"\"a\xffb\\n\"",
            pos: 0,
        };
        assert!(p.string().is_err());
    }

    #[test]
    fn pretty_output_parses() {
        let v = json!({ "rows": [ { "k": 1 } ], "empty": [] });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_errors_do_not_panic() {
        for bad in ["", "{", "[1,", "\"abc", "truu", "{\"a\" 1}", "garbage"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn scientific_notation_parses() {
        let v: Value = from_str("[1e3, -2.5E-2, 0.0]").unwrap();
        assert_eq!(v[0].as_f64(), Some(1000.0));
        assert_eq!(v[1].as_f64(), Some(-0.025));
    }
}
