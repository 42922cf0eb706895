//! A minimal recursive-descent JSON parser, used by
//! [`crate::chrome::validate`] to schema-check emitted traces without an
//! external dependency. It accepts standard JSON (RFC 8259) and keeps
//! object keys in document order.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document (rejecting trailing garbage).
///
/// # Errors
/// Reports the byte offset and nature of the first syntax error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), at: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.at)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                other as char, self.at
                            ))
                        }
                    }
                }
                Some(_) => {
                    // A run of plain characters, up to the next `"` or
                    // `\`: both are ASCII, so the run ends on a
                    // character boundary.
                    let rest = &self.bytes[self.at..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or("unterminated string")?;
                    out.push_str(&self.text[self.at..self.at + len]);
                    self.at += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = &self.text[start..self.at];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn multibyte_strings_round_trip_through_escape() {
        // 1-, 2-, 3- and 4-byte characters next to escapes, and at both
        // ends of the string.
        let original = "é\"ß\\€\n𝄞 ab\u{0001}ü€𝄞";
        let doc = format!("[\"{}\", \"\\u00e9\"]", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(original));
        assert_eq!(v.as_arr().unwrap()[1].as_str(), Some("é"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of mixed-width characters with an escape every 49 bytes:
        // re-validating the rest of the document per character, as this
        // parser once did, makes this quadratic.
        let chunk = "abc€𝄞é".repeat(4) + "\n";
        let original = chunk.repeat((1 << 20) / chunk.len() + 1);
        let doc = format!("{{\"k\": \"{}\"}}", escape(&original));
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original.as_str()));
        assert!(took < std::time::Duration::from_millis(500), "took {took:?}");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "line1\nline\"2\"\t\\end\u{0001}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
    }
}
