//! A minimal JSON value with a writer — enough to print the result line
//! and write `BENCHMARK.json` and the baseline files without a dependency
//! the container does not have — and, for the tests that read those back,
//! a parser.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so written files diff cleanly.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN; a metric that is one is a bug the reader of
            // the line will refuse.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // `{}` prints the shortest digits that round-trip, so a
            // measured value keeps every digit it has.
            Json::Num(n) => write!(out, "{n}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Indented encoding for files people read: one entry per line, except
    /// that arrays and objects holding only scalars (a command line, a
    /// metric, a workload) stay on their line.
    pub fn pretty(&self, indent: usize, out: &mut String) {
        let pad = |n: usize, out: &mut String| out.extend(std::iter::repeat_n(' ', 2 * n));
        let entries: Vec<(Option<&str>, &Json)> = match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(pairs) => pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            _ => Vec::new(),
        };
        if entries.iter().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))) {
            return self.write(out);
        }
        let (open, close) = if matches!(self, Json::Arr(_)) { ('[', ']') } else { ('{', '}') };
        out.push(open);
        out.push('\n');
        for (i, (key, v)) in entries.iter().enumerate() {
            pad(indent + 1, out);
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(": ");
            }
            v.pretty(indent + 1, out);
            out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
        }
        pad(indent, out);
        out.push(close);
    }

    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let Some(&c) = self.s.get(self.i) else {
            return Err("unexpected end of input".into());
        };
        match c {
            b't' if self.eat("true") => Ok(Json::Bool(true)),
            b'f' if self.eat("false") => Ok(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.i));
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.i));
                    }
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    pairs.push((key, self.value()?));
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("name", Json::str("a \"quoted\" \\ line\nbreak \u{1} µs")),
            (
                "nested",
                Json::Arr(vec![
                    Json::Bool(false),
                    Json::Num(-1.5e-7),
                    Json::obj([("k", Json::Num(0.1))]),
                ]),
            ),
            ("empty", Json::Obj(Vec::new())),
        ]);
        let text = v.to_string();
        assert!(!text.contains('\n'), "result line must be one line");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(1000.0));
    }

    #[test]
    fn pretty_output_parses_to_the_same_value() {
        let v = Json::obj([
            ("command", Json::Arr(vec![Json::str("cargo"), Json::str("run")])),
            ("run_seconds", Json::Num(6.0)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([("name", Json::str("a")), ("why", Json::str("b"))])]),
            ),
            (
                "nested",
                Json::obj([
                    ("inner", Json::obj([("x", Json::Num(1.0))])),
                    ("none", Json::Arr(Vec::new())),
                ]),
            ),
        ]);
        let mut text = String::new();
        v.pretty(0, &mut text);
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(text.contains("\n  \"command\": [\"cargo\",\"run\"],\n"), "{text}");
        assert!(text.contains("\n    {\"name\":\"a\",\"why\":\"b\"}\n"), "{text}");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let text = Json::Num(1.203_456_789_012_345).to_string();
        assert_eq!(text, "1.203456789012345");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "tru", "\"open", "1 1"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(Vec::new()));
    }
}
