//! Hand-rolled JSON support for the accuracy gate (`eval`): a parser
//! covering just enough of the grammar for `EVAL_matrix.json`, plus a
//! deterministic serializer for emitting it. Hand-rolled like everything
//! else in the workspace — the matrix is a small, known shape and the
//! crate policy is no third-party dependencies. Strings render through
//! the workspace's one JSON string writer, [`matelda_obs::json_string`].

use matelda_obs::json_string;

/// A parsed JSON value (just enough of the grammar for the matrix file).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON. Numbers use the
    /// shortest `f64` display (NaN/∞, which JSON cannot represent, are
    /// emitted as `null` — the gate treats a null metric as a missing
    /// one). Object key order is preserved, so rendering is
    /// deterministic for deterministically built documents.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number chars");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        let c = char::from_u32(code).ok_or("non-scalar \\u escape")?;
                        out.extend_from_slice(c.to_string().as_bytes());
                    }
                    _ => return Err(format!("unsupported escape \\{}", esc as char)),
                }
            }
            _ => out.push(b),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_bench_shape() {
        let doc = Json::parse(
            r#"{"bench":"stages","scale":"full","neg":-4.28e0,"flag":true,
                "stages":[{"stage":"classify","items_per_sec_1t":128044.9}],
                "none":null,"esc":"a\"b\\cA"}"#,
        )
        .expect("parses");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("stages"));
        assert_eq!(doc.get("neg").and_then(Json::as_num), Some(-4.28));
        assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        assert_eq!(doc.get("esc").and_then(Json::as_str), Some("a\"b\\cA"));
        let stages = doc.get("stages").and_then(Json::as_arr).expect("array");
        assert_eq!(stages[0].get("items_per_sec_1t").and_then(Json::as_num), Some(128044.9));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn render_round_trips_through_parse() {
        let doc = Json::Obj(vec![
            ("name".to_string(), Json::Str("a\"b\\c\nd".to_string())),
            ("n".to_string(), Json::Num(1.5)),
            ("zero".to_string(), Json::Num(0.0)),
            ("flag".to_string(), Json::Bool(false)),
            ("none".to_string(), Json::Null),
            (
                "arr".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Str(String::new()), Json::Obj(vec![])]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("rendered JSON parses");
        assert_eq!(back, doc);
        // Rendering is stable: render(parse(render(x))) == render(x).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn render_emits_non_finite_numbers_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(1.0).render(), "1");
        assert_eq!(Json::Num(0.25).render(), "0.25");
    }
}
