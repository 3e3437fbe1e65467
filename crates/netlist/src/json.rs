//! The one JSON writer: every report (`kms -f json`, `kms-lint`, the
//! solver and certification counters) and every
//! `BENCH_*.json` file builds a [`Json`] value and renders it in one of
//! two layouts, [`Json::compact`] or [`Json::rows`]. Objects keep
//! insertion order, so a report's key order is the order in which its
//! `to_json` lists the fields.

use std::fmt::{self, Write as _};

/// A JSON value whose objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// An integer, rendered exactly.
    Int(i128),
    /// A float rendered with a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string, escaped on rendering.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members render in the order given.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// One line: `{"k": v, ...}`, `[a, b]`; no trailing newline.
    pub fn compact(&self) -> String {
        self.render(None)
    }

    /// One line per member of a top-level object and per element of an
    /// array that is such a member (or of a top-level array), everything
    /// deeper compact; ends in a newline. The `BENCH_*.json` shape.
    pub fn rows(&self) -> String {
        self.render(Some("")) + "\n"
    }

    fn render(&self, rows: Option<&str>) -> String {
        let mut out = String::new();
        self.write(&mut out, rows)
            .expect("writing to a String cannot fail");
        out
    }

    /// Writes the value; `rows` is `Some(indent)` when each entry of this
    /// array or object goes on its own line, one level past `indent`.
    fn write(&self, out: &mut String, rows: Option<&str>) -> fmt::Result {
        let entries: Vec<(Option<&str>, &Json)> = match self {
            Json::Bool(b) => return write!(out, "{b}"),
            Json::Int(n) => return write!(out, "{n}"),
            Json::Fixed(x, decimals) => return write!(out, "{x:.decimals$}"),
            Json::Str(s) => return write_escaped(out, s),
            Json::Array(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Object(members) => members.iter().map(|(k, v)| (Some(*k), v)).collect(),
        };
        let (open, close) = match self {
            Json::Array(_) => ("[", "]"),
            _ => ("{", "}"),
        };
        let rows = rows.filter(|_| !entries.is_empty());
        out.write_str(open)?;
        for (i, (key, value)) in entries.into_iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            match rows {
                Some(indent) => write!(out, "{sep}\n{indent}  ")?,
                None if i > 0 => out.write_str(", ")?,
                None => {}
            }
            if let Some(key) = key {
                write_escaped(out, key)?;
                out.write_str(": ")?;
            }
            // Of the nested values, only a top-level object's arrays expand.
            let expand = rows == Some("") && key.is_some() && matches!(value, Json::Array(_));
            value.write(out, expand.then_some("  "))?;
        }
        if let Some(indent) = rows {
            write!(out, "\n{indent}")?;
        }
        out.write_str(close)
    }
}

/// Writes `s` as a JSON string literal: quotes and backslashes escaped,
/// every control character as `\n`, `\r`, `\t` or `\u00XX`.
fn write_escaped(out: &mut String, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_str("\"")
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

// Lossless for every value rendered: the only `u128` source is a
// `Duration` in nanoseconds, which stays below 2^95.
macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}

int_from!(u64, i64, usize, u128);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let v = Json::from("q\"b\\n\nr\rt\tc\u{1}e\u{1f}é");
        assert_eq!(v.compact(), r#""q\"b\\n\nr\rt\tc\u0001e\u001fé""#);
    }

    #[test]
    fn fixed_precision_and_integers() {
        let v = Json::Array(vec![
            Json::Fixed(1.0 / 3.0, 6),
            Json::Fixed(0.12345, 4),
            Json::Fixed(2.5e6, 0),
            Json::from(-7i64),
            Json::from(u64::MAX),
            Json::from(false),
        ]);
        assert_eq!(
            v.compact(),
            format!("[0.333333, 0.1235, 2500000, -7, {}, false]", u64::MAX)
        );
    }

    #[test]
    fn rows_expands_only_the_top_two_levels() {
        let v = Json::Object(vec![
            ("k", 1u64.into()),
            ("empty", Json::Array(vec![])),
            (
                "obj",
                Json::Object(vec![("a", Json::Array(vec![1u64.into()]))]),
            ),
            (
                "rows",
                Json::Array(vec![Json::Object(vec![(
                    "inner",
                    Json::Array(vec![2u64.into(), 3u64.into()]),
                )])]),
            ),
        ]);
        assert_eq!(
            v.rows(),
            "{\n  \"k\": 1,\n  \"empty\": [],\n  \"obj\": {\"a\": [1]},\n  \"rows\": [\n    \
             {\"inner\": [2, 3]}\n  ]\n}\n"
        );
    }

    #[test]
    fn rows_of_non_objects() {
        assert_eq!(Json::Object(vec![]).rows(), "{}\n");
        assert_eq!(
            Json::Array(vec![1u64.into(), 2u64.into()]).rows(),
            "[\n  1,\n  2\n]\n"
        );
        assert_eq!(Json::from("s").rows(), "\"s\"\n");
    }
}
