//! The little JSON the benchmark writes: a value tree and a printer.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Printed with every digit; a non-finite number prints as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// On one line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|i| i + 1);
        let newline = |out: &mut String, level: Option<usize>| {
            if let Some(level) = level {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
        };
        match self {
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => quote(out, s),
            // Scalars share a line; containers get a line each, compact.
            Json::Arr(items) => {
                let lines = indent.filter(|_| {
                    items
                        .iter()
                        .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_)))
                });
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(match (i, lines) {
                        (0, _) => "",
                        (_, Some(_)) => ",",
                        (_, None) => ", ",
                    });
                    newline(out, lines.map(|l| l + 1));
                    item.write(out, None);
                }
                if !items.is_empty() {
                    newline(out, lines);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(match (i, indent) {
                        (0, _) => "",
                        (_, Some(_)) => ",",
                        (_, None) => ", ",
                    });
                    newline(out, inner);
                    quote(out, key);
                    out.push_str(": ");
                    value.write(out, inner);
                }
                if !members.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_compact_and_pretty() {
        let doc = Json::obj([
            ("ok", Json::Bool(true)),
            ("n", Json::Num(1.5)),
            ("inf", Json::Num(f64::INFINITY)),
            ("s", Json::str("a\"b\n")),
            ("list", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("a", Json::Num(1.0))]),
                    Json::obj([("b", Json::Num(2.0))]),
                ]),
            ),
            ("empty", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            doc.compact(),
            r#"{"ok": true, "n": 1.5, "inf": null, "s": "a\"b\n", "list": [1, 2], "rows": [{"a": 1}, {"b": 2}], "empty": {}}"#
        );
        assert_eq!(
            doc.pretty(),
            "{\n  \"ok\": true,\n  \"n\": 1.5,\n  \"inf\": null,\n  \"s\": \"a\\\"b\\n\",\n  \"list\": [1, 2],\n  \"rows\": [\n    {\"a\": 1},\n    {\"b\": 2}\n  ],\n  \"empty\": {}\n}\n"
        );
    }
}
