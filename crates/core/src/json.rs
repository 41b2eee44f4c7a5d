//! The one JSON writer behind every report and `BENCH_*.json` record: an
//! [`Object`] keeps its fields in order, escapes strings, writes numbers to
//! the caller's decimals (`null` when not finite) and nests other objects.

use std::fmt;

/// How an [`Object`] separates its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One field per line, and one row per line in a [`rows`](Object::rows) array.
    Pretty,
    /// One line: `{"a": 1, "b": 2}`.
    OneLine,
    /// No whitespace: `{"a":1,"b":2}`.
    Compact,
}

/// A JSON object whose fields render in the order they were added.
#[derive(Debug, Clone)]
pub struct Object {
    layout: Layout,
    fields: Vec<String>,
}

impl Object {
    /// An empty object in `layout`.
    #[must_use]
    pub fn new(layout: Layout) -> Self {
        Self { layout, fields: Vec::new() }
    }

    /// Adds a field whose `Display` is JSON: an integer, an [`Object`], or
    /// text from [`fixed`], [`sci`] or a `to_json`.
    #[must_use]
    pub fn field(mut self, key: &str, json: impl fmt::Display) -> Self {
        let colon = if self.layout == Layout::Compact { ":" } else { ": " };
        self.fields.push(format!("{}{colon}{json}", string(key)));
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, string(value))
    }

    /// Adds a number with `decimals` digits after the point.
    #[must_use]
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, fixed(value, decimals))
    }

    /// Adds an array, on one line, of integers or JSON text.
    #[must_use]
    pub fn list(self, key: &str, values: impl IntoIterator<Item = impl fmt::Display>) -> Self {
        let separator = if self.layout == Layout::Compact { "," } else { ", " };
        let values: Vec<String> = values.into_iter().map(|value| value.to_string()).collect();
        self.field(key, format!("[{}]", values.join(separator)))
    }

    /// Adds an array of objects, one per line in a [`Layout::Pretty`] object.
    #[must_use]
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Object>) -> Self {
        let rows: Vec<String> = rows.into_iter().map(|row| row.to_string()).collect();
        if self.layout != Layout::Pretty || rows.is_empty() {
            return self.list(key, rows);
        }
        self.field(key, format!("[\n    {}\n  ]", rows.join(",\n    ")))
    }

    /// Appends `other`'s fields, as `other` rendered them, after this object's.
    #[must_use]
    pub fn extend(mut self, other: Object) -> Self {
        self.fields.extend(other.fields);
        self
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (open, separator, close) = match self.layout {
            Layout::Pretty => ("{\n  ", ",\n  ", "\n}"),
            Layout::OneLine => ("{", ", ", "}"),
            Layout::Compact => ("{", ",", "}"),
        };
        write!(f, "{open}{}{close}", self.fields.join(separator))
    }
}

/// `value` with `decimals` digits after the point, or `null`.
#[must_use]
pub fn fixed(value: f64, decimals: usize) -> String {
    Some(value)
        .filter(|v| v.is_finite())
        .map_or_else(|| "null".into(), |v| format!("{v:.decimals$}"))
}

/// `value` in exponent form with the fewest digits that read back exactly
/// (`3.5e-12`, `0e0`), or `null`.
#[must_use]
pub fn sci(value: f64) -> String {
    Some(value).filter(|v| v.is_finite()).map_or_else(|| "null".into(), |v| format!("{v:e}"))
}

/// `text` as a JSON string, with quotes, backslashes and control
/// characters escaped.
fn string(text: &str) -> String {
    let mut out = String::from('"');
    for c in text.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_numbers_and_escapes() {
        let sample = |layout| {
            let row = Object::new(Layout::OneLine).field("k", 3);
            Object::new(layout).str("n", "a").list("xs", [1, 2]).rows("rows", [row]).to_string()
        };
        let pretty = "{\n  \"n\": \"a\",\n  \"xs\": [1, 2],\n  \"rows\": [\n    {\"k\": 3}\n  ]\n}";
        assert_eq!(sample(Layout::Pretty), pretty);
        assert_eq!(
            sample(Layout::OneLine),
            "{\"n\": \"a\", \"xs\": [1, 2], \"rows\": [{\"k\": 3}]}"
        );
        // A nested object keeps its own layout.
        assert_eq!(sample(Layout::Compact), "{\"n\":\"a\",\"xs\":[1,2],\"rows\":[{\"k\": 3}]}");
        assert_eq!(
            [fixed(2.0 / 3.0, 3), fixed(1e3, 0), sci(3.5e-12)],
            ["0.667", "1000", "3.5e-12"]
        );
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!([fixed(value, 3), sci(value)], ["null", "null"]);
        }
        assert_eq!(string("a\"b\\c\nd\u{1}é"), "\"a\\\"b\\\\c\\u000ad\\u0001é\"");
    }
}
