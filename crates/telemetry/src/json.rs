//! Minimal hand-rolled JSON writer.
//!
//! The workspace is dependency-free, so exports cannot use serde. This
//! module provides the few primitives the snapshot and report code
//! need: a string escaper and a builder that tracks comma placement in
//! nested objects/arrays. Output is deterministic (insertion order)
//! and pretty-printed with two-space indents.

/// Escape a string per RFC 8259 and wrap it in quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` so it is valid JSON (no NaN/inf) and stable.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Enough precision for percentages and rates; trailing zeros
        // trimmed for readability.
        let s = format!("{v:.6}");
        let trimmed = s.trim_end_matches('0').trim_end_matches('.');
        if trimmed.is_empty() {
            "0".to_string()
        } else {
            trimmed.to_string()
        }
    } else {
        "null".to_string()
    }
}

/// Incremental writer for nested JSON objects and arrays.
pub struct JsonWriter {
    out: String,
    // One entry per open container: true once a first element was
    // written (so the next element needs a leading comma).
    stack: Vec<bool>,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    pub fn new() -> Self {
        Self {
            out: String::new(),
            stack: Vec::new(),
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    fn element(&mut self) {
        if let Some(seen) = self.stack.last_mut() {
            if *seen {
                self.out.push(',');
            }
            *seen = true;
            self.out.push('\n');
            self.indent();
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.element();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        let seen = self.stack.pop().unwrap_or(false);
        if seen {
            self.out.push('\n');
            self.indent();
        }
        self.out.push('}');
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        let seen = self.stack.pop().unwrap_or(false);
        if seen {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(']');
        self
    }

    /// Write `"key":` and leave the cursor expecting a value; pair with
    /// the `*_value` methods or a `begin_*` call.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.element();
        self.out.push_str(&escape(key));
        self.out.push_str(": ");
        // The value that follows is written through the raw `*_value`
        // paths, which never emit their own comma/newline.
        if let Some(seen) = self.stack.last_mut() {
            *seen = true;
        }
        self
    }

    pub fn u64_value(&mut self, v: u64) -> &mut Self {
        self.out.push_str(&v.to_string());
        self
    }

    pub fn f64_value(&mut self, v: f64) -> &mut Self {
        self.out.push_str(&number(v));
        self
    }

    pub fn bool_value(&mut self, v: bool) -> &mut Self {
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str_value(&mut self, v: &str) -> &mut Self {
        self.out.push_str(&escape(v));
        self
    }

    /// Open an object in value position (after [`JsonWriter::key`]).
    pub fn object_value(&mut self) -> &mut Self {
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Open an array in value position (after [`JsonWriter::key`]).
    pub fn array_value(&mut self) -> &mut Self {
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Shorthand: `"key": <u64>`.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key).u64_value(v)
    }

    /// Shorthand: `"key": <f64>`.
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key).f64_value(v)
    }

    /// Shorthand: `"key": "<str>"`.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key).str_value(v)
    }

    /// Shorthand: `"key": <bool>`.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).bool_value(v)
    }

    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unbalanced JSON writer");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_trim_zeros() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn nested_structure() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a", 1);
        w.key("b").object_value();
        w.field_str("c", "x");
        w.end_object();
        w.key("d").array_value();
        w.begin_object();
        w.field_bool("e", true);
        w.end_object();
        w.end_array();
        w.end_object();
        let s = w.finish();
        assert!(s.contains("\"a\": 1,"));
        assert!(s.contains("\"c\": \"x\""));
        assert!(s.contains("\"e\": true"));
        // Balanced braces/brackets.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
