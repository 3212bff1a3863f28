//! The workspace's one JSON string escaper.
//!
//! The workspace has no JSON dependency by policy (offline builds,
//! vendored shims), so its JSON emitter — the trace JSONL export —
//! hand-rolls its document structure. String escaping is the one part
//! that must not be hand-rolled per call site: a stray quote or control
//! character in a name would corrupt the whole document. This module is
//! the single shared implementation (RFC 8259 §7):
//!
//! * `"` and `\` are backslash-escaped;
//! * control characters U+0000..U+001F use the short forms
//!   (`\n`, `\t`, `\r`, `\b`, `\f`) where they exist, `\u00XX`
//!   otherwise;
//! * everything else — including non-ASCII — passes through verbatim,
//!   as JSON is UTF-8 native.

/// Append `s` to `out` with JSON string escaping (no surrounding
/// quotes). Allocation-free when nothing needs escaping beyond `out`'s
/// own growth.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                let hex = |n: u32| char::from_digit(n, 16).unwrap();
                out.push(hex(b >> 4));
                out.push(hex(b & 0xF));
            }
            c => out.push(c),
        }
    }
}

/// `s` as a complete JSON string token, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(quote("tx.framer"), "\"tx.framer\"");
        assert_eq!(quote(""), "\"\"");
    }

    #[test]
    fn quotes_and_backslashes_escape() {
        assert_eq!(quote("a\"b"), "\"a\\\"b\"");
        assert_eq!(quote("C:\\path"), "\"C:\\\\path\"");
    }

    #[test]
    fn control_chars_use_short_forms_then_u00xx() {
        assert_eq!(quote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
        assert_eq!(quote("\u{0008}\u{000C}"), "\"\\b\\f\"");
        assert_eq!(quote("\u{0000}"), "\"\\u0000\"");
        assert_eq!(quote("\u{001F}"), "\"\\u001f\"");
        assert_eq!(quote("\u{001B}[0m"), "\"\\u001b[0m\"");
    }

    #[test]
    fn non_ascii_passes_verbatim() {
        assert_eq!(quote("métriques λ µs"), "\"métriques λ µs\"");
        assert_eq!(quote("セル"), "\"セル\"");
        // U+0080 is a control char by Unicode but NOT by JSON: only
        // U+0000..U+001F require escaping.
        assert_eq!(quote("\u{0080}"), "\"\u{0080}\"");
    }

    #[test]
    fn round_trips_are_parseable_shape() {
        // Escaped output must contain no raw control bytes or naked quotes.
        let s = quote("x\"\\\n\u{0001}é");
        let inner = &s[1..s.len() - 1];
        assert!(!inner.chars().any(|c| (c as u32) < 0x20));
        let bytes = inner.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'"' {
                assert!(i > 0 && bytes[i - 1] == b'\\', "naked quote in {s}");
            }
        }
    }
}
