//! One-line JSON output over the repository's `Json` document type.

use std::fmt::Write as _;

pub use wsp_microbench::json::Json;

/// Serialises `doc` on one line. Non-finite numbers become `null`;
/// finite ones keep every digit Rust's shortest round-trip form has.
#[must_use]
pub fn compact(doc: &Json) -> String {
    let mut out = String::new();
    emit(doc, &mut out);
    out
}

fn emit(doc: &Json, out: &mut String) {
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) if !v.is_finite() => out.push_str("null"),
        Json::Num(v) => {
            let _ = write!(out, "{v}");
        }
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(k, out);
                out.push(':');
                emit(v, out);
            }
            out.push('}');
        }
    }
}

fn string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_parser() {
        let doc = Json::object([
            ("a", Json::from(1.25)),
            ("b", Json::from("x\"y")),
            ("c", Json::array([Json::from(true), Json::Null])),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }
}
