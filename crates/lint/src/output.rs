//! Machine-readable output: `--format json`, the compact feed
//! `scripts/lint_annotations.py` turns into CI annotations. Hand-rolled
//! over the stdlib (this crate takes no dependencies).

use std::fmt::Write as _;

use crate::rules::Finding;

/// Escapes `s` for a JSON string literal (quotes not included).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the versioned JSON feed consumed by
/// `scripts/lint_annotations.py`.
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\",\"chain\":[",
            json_escape(f.rule),
            json_escape(&f.rel_path),
            f.line,
            json_escape(&f.message),
        );
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(hop));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::STATIC_LOCK_ORDER;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rel_path: "crates/x/src/a.rs".to_string(),
            line: 7,
            rule: STATIC_LOCK_ORDER,
            message: "tricky \"quoted\"\nmessage".to_string(),
            chain: vec!["A::f".to_string(), "A::g".to_string()],
        }]
    }

    #[test]
    fn json_escaping_and_shape() {
        let j = to_json(&sample());
        assert!(j.contains("\"version\":1"));
        assert!(j.contains("\"rule\":\"static-lock-order\""));
        assert!(j.contains("tricky \\\"quoted\\\"\\nmessage"));
        assert!(j.contains("\"chain\":[\"A::f\",\"A::g\"]"));
        // Balanced braces/brackets as a cheap well-formedness proxy.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn empty_findings_still_valid_logs() {
        assert!(to_json(&[]).contains("\"findings\":[]"));
    }
}
