//! The project rule set.
//!
//! Every rule reports [`Finding`]s against the blanked view produced by
//! [`crate::lexer`], so string/comment contents can never trip a rule. A
//! finding on line `L` is silenced by a
//! `// lint: allow(<rule>) -- <reason>` comment on `L`, or on a standalone
//! comment line `L-1` (see [`crate::lexer::Allow`]); the reason is
//! mandatory. The rules:
//!
//! | rule            | scope                              | what it rejects |
//! |-----------------|------------------------------------|-----------------|
//! | `no-panic`      | non-test lib code (all crates)     | `.unwrap()`, `.expect(…)`, `panic!`, `todo!`, `unimplemented!` |
//! | `raw-mutex`     | non-test first-party code          | `std::sync::Mutex`/`MutexGuard`/`Condvar` outside `storage/src/sync.rs` |
//! | `float-eq`      | `pfv` lib code                     | `==`/`!=` against a float literal (use `to_bits()` for bit identity) |
//! | `cast-truncation` | `pfv`/`storage`/`core` lib code  | bare `as u8/u16/u32/i8/i16/i32` narrowing (use `try_from`) and `as f32` rounding outside `pfv/src/quant.rs` (use the checked quantisation helpers) |
//! | `missing-docs`  | `pfv`/`storage`/`core` lib code    | undocumented `pub` items at module/impl scope |
//! | `bad-allow`     | everywhere                         | malformed `lint:` comments, unknown rule names in `allow(...)` |
//!
//! The flow-aware rules — `static-lock-order`, `guard-across-call`,
//! `durability-protocol`, `ignored-io-result` — live in
//! [`crate::analysis`]; their constants are declared here so
//! `allow(...)` validation and `--list-rules` see one namespace.

use crate::lexer::{blank, test_regions, Blanked};
use crate::walk::{FileKind, SourceFile};

/// Machine name of the panic-free-library rule.
pub const NO_PANIC: &str = "no-panic";
/// Machine name of the tracked-mutex rule.
pub const RAW_MUTEX: &str = "raw-mutex";
/// Machine name of the float bit-identity rule.
pub const FLOAT_EQ: &str = "float-eq";
/// Machine name of the narrowing-cast rule.
pub const CAST_TRUNCATION: &str = "cast-truncation";
/// Machine name of the public-docs rule.
pub const MISSING_DOCS: &str = "missing-docs";
/// Machine name of the malformed-annotation rule.
pub const BAD_ALLOW: &str = "bad-allow";
/// Machine name of the call-graph lock-rank inversion rule.
pub const STATIC_LOCK_ORDER: &str = "static-lock-order";
/// Machine name of the guard-held-across-call rule.
pub const GUARD_ACROSS_CALL: &str = "guard-across-call";
/// Machine name of the commit-ordering rule: the one slot write of
/// `gauss_storage::commit`, which tree meta and forest manifest share.
pub const DURABILITY_PROTOCOL: &str = "durability-protocol";
/// Machine name of the discarded-I/O-`Result` rule.
pub const IGNORED_IO_RESULT: &str = "ignored-io-result";

/// Every rule with a one-line description, for `--list-rules` and for
/// validating `allow(...)` annotations.
#[must_use]
pub fn all_rules() -> &'static [(&'static str, &'static str)] {
    &[
        (
            NO_PANIC,
            "non-test library code must not unwrap/expect/panic!/todo!/unimplemented!",
        ),
        (
            RAW_MUTEX,
            "std::sync::Mutex/MutexGuard/Condvar are only allowed in gauss_storage::sync \
             (use TrackedMutex everywhere else)",
        ),
        (
            FLOAT_EQ,
            "pfv kernel code must not compare floats with ==/!= against literals \
             (bit identity goes through to_bits())",
        ),
        (
            CAST_TRUNCATION,
            "page-id/byte-count code must not use bare narrowing `as` casts \
             (use try_from), and `as f32` quantisation belongs in pfv::quant's \
             checked helpers",
        ),
        (
            MISSING_DOCS,
            "public items in core/pfv/storage need doc comments",
        ),
        (
            BAD_ALLOW,
            "lint: comments must parse as allow(rule) -- reason",
        ),
        (
            STATIC_LOCK_ORDER,
            "no call path may acquire a LockRank lower than one already held \
             (reported with the full call chain)",
        ),
        (
            GUARD_ACROSS_CALL,
            "a lock guard must not stay live across a call that can re-acquire its \
             rank, or across PageStore I/O on the query path",
        ),
        (
            DURABILITY_PROTOCOL,
            "the slot write of storage/src/commit.rs needs its data barrier first",
        ),
        (
            IGNORED_IO_RESULT,
            "Results from gauss_storage I/O calls must not be discarded with \
             `let _ =` or drop(...)",
        ),
    ]
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub rel_path: String,
    /// 1-based line.
    pub line: usize,
    /// Machine rule name (one of the constants in this module).
    pub rule: &'static str,
    /// Human explanation.
    pub message: String,
    /// Call chain for call-graph findings (`caller -> … -> sink`), empty
    /// for purely local rules.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.rule, self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    chain: {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Context handed to each rule for one file.
struct FileCx<'a> {
    file: &'a SourceFile,
    blanked: &'a Blanked,
    /// Byte ranges of `#[cfg(test)]`-gated items.
    test_spans: Vec<(usize, usize)>,
}

impl FileCx<'_> {
    fn in_test_region(&self, pos: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= pos && pos < e)
    }

    /// Pushes a finding unless an allow annotation covers its line.
    fn report(&self, out: &mut Vec<Finding>, rule: &'static str, pos: usize, message: String) {
        let line = self.blanked.line_of(pos);
        if self.blanked.is_allowed(rule, line) {
            return;
        }
        out.push(Finding {
            rel_path: self.file.rel_path.clone(),
            line,
            rule,
            message,
            chain: Vec::new(),
        });
    }
}

/// Iterates `(byte_offset, token)` over identifier/number tokens in
/// blanked code.
fn idents(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push((start, &code[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

fn prev_nonspace(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i > 0 {
        i -= 1;
        if !bytes[i].is_ascii_whitespace() {
            return Some(bytes[i]);
        }
    }
    None
}

fn next_nonspace(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i < bytes.len() {
        if !bytes[i].is_ascii_whitespace() {
            return Some(bytes[i]);
        }
        i += 1;
    }
    None
}

/// Lints one source file, returning all findings (already filtered through
/// allow annotations).
#[must_use]
pub fn lint_file(file: &SourceFile, src: &str) -> Vec<Finding> {
    let blanked = blank(src);
    let test_spans = test_regions(&blanked.code);
    lint_blanked(file, &blanked, &test_spans)
}

/// Token-level rules over an already-blanked view, so callers that also
/// run the flow analysis ([`crate::analysis`]) blank each file only once.
#[must_use]
pub fn lint_blanked(
    file: &SourceFile,
    blanked: &Blanked,
    test_spans: &[(usize, usize)],
) -> Vec<Finding> {
    let cx = FileCx {
        file,
        test_spans: test_spans.to_vec(),
        blanked,
    };
    let mut out = Vec::new();

    bad_allow_rule(&cx, &mut out);
    let toks = idents(&blanked.code);
    if file.is_lib() && file.kind != FileKind::Shim {
        no_panic_rule(&cx, &toks, &mut out);
    }
    if matches!(file.kind, FileKind::Lib | FileKind::Bin | FileKind::Example)
        && file.rel_path != "crates/storage/src/sync.rs"
    {
        raw_mutex_rule(&cx, &toks, &mut out);
    }
    if file.is_lib() && file.crate_name == "pfv" {
        float_eq_rule(&cx, &mut out);
    }
    if file.is_lib() && matches!(file.crate_name.as_str(), "pfv" | "storage" | "core") {
        cast_truncation_rule(&cx, &toks, &mut out);
        missing_docs_rule(&cx, &toks, &mut out);
    }
    out
}

fn bad_allow_rule(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    for (line, msg) in &cx.blanked.malformed_allows {
        out.push(Finding {
            rel_path: cx.file.rel_path.clone(),
            line: *line,
            rule: BAD_ALLOW,
            message: msg.clone(),
            chain: Vec::new(),
        });
    }
    let known: Vec<&str> = all_rules().iter().map(|(n, _)| *n).collect();
    for allow in &cx.blanked.allows {
        for rule in &allow.rules {
            if !known.contains(&rule.as_str()) {
                out.push(Finding {
                    rel_path: cx.file.rel_path.clone(),
                    line: allow.line,
                    rule: BAD_ALLOW,
                    message: format!("allow names unknown rule {rule:?}"),
                    chain: Vec::new(),
                });
            }
        }
    }
}

fn no_panic_rule(cx: &FileCx<'_>, toks: &[(usize, &str)], out: &mut Vec<Finding>) {
    let bytes = cx.blanked.code.as_bytes();
    for &(pos, tok) in toks {
        if cx.in_test_region(pos) {
            continue;
        }
        let flagged = match tok {
            "unwrap" | "expect" => prev_nonspace(bytes, pos) == Some(b'.'),
            "panic" | "todo" | "unimplemented" => {
                next_nonspace(bytes, pos + tok.len()) == Some(b'!')
            }
            _ => false,
        };
        if flagged {
            cx.report(
                out,
                NO_PANIC,
                pos,
                format!(
                    "`{tok}` in library code: return a Result, use unwrap_or_else, or \
                     annotate `// lint: allow({NO_PANIC}) -- <why the invariant holds>`"
                ),
            );
        }
    }
}

fn raw_mutex_rule(cx: &FileCx<'_>, toks: &[(usize, &str)], out: &mut Vec<Finding>) {
    for &(pos, tok) in toks {
        if !matches!(tok, "Mutex" | "MutexGuard" | "Condvar") {
            continue;
        }
        if cx.in_test_region(pos) {
            continue;
        }
        cx.report(
            out,
            RAW_MUTEX,
            pos,
            format!(
                "raw `std::sync::{tok}` outside gauss_storage::sync: use TrackedMutex \
                 so the lock-order detector sees this lock"
            ),
        );
    }
}

/// Is `tok` a float literal (`0.5`, `1e-9`, `2.0f64`)?
fn is_float_literal(tok: &str) -> bool {
    let b = tok.as_bytes();
    if b.is_empty() || !b[0].is_ascii_digit() {
        return false;
    }
    tok.contains('.')
        || tok.contains('e')
        || tok.contains('E')
        || tok.ends_with("f32")
        || tok.ends_with("f64")
}

fn float_eq_rule(cx: &FileCx<'_>, out: &mut Vec<Finding>) {
    let code = &cx.blanked.code;
    let bytes = code.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        let op = match (bytes[i], bytes[i + 1]) {
            (b'=', b'=') => "==",
            (b'!', b'=') => "!=",
            _ => continue,
        };
        // Exclude <=, >=, +=, ==-chains etc.
        if op == "=="
            && matches!(
                prev_nonspace(bytes, i),
                Some(
                    b'=' | b'!'
                        | b'<'
                        | b'>'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                )
            )
        {
            continue;
        }
        if bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        if cx.in_test_region(i) {
            continue;
        }
        // Neighbouring tokens: the identifier/number immediately before and
        // after the operator.
        let before = last_token_before(code, i);
        let after = first_token_after(code, i + 2);
        let floaty = |t: &str| {
            is_float_literal(t)
                || matches!(
                    t,
                    "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON" | "MAX" | "MIN"
                )
        };
        if before.as_deref().map(floaty).unwrap_or(false)
            || after.as_deref().map(floaty).unwrap_or(false)
        {
            cx.report(
                out,
                FLOAT_EQ,
                i,
                format!(
                    "float `{op}` comparison in pfv kernel code: use to_bits() for bit \
                     identity or an explicit tolerance"
                ),
            );
        }
    }
}

/// The full dotted numeric/identifier token ending just before byte `i`
/// (so `2.5` is one token, not `5`).
fn last_token_before(code: &str, i: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut end = i;
    while end > 0 && bytes[end - 1].is_ascii_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    (start < end).then(|| code[start..end].trim_matches('.').to_string())
}

/// The dotted numeric/identifier token starting at or after byte `i`.
fn first_token_after(code: &str, i: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut start = i;
    while start < bytes.len() && bytes[start].is_ascii_whitespace() {
        start += 1;
    }
    // A leading unary minus still means the operand is a literal.
    if start < bytes.len() && bytes[start] == b'-' {
        start += 1;
        while start < bytes.len() && bytes[start].is_ascii_whitespace() {
            start += 1;
        }
    }
    let mut end = start;
    while end < bytes.len() {
        let b = bytes[end];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            end += 1;
        } else {
            break;
        }
    }
    (start < end).then(|| code[start..end].trim_matches('.').to_string())
}

fn cast_truncation_rule(cx: &FileCx<'_>, toks: &[(usize, &str)], out: &mut Vec<Finding>) {
    // `as f32` silently rounds an f64 payload; the sanctioned
    // quantisation sites are the checked helpers in `pfv::quant`
    // (validated result, outward hull correction), which the rule exempts
    // wholesale the way `raw-mutex` exempts `storage::sync`.
    let quant_module = cx.file.rel_path == "crates/pfv/src/quant.rs";
    for w in toks.windows(2) {
        let (pos, tok) = w[0];
        let (_, next) = w[1];
        if tok != "as" || cx.in_test_region(pos) {
            continue;
        }
        if matches!(next, "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
            cx.report(
                out,
                CAST_TRUNCATION,
                pos,
                format!(
                    "bare `as {next}` narrowing cast: use `{next}::try_from` (or annotate \
                     with the range invariant that makes truncation impossible)"
                ),
            );
        } else if next == "f32" && !quant_module {
            cx.report(
                out,
                CAST_TRUNCATION,
                pos,
                "bare `as f32` rounding cast: go through the checked quantisation \
                 helpers in `pfv::quant` (quantise_mu/quantise_sigma/to_f32_exact)"
                    .to_string(),
            );
        }
    }
}

/// Scope kinds for the missing-docs brace tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// File root or `mod x { … }`: `pub` items here need docs.
    Module,
    /// `impl … { … }`: `pub fn`/`pub const` here need docs.
    Impl,
    /// struct/enum/union/trait bodies: fields/variants, not checked.
    TypeBody,
    /// Function bodies, expressions: never checked.
    Body,
}

fn missing_docs_rule(cx: &FileCx<'_>, toks: &[(usize, &str)], out: &mut Vec<Finding>) {
    let code = &cx.blanked.code;
    let bytes = code.as_bytes();
    // Walk tokens and braces in tandem: token index advances over the byte
    // scan so keyword context decides each `{`'s scope kind.
    let mut scopes: Vec<Scope> = vec![Scope::Module];
    let mut recent: Vec<&str> = Vec::new(); // tokens since last `{` `}` `;`
    let mut tok_idx = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        // Consume any tokens that start at or before this byte.
        while tok_idx < toks.len() && toks[tok_idx].0 <= i {
            let (tpos, t) = toks[tok_idx];
            if tpos == i {
                handle_token(cx, toks, tok_idx, &scopes, &recent, out);
                recent.push(t);
                i += t.len();
                tok_idx += 1;
                continue;
            }
            tok_idx += 1;
        }
        if i >= bytes.len() {
            break;
        }
        match bytes[i] {
            b'{' => {
                let kind = scope_of(&recent);
                scopes.push(kind);
                recent.clear();
            }
            b'}' => {
                if scopes.len() > 1 {
                    scopes.pop();
                }
                recent.clear();
            }
            // `;` ends an item; `]` ends an attribute such as
            // `#[derive(Debug)]`, whose tokens must not hide the `pub`
            // that follows it from the first-token-of-header check.
            b';' | b']' => recent.clear(),
            _ => {}
        }
        i += 1;
    }
}

/// Decides what scope a `{` opens, from the tokens since the previous
/// `{`/`}`/`;` (the item header).
fn scope_of(recent: &[&str]) -> Scope {
    // `fn` wins first: `pub fn f() -> impl Iterator {` opens a function
    // body even though `impl` also appears in the header. Conversely
    // `impl Trait for Type {` contains `for` but must still rank as Impl,
    // so the generic body keywords come last.
    if recent.contains(&"fn") {
        return Scope::Body;
    }
    if recent.contains(&"impl") {
        return Scope::Impl;
    }
    if recent.contains(&"mod") {
        return Scope::Module;
    }
    if recent
        .iter()
        .any(|t| matches!(*t, "struct" | "enum" | "union" | "trait"))
    {
        return Scope::TypeBody;
    }
    // `if`/`match`/`for`/struct-literal/closure braces, const initializer
    // blocks: all bodies, never checked inside.
    Scope::Body
}

/// Checks one `pub` token for a preceding doc comment when it introduces a
/// checked item in a checked scope.
fn handle_token(
    cx: &FileCx<'_>,
    toks: &[(usize, &str)],
    tok_idx: usize,
    scopes: &[Scope],
    recent: &[&str],
    out: &mut Vec<Finding>,
) {
    let (pos, tok) = toks[tok_idx];
    if tok != "pub" || !matches!(scopes.last(), Some(Scope::Module | Scope::Impl)) {
        return;
    }
    // Only the first token of an item header can be `pub` — a `pub` after
    // e.g. `fn` belongs to a nested position we do not check.
    if !recent.is_empty() {
        return;
    }
    if cx.in_test_region(pos) {
        return;
    }
    let bytes = cx.blanked.code.as_bytes();
    // Restricted visibility — pub(crate), pub(super), pub(in …) — is not
    // exported API; rustc's missing_docs skips it and so do we.
    if next_nonspace(bytes, pos + 3) == Some(b'(') {
        return;
    }
    // The item keyword after `pub` (skipping `unsafe`, `async`, `const
    // fn`'s const, `extern`).
    let mut j = tok_idx + 1;
    let mut item_kw = None;
    let mut item_name = None;
    while j < toks.len() {
        let t = toks[j].1;
        match t {
            "unsafe" | "async" | "extern" => j += 1,
            "const" | "static" | "fn" | "struct" | "enum" | "union" | "trait" | "type" | "mod" => {
                // `pub const fn f()` — the const here is a qualifier.
                if t == "const" && j + 1 < toks.len() && toks[j + 1].1 == "fn" {
                    j += 1;
                    continue;
                }
                item_kw = Some(t);
                item_name = toks.get(j + 1).map(|&(_, n)| n);
                break;
            }
            // `pub use`, macro re-exports: not doc-checked.
            _ => break,
        }
    }
    let Some(kw) = item_kw else { return };
    let line = cx.blanked.line_of(pos);
    if has_doc_above(cx, line) {
        return;
    }
    cx.report(
        out,
        MISSING_DOCS,
        pos,
        format!(
            "public {kw} `{}` has no doc comment",
            item_name.unwrap_or("<unnamed>")
        ),
    );
}

/// Walks upward from `line - 1` over attribute and blank lines looking for
/// a doc comment attached to the item.
fn has_doc_above(cx: &FileCx<'_>, line: usize) -> bool {
    let mut l = line;
    while l > 1 {
        l -= 1;
        if cx.blanked.doc_lines[l] {
            return true;
        }
        if cx.blanked.code_lines[l] {
            // An attribute line still connects the doc above it; anything
            // else breaks the chain.
            let begin = cx.blanked.code.lines().nth(l - 1).map(str::trim_start);
            match begin {
                Some(s) if s.starts_with("#[") || s.starts_with("#!") || s.ends_with(']') => {}
                _ => return false,
            }
        }
        // Comment-only and blank lines: keep walking.
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::classify;

    fn lint_str(rel: &str, src: &str) -> Vec<Finding> {
        let (kind, crate_name) = classify(rel);
        let file = SourceFile {
            rel_path: rel.to_string(),
            abs_path: std::path::PathBuf::from(rel),
            kind,
            crate_name,
        };
        lint_file(&file, src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_in_lib_code_flagged() {
        let f = lint_str("crates/core/src/x.rs", "fn f() { y.unwrap(); }\n");
        assert_eq!(rules_of(&f), vec![NO_PANIC]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_in_tests_and_bins_not_flagged() {
        assert!(lint_str("tests/x.rs", "fn f() { y.unwrap(); }\n").is_empty());
        assert!(lint_str("crates/bench/src/bin/b.rs", "fn main() { y.unwrap(); }\n").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn f() { y.unwrap(); }\n}\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let src = "fn f() { y.unwrap_or_else(Default::default); }\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_todo_unimplemented_flagged_with_allow_hatch() {
        let src = "fn f() { panic!(\"boom\"); }\nfn g() { todo!(); }\n";
        let f = lint_str("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![NO_PANIC, NO_PANIC]);
        let src_allowed = "fn f() {\n    // lint: allow(no-panic) -- documented contract\n    panic!(\"boom\");\n}\n";
        assert!(lint_str("crates/core/src/x.rs", src_allowed).is_empty());
    }

    #[test]
    fn raw_mutex_flagged_outside_sync_module() {
        let src = "use std::sync::Mutex;\n";
        let f = lint_str("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![RAW_MUTEX]);
        assert!(lint_str("crates/storage/src/sync.rs", src).is_empty());
        // TrackedMutex is of course fine.
        assert!(lint_str(
            "crates/core/src/x.rs",
            "use gauss_storage::sync::TrackedMutex;\n"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_flagged_only_in_pfv() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        let f = lint_str("crates/pfv/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![FLOAT_EQ]);
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
        // Integer comparisons in pfv are fine.
        assert!(lint_str("crates/pfv/src/x.rs", "fn g(n: usize) -> bool { n == 0 }\n").is_empty());
        // to_bits comparisons are fine.
        assert!(lint_str(
            "crates/pfv/src/x.rs",
            "fn h(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_catches_ne_and_negative_literals() {
        let f = lint_str(
            "crates/pfv/src/x.rs",
            "fn f(x: f64) -> bool { x != -1.5 }\n",
        );
        assert_eq!(rules_of(&f), vec![FLOAT_EQ]);
    }

    #[test]
    fn cast_truncation_scope_and_allow() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        let f = lint_str("crates/storage/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![CAST_TRUNCATION]);
        // usize/u64 widening or platform casts are not flagged.
        assert!(lint_str(
            "crates/storage/src/x.rs",
            "fn g(x: u32) -> u64 { x as u64 }\nfn h(x: u32) -> usize { x as usize }\n"
        )
        .is_empty());
        // Out-of-scope crate.
        assert!(lint_str("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn cast_truncation_flags_f32_outside_quant() {
        let src = "fn f(x: f64) -> f32 { x as f32 }\n";
        for path in [
            "crates/pfv/src/batch.rs",
            "crates/core/src/x.rs",
            "crates/storage/src/x.rs",
        ] {
            let f = lint_str(path, src);
            assert_eq!(rules_of(&f), vec![CAST_TRUNCATION], "path {path}");
            assert!(f[0].message.contains("pfv::quant"));
        }
        // The checked helpers live in pfv::quant — the one sanctioned home
        // for the cast, exempted like raw-mutex exempts storage::sync.
        assert!(lint_str("crates/pfv/src/quant.rs", src).is_empty());
        // Widening f32 -> f64 is lossless and not flagged.
        assert!(lint_str(
            "crates/pfv/src/batch.rs",
            "fn g(x: f32) -> f64 { x as f64 }\n"
        )
        .is_empty());
        // Out-of-scope crates keep their casts.
        assert!(lint_str("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn missing_docs_on_pub_items() {
        let src = "pub fn undocumented() {}\n";
        let f = lint_str("crates/pfv/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![MISSING_DOCS]);
        let documented = "/// Does a thing.\npub fn documented() {}\n";
        assert!(lint_str("crates/pfv/src/x.rs", documented).is_empty());
        let attr_between = "/// Doc.\n#[derive(Debug)]\npub struct S;\n";
        assert!(lint_str("crates/pfv/src/x.rs", attr_between).is_empty());
        let crate_private = "pub(crate) fn internal() {}\n";
        assert!(lint_str("crates/pfv/src/x.rs", crate_private).is_empty());
    }

    #[test]
    fn missing_docs_checks_impl_methods_not_bodies() {
        let src = "\
/// Type docs.\npub struct S;\n\
impl S {\n    pub fn method(&self) {}\n}\n";
        let f = lint_str("crates/pfv/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![MISSING_DOCS]);
        assert!(f[0].message.contains("method"));
        // `pub` never appears inside fn bodies in practice; a struct
        // expression brace must not confuse the tracker.
        let nested = "/// D.\npub fn f() { let s = Foo { a: 1 }; g(s); }\n";
        assert!(lint_str("crates/pfv/src/x.rs", nested).is_empty());
    }

    #[test]
    fn missing_docs_skips_trait_bodies_and_out_of_scope_crates() {
        let src = "/// T.\npub trait T {\n    fn m(&self);\n}\n";
        assert!(lint_str("crates/pfv/src/x.rs", src).is_empty());
        assert!(lint_str("crates/workloads/src/x.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn bad_allow_reported() {
        let f = lint_str(
            "crates/core/src/x.rs",
            "// lint: allow(no-panic)\nfn f() { y.unwrap(); }\n",
        );
        assert!(rules_of(&f).contains(&BAD_ALLOW), "reason is mandatory");
        assert!(
            rules_of(&f).contains(&NO_PANIC),
            "malformed allow must not silence"
        );
        let unknown = lint_str(
            "crates/core/src/x.rs",
            "// lint: allow(no-such-rule) -- typo\nfn f() {}\n",
        );
        assert_eq!(rules_of(&unknown), vec![BAD_ALLOW]);
    }

    #[test]
    fn shims_are_exempt_from_code_rules() {
        let src = "pub fn f() { x.unwrap(); let m = Mutex::new(0); }\n";
        assert!(lint_str("shims/rand/src/helpers.rs", src).is_empty());
        assert!(lint_str("shims/rand/src/lib.rs", src).is_empty());
    }
}
