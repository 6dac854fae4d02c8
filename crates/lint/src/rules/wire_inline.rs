//! `wire-inline`: every non-generic `fn` of the codec's primitive files
//! carries `#[inline]`.
//!
//! `ripple-wire` is called per byte from loops monomorphized in other
//! crates, and the product crates build with the stock release profile
//! (no LTO): a non-generic function without `#[inline]` is an opaque
//! cross-crate call there.  Types and tests cannot see a lost attribute —
//! the bytes are the same — but the benchmark can: it is ~10 % end to
//! end.  Generic functions are instantiated in the caller's crate and
//! need no attribute.

use crate::registry::{Finding, Rule, Severity};
use crate::source::{SourceFile, Workspace};

/// The files whose functions sit under every encode and decode.
const FILES: &[&str] = &[
    "crates/wire/src/varint.rs",
    "crates/wire/src/reader.rs",
    "crates/wire/src/writer.rs",
    "crates/wire/src/impls.rs",
];

/// The `wire-inline` rule.
pub struct WireInline;

impl Rule for WireInline {
    fn id(&self) -> &'static str {
        "wire-inline"
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn description(&self) -> &'static str {
        "every non-generic fn in ripple-wire's varint/reader/writer/impls carries #[inline]; \
         without LTO a lost one is a cross-crate call per byte"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in FILES.iter().filter_map(|path| ws.file(path)) {
            for (line, name) in uninlined_fns(file) {
                findings.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    path: file.path.clone(),
                    line,
                    message: format!("non-generic fn `{name}` without #[inline]"),
                    hint: "add #[inline] (never inline(always)): callers in other crates \
                           otherwise pay a call per byte"
                        .to_owned(),
                });
            }
        }
        findings
    }
}

/// `(line, name)` of every non-test, non-generic `fn` item in `file` that
/// has no `#[inline]` among its attributes.
fn uninlined_fns(file: &SourceFile) -> Vec<(usize, String)> {
    let text = file.scrubbed.as_str();
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut found = Vec::new();
    // Headers of the blocks open at the cursor: the text between a `{` and
    // the `;`, `{` or `}` before it (the `;` of an array type `[T; N]`
    // ends nothing).
    let mut open: Vec<&str> = Vec::new();
    let mut boundary = 0;
    let mut brackets = 0usize;
    let mut line = 1;
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at] {
            b'\n' => line += 1,
            b'{' => {
                open.push(&text[boundary..at]);
                boundary = at + 1;
            }
            b'}' => {
                open.pop();
                boundary = at + 1;
            }
            b'[' => brackets += 1,
            b']' => brackets = brackets.saturating_sub(1),
            b';' if brackets == 0 => boundary = at + 1,
            b'f' if text[at..].starts_with("fn")
                && (at == 0 || !is_ident(bytes[at - 1]))
                && bytes.get(at + 2).is_some_and(|&b| b == b' ') =>
            {
                let rest = &text[at + 2..];
                let name_len = rest
                    .trim_start()
                    .bytes()
                    .take_while(|&b| is_ident(b))
                    .count();
                let name = &rest.trim_start()[..name_len];
                let signature = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
                let generic = generic_signature(signature, name_len)
                    || open.iter().any(|header| header.contains("impl<"));
                if !generic && !file.is_test_line(line) && !has_inline(text, at) {
                    found.push((line, name.to_owned()));
                }
            }
            _ => {}
        }
        at += 1;
    }
    found
}

/// Whether a signature (the text after `fn`, up to its body) declares a
/// type or const parameter — lifetimes alone do not make a function
/// generic — or takes an `impl Trait` argument.
fn generic_signature(signature: &str, name_len: usize) -> bool {
    let after_name = &signature.trim_start()[name_len..];
    let declared = after_name
        .strip_prefix('<')
        .and_then(|params| params.split_once('>'))
        .is_some_and(|(params, _)| params.split(',').any(|p| !p.trim().starts_with('\'')));
    declared || signature.contains("impl ")
}

/// Whether `#[inline]` is among the attribute lines directly above the
/// `fn` at byte `at` (doc comments scrub to blank lines).
fn has_inline(text: &str, at: usize) -> bool {
    text[..at]
        .rsplit('\n')
        .skip(1)
        .map(str::trim)
        .take_while(|l| l.is_empty() || l.starts_with("#["))
        .any(|l| l == "#[inline]")
}
