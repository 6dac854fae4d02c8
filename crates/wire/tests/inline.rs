//! Every non-generic `fn` of the codec's primitive files carries
//! `#[inline]`.  The product crates build without LTO and call the codec
//! per byte from loops monomorphized in other crates, so a lost attribute
//! is an opaque cross-crate call there: no byte changes and no other test
//! fails, but the benchmark loses ~10 %.  Generic functions are
//! instantiated in the caller's crate and need no attribute.
//! `clippy::missing_inline_in_public_items` is no substitute: it skips
//! private helpers and flags generic impls.

/// The files whose functions sit under every encode and decode.
const FILES: &[(&str, &str)] = &[
    ("varint.rs", include_str!("../src/varint.rs")),
    ("reader.rs", include_str!("../src/reader.rs")),
    ("writer.rs", include_str!("../src/writer.rs")),
    ("impls.rs", include_str!("../src/impls.rs")),
];

#[test]
fn every_non_generic_fn_is_inline() {
    let mut missing = Vec::new();
    for &(path, src) in FILES {
        for (line, name) in uninlined_fns(&library_code(src)) {
            missing.push(format!("{path}:{line}: fn {name}"));
        }
    }
    assert!(
        missing.is_empty(),
        "non-generic fns without #[inline] (never inline(always)):\n{}",
        missing.join("\n")
    );
}

/// `src` up to its `#[cfg(test)] mod tests`, which must come last, with
/// `//` comments blanked.  No string in these files' library code holds a
/// brace, a bracket, a `;`, `fn ` or `//`, so strings need no stripping.
fn library_code(src: &str) -> String {
    let (code, tests) = src
        .split_once("\n#[cfg(test)]\nmod tests {\n")
        .unwrap_or((src, ""));
    // rustfmt indents the module's items: only its own `}` starts a line.
    assert!(
        tests.matches("\n}").count() <= 1,
        "the test module must come last"
    );
    let uncommented = code
        .lines()
        .map(|l| l.split_once("//").map_or(l, |(c, _)| c));
    uncommented.collect::<Vec<_>>().join("\n")
}

/// `(line, name)` of every non-generic `fn` item in `text` that has no
/// `#[inline]` among its attributes.
fn uninlined_fns(text: &str) -> Vec<(usize, String)> {
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
    for at in 0..bytes.len() {
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
            b'f' if text[at..].starts_with("fn ") && (at == 0 || !is_ident(bytes[at - 1])) => {
                let rest = text[at + 2..].trim_start();
                let name_len = rest.bytes().take_while(|&b| is_ident(b)).count();
                let signature = &rest[..rest.find(['{', ';']).unwrap_or(rest.len())];
                let generic = generic_signature(signature, name_len)
                    || open.iter().any(|header| header.contains("impl<"));
                if !generic && !has_inline(text, at) {
                    found.push((line, rest[..name_len].to_owned()));
                }
            }
            _ => {}
        }
    }
    found
}

/// Whether a signature (the text after `fn`, up to its body) declares a
/// type or const parameter — lifetimes alone do not make a function
/// generic — or takes an `impl Trait` argument.
fn generic_signature(signature: &str, name_len: usize) -> bool {
    let declared = signature[name_len..]
        .strip_prefix('<')
        .and_then(|params| params.split_once('>'))
        .is_some_and(|(params, _)| params.split(',').any(|p| !p.trim().starts_with('\'')));
    declared || signature.contains("impl ")
}

/// Whether `#[inline]` is among the attribute lines directly above the
/// `fn` at byte `at` (doc comments are blank lines by now).
fn has_inline(text: &str, at: usize) -> bool {
    text[..at]
        .rsplit('\n')
        .skip(1)
        .map(str::trim)
        .take_while(|l| l.is_empty() || l.starts_with("#["))
        .any(|l| l == "#[inline]")
}
