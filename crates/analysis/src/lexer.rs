//! A hand-rolled, line-preserving Rust lexer front end.
//!
//! The semantic rules in [`crate::rules`] operate on *code text* — source
//! with comments and string/char-literal contents removed — so a pattern
//! like `.unwrap()` inside a doc comment or an error-message string never
//! produces a finding. Stripping has to understand real Rust lexical
//! structure: nested block comments, escape sequences, raw strings with
//! arbitrary `#` fences, byte strings, and the `'a`-lifetime vs `'a'`
//! char-literal ambiguity. Everything is kept line-aligned so findings
//! carry exact 1-based line numbers.

use std::collections::BTreeMap;

/// One source line after lexical stripping.
#[derive(Debug, Clone, Default)]
pub struct SourceLine {
    /// The line's code with comments removed and string/char contents
    /// blanked (delimiters are kept so expression shape stays visible).
    pub code: String,
    /// Text of every comment that starts or continues on this line,
    /// without the `//` / `/* */` markers.
    pub comments: Vec<String>,
}

impl SourceLine {
    /// True when the line carries no code at all (blank or comment-only).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// Lexer state that survives across newlines.
enum Mode {
    Code,
    /// Block comment with the current nesting depth (Rust block comments
    /// nest, unlike C).
    BlockComment(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string `r##"…"##` with the given fence length.
    RawStr(usize),
}

/// Strip `src` into per-line code text and comment text.
///
/// Guarantees: the output has exactly one entry per input line, each
/// `code` string contains no comment text and no string/char-literal
/// contents, and every removed region is replaced by at least one space so
/// adjacent tokens never fuse.
pub fn strip_source(src: &str) -> Vec<SourceLine> {
    let mut out: Vec<SourceLine> = Vec::new();
    let mut line = SourceLine::default();
    let mut mode = Mode::Code;
    let mut comment_buf = String::new();
    let bytes: Vec<char> = src.chars().collect();
    let n = bytes.len();
    let mut i = 0;

    // Helper: does a raw-string opener start at position `i`? Returns the
    // fence length (number of `#`) and the total opener length.
    let raw_open = |i: usize| -> Option<(usize, usize)> {
        let mut j = i;
        if bytes.get(j) == Some(&'b') {
            j += 1;
        }
        if bytes.get(j) != Some(&'r') {
            return None;
        }
        j += 1;
        let mut hashes = 0;
        while bytes.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        (bytes.get(j) == Some(&'"')).then_some((hashes, j + 1 - i))
    };

    while i < n {
        let c = bytes[i];
        if c == '\n' {
            match mode {
                Mode::BlockComment(_) => {
                    line.comments.push(std::mem::take(&mut comment_buf));
                }
                Mode::Str | Mode::RawStr(_) => {
                    // String continues across the newline; the blanked
                    // contents simply resume on the next line.
                }
                Mode::Code => {}
            }
            out.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let prev_ident = i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_');
                if c == '/' && bytes.get(i + 1) == Some(&'/') {
                    // Line comment: consume to end of line, keep the text.
                    let mut j = i + 2;
                    while bytes.get(j) == Some(&'/') || bytes.get(j) == Some(&'!') {
                        j += 1; // doc-comment markers
                    }
                    let start = j;
                    while j < n && bytes[j] != '\n' {
                        j += 1;
                    }
                    line.comments.push(bytes[start..j].iter().collect());
                    line.code.push(' ');
                    i = j;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(1);
                    comment_buf.clear();
                    line.code.push(' ');
                    i += 2;
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if !prev_ident && raw_open(i).is_some() {
                    let (hashes, len) = raw_open(i).expect("just matched");
                    line.code.push('"');
                    mode = Mode::RawStr(hashes);
                    i += len;
                } else if c == '\'' {
                    // Lifetime or char literal? A char literal is `'x'` or
                    // `'\…'`; a lifetime is `'ident` not followed by a
                    // closing quote.
                    if bytes.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to the closing quote.
                        let mut j = i + 2;
                        while j < n && bytes[j] != '\'' {
                            j += if bytes[j] == '\\' { 2 } else { 1 };
                        }
                        line.code.push_str("' '");
                        i = (j + 1).min(n);
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        line.code.push_str("' '");
                        i += 3;
                    } else {
                        line.code.push('\'');
                        i += 1;
                    }
                } else {
                    line.code.push(c);
                    i += 1;
                }
            }
            Mode::BlockComment(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        line.comments.push(std::mem::take(&mut comment_buf));
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment_buf.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped character, whatever it is
                } else if c == '"' {
                    line.code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1; // blanked content
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let closes = (0..hashes).all(|k| bytes.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        line.code.push('"');
                        mode = Mode::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !line.code.is_empty() || !line.comments.is_empty() {
        out.push(line);
    }
    out
}

/// Mark every line that belongs to a `#[cfg(test)]`-gated item (in
/// practice: the conventional `mod tests` block). Test code is exempt
/// from all rules — seeded test RNGs, `unwrap` in assertions, and hash
/// iteration in test helpers are not production nondeterminism.
pub fn test_region_mask(lines: &[SourceLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let squashed: String = lines[i]
            .code
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if !squashed.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip forward to the first `{` of the gated item, then track
        // brace depth until it closes.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && depth == 0 => {
                        // A braceless gated item (e.g. `#[cfg(test)] use …;`)
                        // ends at the semicolon.
                        opened = true;
                        depth = 0;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// How often each identifier-like word occurs in a body of code.
pub type WordCounts = BTreeMap<String, usize>;

/// Add every word of the unmasked lines' code to `counts`. Words are
/// maximal runs of identifier characters, the same boundary
/// [`word_positions`] uses, so comments and string contents never count.
/// Neither do `pub use` re-export statements, to their closing `;`: a
/// re-export names an item without using it.
pub fn count_words(lines: &[SourceLine], mask: &[bool], counts: &mut WordCounts) {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut reexport = false;
    for (line, &masked) in lines.iter().zip(mask) {
        if masked {
            continue;
        }
        reexport |= line.code.trim_start().starts_with("pub use ");
        if reexport {
            reexport = !line.code.contains(';');
            continue;
        }
        for word in line.code.split(|c: char| !is_ident(c)) {
            if !word.is_empty() {
                *counts.entry(word.to_string()).or_default() += 1;
            }
        }
    }
}

/// Find every word-boundary occurrence of `needle` in `haystack` and
/// return the byte offsets where it starts. A "word boundary" means the
/// characters on both sides are not identifier characters, so `HashMap`
/// does not match inside `MyHashMapExt`.
pub fn word_positions(haystack: &str, needle: &str) -> Vec<usize> {
    let mut found = Vec::new();
    if needle.is_empty() {
        return found;
    }
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(rel) = haystack[start..].find(needle) {
        let pos = start + rel;
        let before_ok = haystack[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident(c));
        let first = needle.chars().next().expect("non-empty needle");
        let last = needle.chars().next_back().expect("non-empty needle");
        let after_ok = haystack[pos + needle.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        // Only require boundaries on sides that are identifier-like.
        let lead = !is_ident(first) || before_ok;
        let trail = !is_ident(last) || after_ok;
        if lead && trail {
            found.push(pos);
        }
        start = pos + needle.len();
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        strip_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_removed_text_kept() {
        let lines = strip_source("let x = 1; // trailing note\n// whole line\nlet y = 2;\n");
        assert_eq!(lines.len(), 3);
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(!lines[0].code.contains("trailing"));
        assert_eq!(lines[0].comments, vec![" trailing note".to_string()]);
        assert!(lines[1].is_code_blank());
        assert_eq!(lines[1].comments, vec![" whole line".to_string()]);
    }

    #[test]
    fn nested_block_comments() {
        let c = code_of("a /* outer /* inner */ still comment */ b\n");
        assert_eq!(c[0].replace(' ', ""), "ab");
    }

    #[test]
    fn strings_blanked_but_quotes_kept() {
        let c = code_of("let s = \"Instant::now() .unwrap()\"; let t = 1;\n");
        assert!(!c[0].contains("Instant"));
        assert!(!c[0].contains("unwrap"));
        assert!(c[0].contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let c = code_of("let s = r#\"has \"quotes\" and // not a comment\"#; x()\n");
        assert!(c[0].contains("x()"));
        assert!(!c[0].contains("comment"));
        let c = code_of("let s = \"escaped \\\" quote // nope\"; y()\n");
        assert!(c[0].contains("y()"));
        assert!(!c[0].contains("nope"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let c = code_of("let a: Vec<&'static str> = vec![]; let q = '\"'; z()\n");
        assert!(c[0].contains("'static str"));
        assert!(c[0].contains("z()"));
        let c = code_of("if c == '\\'' { f() }\n");
        assert!(c[0].contains("f()"));
    }

    #[test]
    fn multiline_string_blanked() {
        let c = code_of("let s = \"line one\nline .unwrap() two\"; g()\n");
        assert!(!c[1].contains("unwrap"));
        assert!(c[1].contains("g()"));
    }

    #[test]
    fn cfg_test_mask_covers_mod_block() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also_real() {}\n";
        let lines = strip_source(src);
        let mask = test_region_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn word_positions_respect_boundaries() {
        assert_eq!(
            word_positions("HashMap Hash HashMapExt", "HashMap"),
            vec![0]
        );
        assert_eq!(word_positions("a.map m map", "map"), vec![2, 8]);
        assert!(word_positions("smallmap", "map").is_empty());
    }
}
