//! `detlint` — a workspace-wide determinism & robustness linter.
//!
//! Every scaling step in this repository (rebuild-free templates, the
//! fixed-chunk replication executor, warm template-cache replays) rests on
//! one invariant: **runs are bit-identical** regardless of batching,
//! threading, or cache state. That contract used to live in a handful of
//! proptests; this crate makes its *structural* preconditions machine
//! checked. It is an offline, dependency-free static analyzer: a
//! hand-rolled lexer ([`lexer`]) strips comments and string contents, and
//! line-level semantic rules ([`rules`]) flag the constructs that can
//! silently break determinism or crash the long-running service, plus the
//! dead library code no caller reaches:
//!
//! | rule | contract |
//! |------|----------|
//! | D001 | no iteration over `HashMap`/`HashSet` (order nondeterminism) |
//! | D002 | no wall-clock reads outside the bench harness |
//! | D003 | no RNG construction outside the `child_seed` discipline |
//! | D004 | no thread started outside `numerics::exec`, the one ordered executor |
//! | R001 | no `unwrap`/`expect`/`panic!` in the engine service path (incl. the scenario subsystem) |
//! | U001 | no `pub` library item that only tests name (dead code the compiler cannot see) |
//!
//! A finding is suppressed **only** by an explicit annotation on (or
//! immediately above) the offending line:
//!
//! ```text
//! // detlint::allow(D002): feeds the report's explicit wall_seconds timing field
//! ```
//!
//! The reason is mandatory; the tool parses and counts every suppression,
//! reports *stale* allows (annotations that no longer suppress anything)
//! and *malformed* ones (missing rule or reason), and `--deny-all` fails
//! on any of the three. CI runs `cargo run -p analysis -- --deny-all` as a
//! gate next to clippy, and the bench snapshot records the suppression
//! counts so the allow-list cannot grow without a visible diff.

pub mod lexer;
pub mod rules;

pub use rules::Rule;

use lexer::{count_words, strip_source, test_region_mask, SourceLine, WordCounts};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The annotation marker scanned for inside comments.
const ALLOW_MARKER: &str = "detlint::allow(";

/// One rule finding, after suppression resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed stripped-code text of the offending line.
    pub snippet: String,
    /// The written reason of the `detlint::allow` annotation suppressing
    /// this finding, or `None` when the finding is active.
    pub suppression: Option<String>,
}

/// A parsed, well-formed `detlint::allow` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Workspace-relative path of the file carrying the annotation.
    pub path: String,
    /// 1-based line of the comment itself.
    pub line: usize,
    /// Rule being suppressed.
    pub rule: Rule,
    /// Mandatory human-written justification.
    pub reason: String,
    /// 1-based line the annotation applies to (its own line when it
    /// trails code, otherwise the next code-bearing line).
    pub target: usize,
}

/// A `detlint::allow` the tool could not honor: unknown rule, missing
/// reason, or no code line to attach to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedAllow {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// What is wrong with it.
    pub problem: String,
}

/// Per-rule totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleCount {
    /// Unsuppressed findings.
    pub active: usize,
    /// Findings carrying a reasoned allow.
    pub suppressed: usize,
}

/// The full result of one workspace (or fixture) scan.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every finding, suppressed or not, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Well-formed allows that suppressed nothing — they must be removed,
    /// or they will silently mask a future regression at that site.
    pub stale_allows: Vec<Allow>,
    /// Annotations the tool could not parse or attach.
    pub malformed_allows: Vec<MalformedAllow>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings not covered by an allow.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppression.is_none())
    }

    /// Per-rule active/suppressed totals (every rule present, even at 0).
    pub fn counts(&self) -> BTreeMap<&'static str, RuleCount> {
        let mut counts: BTreeMap<&'static str, RuleCount> = Rule::ALL
            .iter()
            .map(|r| (r.id(), RuleCount::default()))
            .collect();
        for f in &self.findings {
            let c = counts.entry(f.rule.id()).or_default();
            if f.suppression.is_some() {
                c.suppressed += 1;
            } else {
                c.active += 1;
            }
        }
        counts
    }

    /// True when the workspace honors the contract strictly: no active
    /// findings, no stale allows, no malformed allows.
    pub fn is_clean(&self) -> bool {
        self.active().next().is_none()
            && self.stale_allows.is_empty()
            && self.malformed_allows.is_empty()
    }

    /// Canonical JSON encoding: keys sorted, findings sorted, no
    /// machine-dependent content (paths are workspace-relative). Scanning
    /// the same tree twice yields byte-identical reports.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"clean\":{}", self.is_clean());
        let _ = write!(s, ",\"files_scanned\":{}", self.files_scanned);
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"line\":{},\"path\":{},\"rule\":\"{}\",\"snippet\":{},\"suppression\":{}}}",
                f.line,
                json_str(&f.path),
                f.rule,
                json_str(&f.snippet),
                match &f.suppression {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            );
        }
        s.push_str("],\"malformed_allows\":[");
        for (i, m) in self.malformed_allows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"line\":{},\"path\":{},\"problem\":{}}}",
                m.line,
                json_str(&m.path),
                json_str(&m.problem)
            );
        }
        s.push_str("],\"rules\":{");
        for (i, (id, c)) in self.counts().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{id}\":{{\"active\":{},\"suppressed\":{}}}",
                c.active, c.suppressed
            );
        }
        s.push_str("},\"stale_allows\":[");
        for (i, a) in self.stale_allows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"line\":{},\"path\":{},\"reason\":{},\"rule\":\"{}\"}}",
                a.line,
                json_str(&a.path),
                json_str(&a.reason),
                a.rule
            );
        }
        s.push_str("],\"version\":1}");
        s
    }

    /// Human-readable diagnostics.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in self.active() {
            let _ = writeln!(
                s,
                "{}: {}:{}: {}\n    {}",
                f.rule,
                f.path,
                f.line,
                f.rule.summary(),
                f.snippet
            );
        }
        for a in &self.stale_allows {
            let _ = writeln!(
                s,
                "stale-allow: {}:{}: detlint::allow({}) suppresses nothing — remove it",
                a.path, a.line, a.rule
            );
        }
        for m in &self.malformed_allows {
            let _ = writeln!(s, "malformed-allow: {}:{}: {}", m.path, m.line, m.problem);
        }
        let counts = self.counts();
        let _ = writeln!(s, "{} files scanned", self.files_scanned);
        for (id, c) in &counts {
            let _ = writeln!(
                s,
                "  {id}: {} active, {} suppressed",
                c.active, c.suppressed
            );
        }
        let _ = writeln!(
            s,
            "result: {}",
            if self.is_clean() {
                "clean"
            } else {
                "VIOLATIONS"
            }
        );
        s
    }
}

/// JSON string escaping (control characters, quote, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extract annotations from stripped lines. Returns well-formed allows
/// (with resolved target lines) and malformed ones.
fn parse_allows(path: &str, lines: &[SourceLine]) -> (Vec<Allow>, Vec<MalformedAllow>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for comment in &line.comments {
            // An annotation must be the comment's leading content
            // (`// detlint::allow(RULE): reason`). Mentions of the syntax
            // mid-prose — docs, this very file — are not annotations.
            let trimmed = comment.trim_start();
            if !trimmed.starts_with(ALLOW_MARKER) {
                continue;
            }
            {
                let after = &trimmed[ALLOW_MARKER.len()..];
                let Some(close) = after.find(')') else {
                    malformed.push(MalformedAllow {
                        path: path.to_string(),
                        line: idx + 1,
                        problem: "unclosed detlint::allow(…)".into(),
                    });
                    continue;
                };
                let rule_txt = after[..close].trim();
                let Some(rule) = Rule::parse(rule_txt) else {
                    malformed.push(MalformedAllow {
                        path: path.to_string(),
                        line: idx + 1,
                        problem: format!("unknown rule `{rule_txt}` in detlint::allow"),
                    });
                    continue;
                };
                let tail = after[close + 1..].trim_start();
                let reason = tail
                    .strip_prefix(':')
                    .map(str::trim)
                    .unwrap_or("")
                    .to_string();
                if reason.is_empty() {
                    malformed.push(MalformedAllow {
                        path: path.to_string(),
                        line: idx + 1,
                        problem: format!("detlint::allow({rule}) without a reason — write `: why`"),
                    });
                    continue;
                }
                // Target: this line if it carries code, else the next
                // code-bearing line.
                let target = if !lines[idx].is_code_blank() {
                    Some(idx + 1)
                } else {
                    lines
                        .iter()
                        .enumerate()
                        .skip(idx + 1)
                        .find(|(_, l)| !l.is_code_blank())
                        .map(|(j, _)| j + 1)
                };
                match target {
                    Some(target) => allows.push(Allow {
                        path: path.to_string(),
                        line: idx + 1,
                        rule,
                        reason,
                        target,
                    }),
                    None => malformed.push(MalformedAllow {
                        path: path.to_string(),
                        line: idx + 1,
                        problem: format!("detlint::allow({rule}) has no code line to attach to"),
                    }),
                }
            }
        }
    }
    (allows, malformed)
}

/// Scan one file's source text under its workspace-relative path.
/// This is the unit the fixture tests drive directly; U001 sees only
/// this file's code.
// detlint::allow(U001): the single-file entry of the fixture tests in tests/detlint.rs
pub fn scan_source(path: &str, source: &str) -> Report {
    let lines = strip_source(source);
    let mask = test_region_mask(&lines);
    let mut words = WordCounts::new();
    count_words(&lines, &mask, &mut words);
    scan_lexed(path, &lines, &mask, &words)
}

/// Run every rule in scope over one lexed file and resolve its allows;
/// `words` is the U001 word index.
fn scan_lexed(path: &str, lines: &[SourceLine], mask: &[bool], words: &WordCounts) -> Report {
    let raw = rules::scan_lines(path, lines, mask, words);
    let (allows, malformed_allows) = parse_allows(path, lines);

    let mut used = vec![false; allows.len()];
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .map(|f| {
            let suppression = allows
                .iter()
                .enumerate()
                .find(|(_, a)| a.rule == f.rule && a.target == f.line)
                .map(|(i, a)| {
                    used[i] = true;
                    a.reason.clone()
                });
            Finding {
                rule: f.rule,
                path: path.to_string(),
                line: f.line,
                snippet: f.snippet,
                suppression,
            }
        })
        .collect();
    findings.sort_by_key(|f| (f.line, f.rule));

    let stale_allows = allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.clone())
        .collect();
    Report {
        findings,
        stale_allows,
        malformed_allows,
        files_scanned: 1,
    }
}

/// True when a workspace-relative path is out of scope for the linter:
/// build artifacts, the vendored dependency stubs (external idiom, not
/// project code), test/bench code, and the linter's own fixture corpus
/// (which is violating *by design*).
fn excluded(rel: &str) -> bool {
    if rel.starts_with("crates/analysis/tests/fixtures/") {
        return true;
    }
    rel.split('/')
        .any(|part| matches!(part, "target" | "vendor" | ".git" | "tests" | "benches"))
}

/// Recursively collect the `.rs` files in scope, sorted for deterministic
/// report order.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let Ok(rel) = path.strip_prefix(root) else {
                continue;
            };
            let rel_str = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if excluded(&rel_str) {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan the whole workspace rooted at `root`.
///
/// # Errors
/// Propagates filesystem errors (unreadable directories or files).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let lines = strip_source(&fs::read_to_string(&path)?);
        let mask = test_region_mask(&lines);
        files.push((rel, lines, mask));
    }
    // Pass 1: the U001 word index over every scanned file's non-test code.
    let mut words = WordCounts::new();
    for (_, lines, mask) in &files {
        count_words(lines, mask, &mut words);
    }
    let mut report = Report::default();
    for (rel, lines, mask) in &files {
        let file_report = scan_lexed(rel, lines, mask, &words);
        report.findings.extend(file_report.findings);
        report.stale_allows.extend(file_report.stale_allows);
        report.malformed_allows.extend(file_report.malformed_allows);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
        .stale_allows
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
        .malformed_allows
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`, falling back to `start` itself.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; } // detlint::allow(D002): timing demo\n";
        let r = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].suppression.as_deref(), Some("timing demo"));
        assert!(r.is_clean());
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src = "// detlint::allow(D002): timing demo\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let r = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].suppression.is_some());
        assert!(r.is_clean());
    }

    #[test]
    fn allow_needs_reason_and_known_rule() {
        let src = "// detlint::allow(D002)\n// detlint::allow(D9): x\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let r = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(r.malformed_allows.len(), 2);
        assert_eq!(r.active().count(), 1, "malformed allows suppress nothing");
        assert!(!r.is_clean());
    }

    #[test]
    fn stale_allow_reported() {
        let src = "// detlint::allow(D002): nothing here needs it\nfn f() {}\n";
        let r = scan_source("crates/x/src/lib.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.stale_allows.len(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn wrong_rule_allow_does_not_suppress() {
        let src = "// detlint::allow(D001): wrong rule\nfn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let r = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(r.active().count(), 1);
        assert_eq!(r.stale_allows.len(), 1);
    }

    #[test]
    fn json_is_canonical_and_repeatable() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        let a = scan_source("crates/x/src/lib.rs", src).to_json();
        let b = scan_source("crates/x/src/lib.rs", src).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"rule\":\"D002\""));
        assert!(a.contains("\"version\":1"));
    }
}
