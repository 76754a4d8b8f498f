//! The determinism & robustness rules.
//!
//! Each rule is a line-level semantic check over lexically stripped
//! source (see [`crate::lexer`]): cheap enough to run on every file of
//! the workspace in milliseconds, precise enough that every finding is
//! either a real contract violation or carries an explicit, reasoned
//! `detlint::allow` annotation.

use crate::lexer::{word_positions, SourceLine, WordCounts};
use std::collections::BTreeSet;
use std::fmt;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Iteration over `HashMap`/`HashSet`: hash iteration order is
    /// nondeterministic across processes (`RandomState`), so any loop or
    /// iterator chain over a hash collection that feeds reports, JSON,
    /// summaries, or state interning breaks bit-identical replays.
    D001,
    /// `Instant::now` / `SystemTime` outside the bench harness: wall
    /// clocks may only feed explicitly-marked timing fields, never
    /// modeled quantities.
    D002,
    /// RNG construction outside the deterministic `child_seed` grid of
    /// `numerics::replicate`: every stream must have a stable identity.
    D003,
    /// A thread started outside `numerics::exec`, the one ordered
    /// executor: results combined across ad-hoc threads can depend on
    /// scheduling or on the thread count, so float reductions would too.
    D004,
    /// `unwrap`/`expect`/`panic!` in the engine crate: the `runner serve`
    /// daemon must isolate malformed spool specs into per-spec failures,
    /// not die.
    R001,
    /// A `pub` item of a library crate that no non-test code names
    /// outside its own definition line: dead code the compiler cannot
    /// see, since every `pub` item counts as used.
    U001,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 6] = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::R001,
        Rule::U001,
    ];

    /// Stable identifier used in reports and `detlint::allow` annotations.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::R001 => "R001",
            Rule::U001 => "U001",
        }
    }

    /// Parse an identifier as written inside an annotation.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line description for diagnostics.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "iteration over a HashMap/HashSet (nondeterministic order)",
            Rule::D002 => "wall-clock read outside the bench harness",
            Rule::D003 => "RNG construction outside the deterministic seed grid",
            Rule::D004 => "thread started outside the numerics::exec executor",
            Rule::R001 => "unwrap/expect/panic reachable in the engine service path",
            Rule::U001 => "pub item that no non-test code names outside its definition",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Which rules apply to a workspace-relative path (forward slashes).
///
/// The scope encodes the project's allowlists structurally:
/// * `crates/bench/` is the timing harness — wall clocks are its job.
/// * `numerics/src/{replicate,rng}.rs` own the `child_seed` grid, and
///   `numerics/src/exec.rs` is the one place that starts threads.
/// * R001 guards the long-running service: everything under
///   `crates/engine/src/`, plus the scenario subsystem and exact evaluator
///   it runs (`crates/scenario/src/`, `crates/core/src/scenario_model.rs`
///   and `crates/core/src/metrics.rs`).
/// * U001 audits library code: a crate's `src/`, minus `src/bin/` and
///   `main.rs`, whose `pub` items are visible to other crates.
pub fn rules_for_path(path: &str) -> Vec<Rule> {
    let mut rules = vec![Rule::D001];
    if !path.starts_with("crates/bench/") {
        rules.push(Rule::D002);
    }
    let seed_grid =
        path == "crates/numerics/src/replicate.rs" || path == "crates/numerics/src/rng.rs";
    if !seed_grid {
        rules.push(Rule::D003);
    }
    if path != "crates/numerics/src/exec.rs" {
        rules.push(Rule::D004);
    }
    if path.starts_with("crates/engine/src/")
        || path.starts_with("crates/scenario/src/")
        || path == "crates/core/src/scenario_model.rs"
        || path == "crates/core/src/metrics.rs"
    {
        // The scenario subsystem and the exact evaluator are service-facing
        // too: the long-running daemon validates scenario specs and solves
        // every single-system spec through `ExactTemplate`, so a panic
        // there kills worker threads the same way an engine panic would.
        rules.push(Rule::R001);
    }
    if path
        .split_once("/src/")
        .is_some_and(|(_, rest)| !rest.starts_with("bin/"))
        && !path.ends_with("/main.rs")
    {
        rules.push(Rule::U001);
    }
    rules
}

/// A raw (pre-suppression) finding inside one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// Violated rule.
    pub rule: Rule,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source text of the offending line (stripped code, so no
    /// comment/string noise).
    pub snippet: String,
}

/// Scan one stripped file. `mask[i]` marks test-region lines (exempt);
/// `words` counts every word of the non-test code in scope for U001
/// (this file alone, or the whole workspace).
pub fn scan_lines(
    path: &str,
    lines: &[SourceLine],
    mask: &[bool],
    words: &WordCounts,
) -> Vec<RawFinding> {
    let rules = rules_for_path(path);
    let mut findings = Vec::new();
    let hash_names = if rules.contains(&Rule::D001) {
        hash_bound_names(lines)
    } else {
        BTreeSet::new()
    };
    for (idx, line) in lines.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let code = &line.code;
        if code.trim().is_empty() {
            continue;
        }
        let mut push = |rule: Rule| {
            findings.push(RawFinding {
                rule,
                line: idx + 1,
                snippet: code.trim().to_string(),
            });
        };
        if rules.contains(&Rule::D001) && iterates_hash_collection(code, &hash_names) {
            push(Rule::D001);
        }
        if rules.contains(&Rule::D002) && reads_wall_clock(code) {
            push(Rule::D002);
        }
        if rules.contains(&Rule::D003) && constructs_rng(code) {
            push(Rule::D003);
        }
        if rules.contains(&Rule::D004) && starts_thread(code) {
            push(Rule::D004);
        }
        if rules.contains(&Rule::R001) && may_panic(code) {
            push(Rule::R001);
        }
        if rules.contains(&Rule::U001) && unused_pub_item(code, words) {
            push(Rule::U001);
        }
    }
    findings
}

/// Pass 1 of D001: names bound to a hash-collection type anywhere in the
/// file — `let` bindings, struct fields, and function parameters. The
/// binding itself is not a finding; only iterating it is.
fn hash_bound_names(lines: &[SourceLine]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            for pos in word_positions(code, ty) {
                if let Some(name) = binding_name(code, pos) {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// The identifier a type occurrence at `pos` is bound to, if the line
/// looks like a binding: `let [mut] name … HashMap` or `name: … HashMap`.
fn binding_name(code: &str, pos: usize) -> Option<String> {
    let head = &code[..pos];
    // `let` binding (covers `let name: HashMap<…>` and
    // `let name = HashMap::new()` alike).
    if let Some(let_pos) = word_positions(head, "let").last() {
        let mut rest = head[let_pos + 3..].trim_start();
        if let Some(stripped) = rest.strip_prefix("mut ") {
            rest = stripped.trim_start();
        }
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    // Field / parameter declaration: the identifier before the last
    // single `:` (skipping `::` path separators) ahead of the type.
    let bytes: Vec<char> = head.chars().collect();
    let mut i = bytes.len();
    while i > 0 {
        i -= 1;
        if bytes[i] == ':' {
            let double = (i > 0 && bytes[i - 1] == ':') || bytes.get(i + 1) == Some(&':');
            if double {
                if i > 0 && bytes[i - 1] == ':' {
                    i -= 1; // skip both halves of `::`
                }
                continue;
            }
            let upto: String = bytes[..i].iter().collect();
            let trimmed = upto.trim_end();
            let name: String = trimmed
                .chars()
                .rev()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .chars()
                .rev()
                .collect();
            if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                return None;
            }
            return Some(name);
        }
    }
    None
}

/// Iterator-producing methods whose order reflects hash state.
const HASH_ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".values()",
    ".values_mut()",
    ".into_values()",
    ".keys()",
    ".into_keys()",
    ".into_iter()",
    ".drain(",
];

/// Pass 2 of D001: does this line iterate one of the hash-bound names?
fn iterates_hash_collection(code: &str, names: &BTreeSet<String>) -> bool {
    for name in names {
        for pos in word_positions(code, name) {
            let rest = &code[pos + name.len()..];
            if HASH_ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                return true;
            }
        }
        // `for x in &name {` / `for (k, v) in name {` — direct IntoIterator
        // use without a method call.
        let trimmed = code.trim_start();
        if trimmed.starts_with("for ") {
            if let Some(in_pos) = code.find(" in ") {
                let tail = &code[in_pos + 4..];
                for pos in word_positions(tail, name) {
                    let next = tail[pos + name.len()..].chars().next();
                    // A following `.` means a method call, which the
                    // method pass above already classifies.
                    if next != Some('.') {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// D002: wall-clock reads.
fn reads_wall_clock(code: &str) -> bool {
    code.contains("Instant::now") || !word_positions(code, "SystemTime").is_empty()
}

/// RNG constructors with nondeterministic or unaudited seed provenance.
const RNG_CONSTRUCTORS: [&str; 6] = [
    "seed_from_u64(",
    "from_seed(",
    "from_rng(",
    "from_entropy(",
    "thread_rng(",
    "random(",
];

/// D003: RNG construction. Seeded constructors are flagged too — the
/// annotation documents where the seed comes from (it must trace back to
/// the `child_seed` grid or a fixed spec-level master seed).
fn constructs_rng(code: &str) -> bool {
    RNG_CONSTRUCTORS.iter().any(|c| {
        let probe = &c[..c.len() - 1];
        word_positions(code, probe)
            .iter()
            .any(|&p| code[p + probe.len()..].starts_with('('))
    })
}

/// D004: the ways `std` starts a thread (imports included, so a bare
/// `scope(…)` after `use std::thread::scope` is caught at the `use`).
fn starts_thread(code: &str) -> bool {
    ["thread::scope", "thread::spawn", "thread::Builder"]
        .iter()
        .any(|p| !word_positions(code, p).is_empty())
}

/// Panicking constructs (R001). `.unwrap_or*` and `.expect_err` do not
/// match — the patterns are delimiter-exact.
fn may_panic(code: &str) -> bool {
    if code.contains(".unwrap()") || code.contains(".expect(") {
        return true;
    }
    ["panic!", "unreachable!", "todo!", "unimplemented!"]
        .iter()
        .any(|m| {
            let probe = &m[..m.len() - 1];
            word_positions(code, probe)
                .iter()
                .any(|&p| code[p + probe.len()..].starts_with('!'))
        })
}

/// The name declared by a `pub fn|struct|enum|trait|const|static|type`
/// line. Restricted visibilities (`pub(crate)`, `pub(super)`) are not
/// `pub ` and so never match.
fn pub_item_name(code: &str) -> Option<&str> {
    let mut tokens = code.trim_start().strip_prefix("pub ")?.split_whitespace();
    let name = loop {
        match tokens.next()? {
            // `pub const NAME: …` is an item; `pub const fn` qualifies one.
            "const" => match tokens.clone().next()? {
                "fn" | "unsafe" | "async" | "extern" => {}
                name => break name,
            },
            // Qualifiers; `extern "C"` keeps only its blanked quotes.
            "unsafe" | "async" | "extern" | "\"\"" => {}
            "fn" | "struct" | "enum" | "trait" | "type" => break tokens.next()?,
            "static" => match tokens.next()? {
                "mut" => break tokens.next()?,
                name => break name,
            },
            _ => return None,
        }
    };
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    let name = &name[..end];
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// U001: a `pub` item definition whose name occurs, as a word, only on
/// its own definition line.
fn unused_pub_item(code: &str, words: &WordCounts) -> bool {
    pub_item_name(code).is_some_and(|name| {
        words.get(name).copied().unwrap_or(0) <= word_positions(code, name).len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{count_words, strip_source, test_region_mask};

    fn scan(path: &str, src: &str) -> Vec<RawFinding> {
        let lines = strip_source(src);
        let mask = test_region_mask(&lines);
        let mut words = WordCounts::new();
        count_words(&lines, &mask, &mut words);
        scan_lines(path, &lines, &mask, &words)
    }

    #[test]
    fn d001_flags_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\n\
                   fn f() {\n\
                   let mut m: HashMap<u32, u32> = HashMap::new();\n\
                   m.insert(1, 2);\n\
                   let _ = m.get(&1);\n\
                   for (k, v) in &m { let _ = (k, v); }\n\
                   let _: Vec<_> = m.values().collect();\n\
                   }\n";
        let found = scan("crates/x/src/lib.rs", src);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![6, 7]);
        assert!(found.iter().all(|f| f.rule == Rule::D001));
    }

    #[test]
    fn d001_sees_struct_fields_via_self() {
        let src = "struct C { entries: std::collections::HashMap<u64, u64> }\n\
                   impl C {\n\
                   fn total(&self) -> u64 { self.entries.values().sum() }\n\
                   }\n";
        let found = scan("crates/x/src/lib.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn d001_ignores_btreemap() {
        let src = "fn f() {\n\
                   let mut m: std::collections::BTreeMap<u32, u32> = Default::default();\n\
                   for (k, v) in &m { let _ = (k, v); }\n\
                   }\n";
        assert!(scan("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn d002_scope_and_strings() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n\
                   fn g() { let s = \"Instant::now\"; let _ = s; }\n";
        let found = scan("crates/engine/src/x.rs", src);
        assert_eq!(found.iter().filter(|f| f.rule == Rule::D002).count(), 1);
        assert!(scan("crates/bench/src/bin/x.rs", src)
            .iter()
            .all(|f| f.rule != Rule::D002));
    }

    #[test]
    fn d003_constructors() {
        let src = "fn f(seed: u64) { let _rng = SmallRng::seed_from_u64(seed); }\n\
                   fn g() { let _rng = rand::thread_rng(); }\n";
        let found = scan("crates/x/src/lib.rs", src);
        assert_eq!(found.iter().filter(|f| f.rule == Rule::D003).count(), 2);
        assert!(scan("crates/numerics/src/replicate.rs", src)
            .iter()
            .all(|f| f.rule != Rule::D003));
    }

    #[test]
    fn d004_reduction_window() {
        // Partial sums reduced across ad-hoc threads: the split, and so
        // the float association, follows the thread count.
        let bad = "fn f(xs: &[f64]) -> f64 {\n\
                   std::thread::scope(|s| {\n\
                   let h: Vec<_> = xs.chunks(8).map(|c| s.spawn(move || c.iter().sum::<f64>())).collect();\n\
                   h.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()\n\
                   })\n\
                   }\n";
        // The ordered map, then one sequential reduction.
        let good = "fn f(xs: Vec<f64>) -> f64 {\n\
                    let v = numerics::exec::map(xs, |x| x * 2.0);\n\
                    let n = std::thread::available_parallelism();\n\
                    v.iter().sum::<f64>() + n.map_or(0.0, |n| n.get() as f64)\n\
                    }\n";
        let found = scan("crates/x/src/lib.rs", bad);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].rule, found[0].line), (Rule::D004, 2));
        assert!(scan("crates/x/src/lib.rs", good).is_empty());
        assert!(scan("crates/numerics/src/exec.rs", bad).is_empty());
        let imported = "use std::thread::spawn;\nfn f() { let _ = spawn(|| 1); }\n";
        assert_eq!(scan("crates/x/src/lib.rs", imported).len(), 1);
    }

    #[test]
    fn r001_only_in_engine_and_exact_tokens() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   fn h(x: Result<u32, u32>) -> u32 { x.expect(\"boom\") }\n\
                   fn i(x: Result<u32, u32>) -> u32 { x.expect_err(\"ok\") }\n\
                   fn j() { panic!(\"no\") }\n";
        let found = scan("crates/engine/src/x.rs", src);
        let lines: Vec<usize> = found
            .iter()
            .filter(|f| f.rule == Rule::R001)
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![1, 3, 5]);
        assert!(scan("crates/spn/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "fn real(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   }\n";
        let found = scan("crates/engine/src/x.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
    }
}
