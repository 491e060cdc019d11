//! # urs-analyze — workspace-native static analysis
//!
//! The repository's correctness story rests on three contracts the type system
//! cannot state: library code must not panic on malformed input, results must
//! not depend on iteration order or wall-clock time, and the linalg hot loops
//! must stay allocation-free (the property PR 4's `Workspace` bought).  This
//! crate is the static gate that turns those contracts from example-tested
//! conventions into checked invariants.
//!
//! | paper / repo concern                  | enforced here by                        |
//! |---------------------------------------|-----------------------------------------|
//! | certified numbers (PR 6, PR 7)        | `float_cmp`, `partial_cmp_unwrap`, `hash_collection`, `wall_clock` |
//! | a malformed query must not kill a process (`urs-server` roadmap) | `no_panic`, `slice_index` |
//! | allocation-free kernels (PR 4)        | `no_alloc` fences in `urs-linalg`       |
//!
//! The pipeline: a hand-rolled [`lexer`] (no `syn` — the registry is offline)
//! feeds a [`rules`] engine; findings are reconciled against the checked-in
//! [`baseline`] (`analyze-baseline.toml`) so pre-existing debt is burned down
//! incrementally while anything *new* fails the gate.  Run it as
//! `cargo run -p urs-analyze`; see the README's "Static analysis" section for
//! the waiver and fence syntax.

pub mod baseline;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use baseline::{Baseline, BaselineEntry};
pub use rules::{analyze_source, FileKind, Finding, Rule, ALL_RULES};

/// A finding located in a workspace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFinding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    pub finding: Finding,
}

impl FileFinding {
    /// `file:line: [rule] message` — the greppable diagnostic form.
    pub fn display(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file,
            self.finding.line,
            self.finding.rule.id(),
            self.finding.message
        )
    }
}

/// Directories under the workspace root whose `src/` trees are analyzed.
/// `crates/vendor/*` (offline API stubs of external crates) and `crates/bench`
/// (timing + printing binaries, exempt by design) are deliberately absent.
const ANALYZED_CRATE_DIRS: &[&str] = &[
    "crates/analyze",
    "crates/core",
    "crates/data",
    "crates/dist",
    "crates/linalg",
    "crates/server",
    "crates/sim",
    ".", // the root facade crate
];

/// Classifies a workspace-relative source path, or `None` if out of scope.
pub fn classify(relative: &str) -> Option<FileKind> {
    if !relative.ends_with(".rs") {
        return None;
    }
    if relative.contains("/src/bin/") || relative.ends_with("/src/main.rs") {
        return Some(FileKind::Bin);
    }
    Some(FileKind::Lib)
}

/// Walks every analyzed `src/` tree under `root` and returns all findings in
/// deterministic (file, line, rule) order.
///
/// # Errors
///
/// Propagates I/O errors; a missing expected tree (e.g. `crates/core/src`) is
/// an error rather than a silently shrunk analysis.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<FileFinding>> {
    let mut files = Vec::new();
    for crate_dir in ANALYZED_CRATE_DIRS {
        let src = root.join(crate_dir).join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("expected source tree missing: {}", src.display()),
            ));
        }
        collect_rust_files(&src, &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let relative = relative_path(root, &path);
        let Some(kind) = classify(&relative) else { continue };
        let source = fs::read_to_string(&path)?;
        for finding in analyze_source(kind, &source) {
            findings.push(FileFinding { file: relative.clone(), finding });
        }
    }
    Ok(findings)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // `./src/lib.rs` (the root facade) normalises to `src/lib.rs`.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .filter(|c| c != ".")
        .collect::<Vec<_>>()
        .join("/")
}

/// The reconciliation of a finding set against a baseline.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Groups over their baseline budget: every finding in the group, with the
    /// budget attached (the analyzer cannot know *which* finding is the new
    /// one, so it reports the whole group for review).
    pub over_budget: Vec<(String, Rule, usize, Vec<FileFinding>)>,
    /// Baseline entries whose budget exceeds the current count — debt that was
    /// paid down.  They fail the gate, so the change that removes findings must
    /// lower the baseline (`--write-baseline`) in the same commit.
    pub stale: Vec<(String, String, usize, usize)>,
    /// Baseline entries naming a rule ID the analyzer does not know.
    pub unknown_rules: Vec<(String, String)>,
    /// Total findings observed (baselined ones included).
    pub total_findings: usize,
}

impl CheckReport {
    /// True when nothing blocks the gate: no group over budget, no unknown rule
    /// and no stale entry.
    pub fn passed(&self) -> bool {
        self.over_budget.is_empty() && self.unknown_rules.is_empty() && self.stale.is_empty()
    }
}

/// Reconciles `findings` against `baseline`.
pub fn check(findings: &[FileFinding], baseline: &Baseline) -> CheckReport {
    let mut groups: BTreeMap<(String, Rule), Vec<FileFinding>> = BTreeMap::new();
    for finding in findings {
        groups
            .entry((finding.file.clone(), finding.finding.rule))
            .or_default()
            .push(finding.clone());
    }
    let mut report = CheckReport { total_findings: findings.len(), ..CheckReport::default() };
    for ((file, rule), group) in &groups {
        let allowance = baseline.allowance(file, rule.id());
        if group.len() > allowance {
            report.over_budget.push((file.clone(), *rule, allowance, group.clone()));
        }
    }
    for entry in baseline.entries() {
        match Rule::from_id(&entry.rule) {
            None => report.unknown_rules.push((entry.file.clone(), entry.rule.clone())),
            Some(rule) => {
                let current = groups.get(&(entry.file.clone(), rule)).map_or(0, Vec::len);
                if current < entry.count {
                    report.stale.push((entry.file, entry.rule, entry.count, current));
                }
            }
        }
    }
    report
}

/// Builds a fresh baseline from `findings`, carrying over the reasons of
/// `previous` entries that survive (same file and rule).
pub fn rebuild_baseline(findings: &[FileFinding], previous: &Baseline) -> Baseline {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for finding in findings {
        *counts
            .entry((finding.file.clone(), finding.finding.rule.id().to_string()))
            .or_default() += 1;
    }
    let mut fresh = Baseline::default();
    for ((file, rule), count) in counts {
        let reason = previous
            .entries()
            .find(|e| e.file == file && e.rule == rule)
            .map(|e| e.reason)
            .filter(|r| !r.is_empty())
            .unwrap_or_else(|| "pre-existing debt; burn down, do not add".to_string());
        fresh.insert(BaselineEntry { file, rule, count, reason });
    }
    fresh
}

/// Locates the workspace root by walking up from `start` to the first
/// directory containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(current) = dir {
        let manifest = current.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(current.to_path_buf());
            }
        }
        dir = current.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, rule: Rule, line: u32) -> FileFinding {
        FileFinding { file: file.into(), finding: Finding { rule, line, message: String::new() } }
    }

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/qbd.rs"), Some(FileKind::Lib));
        assert_eq!(classify("crates/analyze/src/main.rs"), Some(FileKind::Bin));
        assert_eq!(classify("crates/bench/src/bin/fig5.rs"), Some(FileKind::Bin));
        assert_eq!(classify("crates/core/src/qbd.txt"), None);
        assert_eq!(classify("src/lib.rs"), Some(FileKind::Lib));
    }

    #[test]
    fn check_flags_only_over_budget_groups() {
        let findings = vec![
            finding("a.rs", Rule::NoPanic, 3),
            finding("a.rs", Rule::NoPanic, 9),
            finding("b.rs", Rule::FloatCmp, 2),
        ];
        let mut baseline = Baseline::default();
        baseline.insert(BaselineEntry {
            file: "a.rs".into(),
            rule: "no_panic".into(),
            count: 2,
            reason: String::new(),
        });
        let report = check(&findings, &baseline);
        assert!(!report.passed());
        assert_eq!(report.over_budget.len(), 1);
        let (file, rule, allowance, group) = &report.over_budget[0];
        assert_eq!((file.as_str(), *rule, *allowance, group.len()), ("b.rs", Rule::FloatCmp, 0, 1));
    }

    #[test]
    fn unknown_baseline_rules_fail_the_gate() {
        let mut baseline = Baseline::default();
        baseline.insert(BaselineEntry {
            file: "a.rs".into(),
            rule: "no_such_rule".into(),
            count: 1,
            reason: String::new(),
        });
        assert!(!check(&[], &baseline).passed());
    }

    #[test]
    fn rebuild_preserves_reasons_and_prunes_dead_entries() {
        let findings = vec![finding("a.rs", Rule::NoPanic, 1), finding("a.rs", Rule::NoPanic, 2)];
        let mut previous = Baseline::default();
        previous.insert(BaselineEntry {
            file: "a.rs".into(),
            rule: "no_panic".into(),
            count: 9,
            reason: "kept".into(),
        });
        previous.insert(BaselineEntry {
            file: "gone.rs".into(),
            rule: "no_panic".into(),
            count: 1,
            reason: "dead".into(),
        });
        let fresh = rebuild_baseline(&findings, &previous);
        let entries: Vec<BaselineEntry> = fresh.entries().collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 2);
        assert_eq!(entries[0].reason, "kept");
    }
}
