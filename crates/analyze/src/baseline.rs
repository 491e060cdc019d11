//! The checked-in finding baseline: a ratchet that lets pre-existing
//! violations be burned down incrementally instead of blocking the gate.
//!
//! `analyze-baseline.toml` records, per `(file, rule)`, the number of findings
//! that existed when the entry was written, plus a human reason.  The check
//! passes only while every current count equals its recorded count: any *new*
//! finding pushes a group over its budget, and any fixed one leaves the entry
//! stale, and either fails the run.  Counts —
//! not line numbers — keep the baseline stable under unrelated edits.
//!
//! The file is a deliberately tiny TOML subset (`[[entry]]` tables with
//! string/integer keys) parsed and written by hand: the build environment has
//! no registry access, and the analyzer must stay dependency-free.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One `[[entry]]` of the baseline file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// A rule ID (see [`crate::Rule`]).
    pub rule: String,
    /// Number of findings tolerated in this file for this rule.
    pub count: usize,
    /// Why these findings are acceptable for now.
    pub reason: String,
}

/// The parsed baseline: `(file, rule) → (count, reason)`.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: BTreeMap<(String, String), (usize, String)>,
}

impl Baseline {
    /// The tolerated count for a `(file, rule)` group; zero when unlisted.
    pub fn allowance(&self, file: &str, rule: &str) -> usize {
        self.entries.get(&(file.to_string(), rule.to_string())).map_or(0, |(count, _)| *count)
    }

    /// Iterates entries in deterministic (file, rule) order.
    pub fn entries(&self) -> impl Iterator<Item = BaselineEntry> + '_ {
        self.entries.iter().map(|((file, rule), (count, reason))| BaselineEntry {
            file: file.clone(),
            rule: rule.clone(),
            count: *count,
            reason: reason.clone(),
        })
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn insert(&mut self, entry: BaselineEntry) {
        self.entries.insert((entry.file, entry.rule), (entry.count, entry.reason));
    }

    /// Parses the baseline file format.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on any syntax error —
    /// a baseline that cannot be read must fail the gate, not pass it.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut baseline = Baseline::default();
        let mut current: Option<PartialEntry> = None;
        for (index, raw_line) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[entry]]" {
                if let Some(partial) = current.take() {
                    baseline.insert(partial.complete()?);
                }
                current = Some(PartialEntry::default());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {line_no}: expected `key = value`, got `{line}`"));
            };
            let Some(entry) = current.as_mut() else {
                return Err(format!(
                    "line {line_no}: `{}` appears before any [[entry]]",
                    key.trim()
                ));
            };
            let value = value.trim();
            match key.trim() {
                "file" => entry.file = Some(parse_string(value, line_no)?),
                "rule" => entry.rule = Some(parse_string(value, line_no)?),
                "reason" => entry.reason = Some(parse_string(value, line_no)?),
                "count" => {
                    entry.count = Some(value.parse().map_err(|_| {
                        format!("line {line_no}: `count` must be a non-negative integer")
                    })?);
                }
                other => return Err(format!("line {line_no}: unknown key `{other}`")),
            }
        }
        if let Some(partial) = current.take() {
            baseline.insert(partial.complete()?);
        }
        Ok(baseline)
    }

    /// Renders the baseline back to its file format, deterministically ordered.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# urs-analyze finding baseline — a ratchet, not an allowlist.\n\
             # Each [[entry]] tolerates `count` findings of `rule` in `file`; any NEW\n\
             # finding pushes the group over its budget and fails `cargo run -p urs-analyze`.\n\
             # Regenerate (preserving reasons) with: cargo run -p urs-analyze -- --write-baseline\n",
        );
        for entry in self.entries() {
            let _ = write!(
                out,
                "\n[[entry]]\nfile = \"{}\"\nrule = \"{}\"\ncount = {}\nreason = \"{}\"\n",
                escape(&entry.file),
                escape(&entry.rule),
                entry.count,
                escape(&entry.reason)
            );
        }
        out
    }
}

#[derive(Debug, Default)]
struct PartialEntry {
    file: Option<String>,
    rule: Option<String>,
    count: Option<usize>,
    reason: Option<String>,
}

impl PartialEntry {
    fn complete(self) -> Result<BaselineEntry, String> {
        Ok(BaselineEntry {
            file: self.file.ok_or("an [[entry]] is missing `file`")?,
            rule: self.rule.ok_or("an [[entry]] is missing `rule`")?,
            count: self.count.ok_or("an [[entry]] is missing `count`")?,
            reason: self.reason.unwrap_or_default(),
        })
    }
}

fn parse_string(value: &str, line_no: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {line_no}: expected a double-quoted string"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    return Err(format!("line {line_no}: unsupported escape `\\{other}`"))
                }
                None => return Err(format!("line {line_no}: dangling `\\`")),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut baseline = Baseline::default();
        baseline.insert(BaselineEntry {
            file: "crates/core/src/qbd.rs".into(),
            rule: "slice_index".into(),
            count: 12,
            reason: "dense kernel indexing with \"loop-invariant\" bounds".into(),
        });
        baseline.insert(BaselineEntry {
            file: "crates/core/src/cache.rs".into(),
            rule: "no_panic".into(),
            count: 1,
            reason: "poisoning recovery".into(),
        });
        let rendered = baseline.render();
        let reparsed = Baseline::parse(&rendered).unwrap();
        assert_eq!(reparsed.allowance("crates/core/src/qbd.rs", "slice_index"), 12);
        assert_eq!(reparsed.allowance("crates/core/src/cache.rs", "no_panic"), 1);
        assert_eq!(reparsed.allowance("crates/core/src/cache.rs", "slice_index"), 0);
        assert_eq!(reparsed.entries().count(), 2);
        // Deterministic order: cache.rs before qbd.rs.
        let files: Vec<String> = reparsed.entries().map(|e| e.file).collect();
        assert_eq!(files, vec!["crates/core/src/cache.rs", "crates/core/src/qbd.rs"]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n[[entry]]\nfile = \"a.rs\"\nrule = \"no_panic\"\ncount = 3\nreason = \"r\"\n";
        let baseline = Baseline::parse(text).unwrap();
        assert_eq!(baseline.allowance("a.rs", "no_panic"), 3);
    }

    #[test]
    fn syntax_errors_are_reported_with_lines() {
        assert!(Baseline::parse("file = \"orphan.rs\"\n").unwrap_err().contains("line 1"));
        assert!(Baseline::parse("[[entry]]\nfile = unquoted\n").unwrap_err().contains("line 2"));
        assert!(Baseline::parse("[[entry]]\nfile = \"a.rs\"\n").unwrap_err().contains("missing"));
        assert!(Baseline::parse("[[entry]]\nfile = \"a.rs\"\nrule = \"no_panic\"\ncount = -1\n")
            .unwrap_err()
            .contains("non-negative"));
    }
}
