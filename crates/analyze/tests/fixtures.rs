//! Fixture-driven end-to-end tests: each rule family has a fixture file under
//! `fixtures/` with known findings at known lines; the analyzer must report
//! exactly those `(rule, line)` pairs — no more, no fewer.

use urs_analyze::{analyze_source, check, rebuild_baseline, Baseline, FileFinding, FileKind, Rule};

fn findings(fixture: &str) -> Vec<(Rule, u32)> {
    let path = format!("{}/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap();
    analyze_source(FileKind::Lib, &source).into_iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn no_panic_fixture() {
    // The unwrap inside #[cfg(test)], the doc-comment mention, the string
    // literal mention, and the waived unwrap must all stay silent.
    assert_eq!(
        findings("no_panic.rs"),
        vec![
            (Rule::NoPanic, 4),
            (Rule::NoPanic, 5),
            (Rule::NoPanic, 7),
            (Rule::NoPanic, 10),
            (Rule::SliceIndex, 12),
        ]
    );
}

#[test]
fn float_cmp_fixture() {
    // The chained `.unwrap()` legitimately fires both rules: one `total_cmp`
    // rewrite clears both findings.
    assert_eq!(
        findings("float_cmp.rs"),
        vec![
            (Rule::FloatCmp, 3),
            (Rule::FloatCmp, 4),
            (Rule::NoPanic, 5),
            (Rule::PartialCmpUnwrap, 5),
        ]
    );
}

#[test]
fn determinism_fixture() {
    assert_eq!(
        findings("determinism.rs"),
        vec![
            (Rule::HashCollection, 2),
            (Rule::HashCollection, 3),
            (Rule::WallClock, 4),
            (Rule::HashCollection, 7),
            (Rule::HashCollection, 7),
            (Rule::WallClock, 8),
            (Rule::WallClock, 9),
            (Rule::HashCollection, 10),
            (Rule::HashCollection, 10),
        ]
    );
}

#[test]
fn no_alloc_fixture() {
    // Allocations outside the fence stay silent; the reasonless waiver is
    // itself a finding and waives nothing.
    assert_eq!(
        findings("no_alloc.rs"),
        vec![
            (Rule::NoAlloc, 6),
            (Rule::NoAlloc, 7),
            (Rule::NoAlloc, 8),
            (Rule::BadDirective, 16),
            (Rule::NoPanic, 18),
        ]
    );
}

#[test]
fn bin_files_skip_the_panic_family_only() {
    let path = format!("{}/fixtures/no_panic.rs", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap();
    let bin: Vec<(Rule, u32)> =
        analyze_source(FileKind::Bin, &source).into_iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(bin, vec![]);
}

#[test]
fn stale_baseline_entries_fail_the_gate() {
    let path = format!("{}/fixtures/no_panic.rs", env!("CARGO_MANIFEST_DIR"));
    let findings: Vec<FileFinding> =
        analyze_source(FileKind::Lib, &std::fs::read_to_string(&path).unwrap())
            .into_iter()
            .map(|finding| FileFinding { file: "no_panic.rs".into(), finding })
            .collect();
    // The fixture has four `no_panic` findings and one `slice_index` finding; the
    // `slice_index` budget of 2 is what a fix that forgot the baseline leaves.
    let entry = |rule: &str, count: usize| {
        format!(
            "[[entry]]\nfile = \"no_panic.rs\"\nrule = \"{rule}\"\n\
                 count = {count}\nreason = \"r\"\n"
        )
    };
    let stale = Baseline::parse(&(entry("no_panic", 4) + &entry("slice_index", 2))).unwrap();
    let report = check(&findings, &stale);
    assert!(report.over_budget.is_empty());
    assert_eq!(report.stale, vec![("no_panic.rs".into(), "slice_index".into(), 2, 1)]);
    assert!(!report.passed(), "a budget above the current count must fail the gate");
    let lowered = rebuild_baseline(&findings, &stale);
    assert_eq!(lowered.allowance("no_panic.rs", "slice_index"), 1);
    assert!(check(&findings, &lowered).passed());
}
