//! The `urs-analyze` gate: walks the workspace `src/` trees, applies the
//! domain lints, reconciles against `analyze-baseline.toml` and exits non-zero
//! on any non-baselined finding.
//!
//! ```text
//! cargo run -p urs-analyze                      # check (CI mode)
//! cargo run -p urs-analyze -- --write-baseline  # ratchet the baseline down / absorb reviewed findings
//! cargo run -p urs-analyze -- --root DIR --baseline FILE
//! ```
//!
//! Exit codes: 0 = clean (every baseline budget matches its current count),
//! 1 = findings over budget or stale baseline entries, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use urs_analyze::{analyze_workspace, check, find_workspace_root, rebuild_baseline, Baseline};

struct Options {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options { root: None, baseline: None, write_baseline: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                options.root =
                    Some(args.next().ok_or("--root requires a directory argument")?.into());
            }
            "--baseline" => {
                options.baseline =
                    Some(args.next().ok_or("--baseline requires a file argument")?.into());
            }
            "--write-baseline" => options.write_baseline = true,
            "--help" | "-h" => {
                return Err("usage: urs-analyze [--root DIR] [--baseline FILE] [--write-baseline]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let root = match options
        .root
        .or_else(|| std::env::current_dir().ok().and_then(|cwd| find_workspace_root(&cwd)))
    {
        Some(root) => root,
        None => {
            eprintln!("urs-analyze: could not locate a workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };
    let baseline_path = options.baseline.unwrap_or_else(|| root.join("analyze-baseline.toml"));

    let findings = match analyze_workspace(&root) {
        Ok(findings) => findings,
        Err(error) => {
            eprintln!("urs-analyze: {error}");
            return ExitCode::from(2);
        }
    };

    let previous = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(baseline) => baseline,
            Err(message) => {
                eprintln!("urs-analyze: {}: {message}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(error) => {
            eprintln!("urs-analyze: {}: {error}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    if options.write_baseline {
        let fresh = rebuild_baseline(&findings, &previous);
        if let Err(error) = std::fs::write(&baseline_path, fresh.render()) {
            eprintln!("urs-analyze: writing {}: {error}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "urs-analyze: wrote {} ({} entries, {} findings)",
            baseline_path.display(),
            fresh.entries().count(),
            findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let report = check(&findings, &previous);
    for (file, rule, allowance, group) in &report.over_budget {
        eprintln!(
            "error: {} finding(s) of [{}] in {} exceed the baseline budget of {}:",
            group.len(),
            rule.id(),
            file,
            allowance
        );
        for finding in group {
            eprintln!("  {}", finding.display());
        }
    }
    for (file, rule) in &report.unknown_rules {
        eprintln!("error: baseline names unknown rule `{rule}` for {file}");
    }
    for (file, rule, budget, current) in &report.stale {
        eprintln!(
            "error: stale baseline entry {file} [{rule}]: budget {budget}, current {current} — \
             run with --write-baseline to ratchet down"
        );
    }
    if report.passed() {
        println!(
            "urs-analyze: clean — {} finding(s), all within the baseline ({} entries)",
            report.total_findings,
            previous.entries().count()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "urs-analyze: FAILED — fix the findings, waive them with \
             `// urs-analyze: allow(<rule>, reason = \"...\")`, or (for reviewed \
             pre-existing debt) refresh analyze-baseline.toml with --write-baseline"
        );
        ExitCode::from(1)
    }
}
