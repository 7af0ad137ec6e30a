//! era-lint CLI: `check`, `fixtures`, `rules`.

use std::path::PathBuf;
use std::process::ExitCode;

use era_lint::{
    baseline, check_tree_with, render_table, run_fixtures, sarif, LintConfig, LintRecord, Rule,
    DEFAULT_BASELINE,
};
use era_obs::report::write_jsonl;

fn usage() -> ExitCode {
    eprintln!(
        "era-lint — workspace SMR-protocol static analyzer\n\
         \n\
         USAGE:\n\
         \x20 era-lint check [PATH] [--allow RULE]... [--deny RULE]... [--report FILE]\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 [--sarif-out FILE] [--baseline FILE] [--no-baseline] [--quiet]\n\
         \x20 era-lint fixtures [DIR]\n\
         \x20 era-lint rules\n\
         \n\
         RULE accepts R1..R9 or a rule id (see `era-lint rules`).\n\
         The baseline defaults to <PATH>/crates/lint/waivers.txt when present.\n\
         Exit codes: 0 clean, 1 findings/expectation failures, 2 usage or IO error."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("fixtures") => cmd_fixtures(&args[1..]),
        Some("rules") => {
            for r in Rule::ALL {
                println!("{:28} {}", r.id(), r.describe());
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn parse_rule_arg(flag: &str, value: Option<&String>) -> Result<Rule, ExitCode> {
    let Some(v) = value else {
        eprintln!("era-lint: {flag} needs a rule argument");
        return Err(ExitCode::from(2));
    };
    Rule::parse(v).ok_or_else(|| {
        eprintln!("era-lint: unknown rule {v:?} (see `era-lint rules`)");
        ExitCode::from(2)
    })
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut cfg = LintConfig::default();
    let mut report_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut quiet = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--allow" => match parse_rule_arg("--allow", args.get(i + 1)) {
                Ok(r) => {
                    cfg.allow.insert(r);
                    i += 1;
                }
                Err(e) => return e,
            },
            "--deny" => match parse_rule_arg("--deny", args.get(i + 1)) {
                Ok(r) => {
                    cfg.deny.insert(r);
                    i += 1;
                }
                Err(e) => return e,
            },
            "--report" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("era-lint: --report needs a path");
                    return ExitCode::from(2);
                };
                report_path = Some(PathBuf::from(p));
                i += 1;
            }
            "--sarif-out" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("era-lint: --sarif-out needs a path");
                    return ExitCode::from(2);
                };
                sarif_path = Some(PathBuf::from(p));
                i += 1;
            }
            "--baseline" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("era-lint: --baseline needs a path");
                    return ExitCode::from(2);
                };
                baseline_path = Some(PathBuf::from(p));
                i += 1;
            }
            "--no-baseline" => no_baseline = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with('-') => {
                eprintln!("era-lint: unknown flag {flag}");
                return ExitCode::from(2);
            }
            path => root = PathBuf::from(path),
        }
        i += 1;
    }
    // Resolve the baseline: explicit path > default location > none.
    // A malformed baseline is a hard error — a waiver file that cannot
    // be fully trusted suppresses nothing.
    let base = if no_baseline {
        None
    } else {
        let path = baseline_path
            .clone()
            .or_else(|| Some(root.join(DEFAULT_BASELINE)).filter(|p| p.is_file()));
        match path {
            Some(p) => match baseline::load(&p) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("era-lint: {e}");
                    return ExitCode::from(2);
                }
            },
            None => None,
        }
    };
    let report = match check_tree_with(&root, &cfg, base.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("era-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = report_path {
        if let Err(e) = write_jsonl(&path, report.records.iter().map(LintRecord::to_json)) {
            eprintln!("era-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = sarif_path {
        let doc = sarif::to_sarif(&report.records);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("era-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet {
        print!("{}", render_table(&report.records, report.files_scanned));
        for note in &report.baseline_notes {
            println!("era-lint: note: {note}");
        }
    }
    if report.denied() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_fixtures(args: &[String]) -> ExitCode {
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("crates/lint/fixtures"));
    let results = match run_fixtures(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("era-lint: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if results.is_empty() {
        eprintln!("era-lint: no fixtures found under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for r in &results {
        match &r.error {
            None => println!("ok   {}", r.name),
            Some(why) => {
                failed += 1;
                println!("FAIL {} — {}", r.name, why);
            }
        }
    }
    println!(
        "era-lint fixtures: {}/{} behaved as declared",
        results.len() - failed,
        results.len()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
