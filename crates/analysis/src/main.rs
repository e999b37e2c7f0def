//! CLI for the workspace-invariant analyzer.
//!
//! ```text
//! aimts-lint check [--format human|json] [FILES...]
//! aimts-lint rules
//! ```
//!
//! `check` with no files lints the whole workspace (path-scoped rules);
//! with explicit files it applies the full rule pack to each. Exit codes:
//! 0 clean, 1 diagnostics found, 2 usage/IO error.

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: aimts-lint check [--format human|json] [FILES...]");
    eprintln!("       aimts-lint rules");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for r in aimts_lint::rules::CATALOG {
                println!("{}  {}", r.id, r.summary);
                println!("      fix: {}", r.hint);
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut format = "human".to_string();
            let mut files: Vec<PathBuf> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--format" => {
                        let Some(f) = args.get(i + 1) else {
                            return usage();
                        };
                        if f != "human" && f != "json" {
                            return usage();
                        }
                        format = f.clone();
                        i += 2;
                    }
                    other => {
                        files.push(PathBuf::from(other));
                        i += 1;
                    }
                }
            }
            let result = if files.is_empty() {
                let cwd = match std::env::current_dir() {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("aimts-lint: cannot determine cwd: {e}");
                        return ExitCode::from(2);
                    }
                };
                let Some(root) = aimts_lint::find_workspace_root(&cwd) else {
                    eprintln!("aimts-lint: no workspace root above {}", cwd.display());
                    return ExitCode::from(2);
                };
                aimts_lint::check_workspace(&root).map(|(d, n)| (d, Some(n)))
            } else {
                aimts_lint::check_paths(&files).map(|d| (d, None))
            };
            let (diags, inspected) = match result {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("aimts-lint: {e}");
                    return ExitCode::from(2);
                }
            };
            if format == "json" {
                println!("{}", aimts_lint::to_json(&diags));
            } else {
                for d in &diags {
                    println!("{d}");
                }
                match inspected {
                    Some(n) => eprintln!(
                        "aimts-lint: {} diagnostic(s) across {n} file(s)",
                        diags.len()
                    ),
                    None => eprintln!("aimts-lint: {} diagnostic(s)", diags.len()),
                }
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
