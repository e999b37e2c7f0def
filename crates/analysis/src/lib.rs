//! `aimts-lint` — a self-contained static analyzer for the AimTS
//! workspace. No dependencies (the vendored crates are API shims), so it
//! carries its own minimal Rust lexer and walks the tree with `std::fs`.
//!
//! Entry points: [`check_workspace`] lints every in-scope `.rs` file under
//! the workspace root with path-derived rule scopes; [`check_paths`] lints
//! explicitly named files with the full rule pack (used for fixtures).

#![cfg_attr(
    not(test),
    warn(
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::let_underscore_must_use
    )
)]

pub mod ast;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod scan;

use rules::{Diagnostic, Scope};
use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &[
    "vendor", "target", "tests", "benches", "examples", "fixtures", ".git",
];

/// Locate the workspace root by walking up from `start` to the first
/// directory holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn lint_one(path: &Path, display: &str, scope: Scope) -> Result<Vec<Diagnostic>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{display}: cannot read: {e}"))?;
    let sf = SourceFile::parse(display, &src);
    Ok(rules::check_file(&sf, scope))
}

/// Lint the whole workspace rooted at `root`, one file after another (the
/// whole workspace takes tens of milliseconds in release, and a second
/// thread did not make it faster). Diagnostics come back globally sorted
/// by (file, line, col, rule), so the output is byte-stable.
pub fn check_workspace(root: &Path) -> Result<(Vec<Diagnostic>, usize), String> {
    let mut files = Vec::new();
    walk(root, &mut files);
    let scoped: Vec<(PathBuf, String, Scope)> = files
        .into_iter()
        .filter_map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            Scope::for_rel_path(&rel).map(|scope| (path.clone(), rel, scope))
        })
        .collect();
    let inspected = scoped.len();
    let mut diags = Vec::new();
    for (path, rel, scope) in &scoped {
        diags.extend(lint_one(path, rel, *scope)?);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    Ok((diags, inspected))
}

/// Lint explicitly listed files with every rule enabled.
pub fn check_paths(paths: &[PathBuf]) -> Result<Vec<Diagnostic>, String> {
    check_paths_scoped(paths, Scope::all())
}

/// Lint explicitly listed files under a caller-chosen [`Scope`]. The
/// fixture self-check uses this to prove each rule is load-bearing
/// (fires enabled, silent with only that rule disabled).
pub fn check_paths_scoped(paths: &[PathBuf], scope: Scope) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for path in paths {
        let display = path.to_string_lossy().replace('\\', "/");
        diags.extend(lint_one(path, &display, scope)?);
    }
    Ok(diags)
}

/// Render diagnostics as a JSON array (hand-rolled — no serde here).
pub fn to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\",\"hint\":\"{}\"}}",
                esc(&d.file),
                d.line,
                d.col,
                esc(&d.rule),
                esc(&d.message),
                esc(&d.hint)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic {
            file: "a.rs".to_string(),
            line: 3,
            col: 7,
            rule: "A012".to_string(),
            message: "`.backward()` on a \"frozen\" path".to_string(),
            hint: "h".to_string(),
        };
        let j = to_json(&[d]);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"frozen\\\""));
        assert!(j.contains("\"line\":3"));
    }

    #[test]
    fn json_empty_is_empty_array() {
        assert_eq!(to_json(&[]), "[]");
    }
}
