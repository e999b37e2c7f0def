//! The rule pack: the workspace invariants that need guard liveness, path
//! analysis or file-level scoping, which no clippy or rustc lint expresses.
//!
//! | id   | invariant                                                        |
//! |------|------------------------------------------------------------------|
//! | A000 | (meta) malformed or unused suppression pragmas                   |
//! | A002 | multi-guard lock acquisitions must be id-ordered                 |
//! | A008 | no guard held across channel `send`/`recv` or `catch_unwind`     |
//! | A009 | `catch_unwind` capturing `&mut` must re-assert state after       |
//! | A010 | request handles answered exactly once on every path              |
//! | A012 | no gradient-capable storage APIs on frozen inference paths       |
//!
//! A002/A009/A012 are token-pattern rules; A008/A010 are intraprocedural
//! dataflow in [`crate::flow`]. The invariants clippy, rustc or field
//! privacy already enforce (panic-freedom, wall clocks, float equality,
//! discards, safety comments, hot-buffer access, dropped errors) are not
//! restated here; DESIGN.md §9 maps each to its lint.
//!
//! Every rule can be suppressed per line with
//! `// aimts-lint: allow(RULE, reason)`; see [`crate::scan`].

use crate::lexer::{Token, TokenKind};
use crate::scan::SourceFile;

/// One catalog entry, used by `aimts-lint rules` and the docs.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
}

pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "A000",
        summary: "suppression pragmas must parse, carry a reason, and match a diagnostic",
        hint: "write `// aimts-lint: allow(RULE, reason)` on (or right above) the offending line",
    },
    RuleInfo {
        id: "A002",
        summary: "functions holding two or more tensor-internal lock guards must acquire them in id order",
        hint: "acquire via aimts_tensor::read_pair (id-ordered), drop() the earlier guard first, or allow with a reason",
    },
    RuleInfo {
        id: "A008",
        summary: "no lock/DataGuard guard held across a channel send/recv or catch_unwind boundary",
        hint: "drop or scope the guard before the blocking call, or allow with the reason the wait cannot deadlock",
    },
    RuleInfo {
        id: "A009",
        summary: "catch_unwind closures capturing `&mut` must re-assert state after the unwind",
        hint: "assert/debug_assert the mutated invariant (or abort/resume_unwind) after catch_unwind returns",
    },
    RuleInfo {
        id: "A010",
        summary: "every admitted request handle must be answered exactly once on all paths",
        hint: "send exactly one reply (`req.reply.send(..)`) or move the request onward; early returns must answer first",
    },
    RuleInfo {
        id: "A012",
        summary: "no gradient-capable storage APIs (Storage::Shared, .backward()) on frozen inference paths",
        hint: "inference clones are frozen Hot storage; keep training-only APIs out of serve and infer",
    },
];

pub fn is_known_rule(id: &str) -> bool {
    CATALOG.iter().any(|r| r.id == id)
}

pub(crate) fn hint_for(id: &str) -> &'static str {
    CATALOG.iter().find(|r| r.id == id).map_or("", |r| r.hint)
}

/// Which rules apply to a file (derived from its workspace-relative path).
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub a002: bool,
    pub a008: bool,
    pub a009: bool,
    pub a010: bool,
    pub a012: bool,
}

impl Scope {
    /// Every rule on — used for explicitly listed files and fixtures.
    pub fn all() -> Scope {
        Scope {
            a002: true,
            a008: true,
            a009: true,
            a010: true,
            a012: true,
        }
    }

    /// This scope with one rule switched off. The fixture self-check
    /// uses it to prove every rule is load-bearing: each fixture must
    /// fire with the rule on and go silent with only that rule off.
    pub fn without(mut self, rule: &str) -> Scope {
        match rule {
            "A002" => self.a002 = false,
            "A008" => self.a008 = false,
            "A009" => self.a009 = false,
            "A010" => self.a010 = false,
            "A012" => self.a012 = false,
            _ => {}
        }
        self
    }

    /// Scope for a workspace-relative path, or `None` when the file is
    /// outside the linted set (vendored shims, build output, test dirs —
    /// integration tests are test code by definition).
    pub fn for_rel_path(rel: &str) -> Option<Scope> {
        let parts: Vec<&str> = rel.split(['/', '\\']).collect();
        if parts.iter().any(|p| {
            matches!(
                *p,
                "vendor" | "target" | "tests" | "benches" | "examples" | "fixtures" | ".git"
            )
        }) {
            return None;
        }
        if !rel.ends_with(".rs") {
            return None;
        }
        let krate = match parts.first() {
            Some(&"crates") if parts.len() > 1 => parts[1],
            Some(&"src") => "aimts-repro",
            _ => return None,
        };
        Some(Scope {
            a002: true,
            a008: true,
            a009: true,
            a010: krate == "serve",
            a012: krate == "serve" || (krate == "core" && rel.ends_with("infer.rs")),
        })
    }
}

/// One finding, pointing at a file:line:col with a fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: String,
    pub message: String,
    pub hint: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {} (hint: {})",
            self.file, self.line, self.col, self.rule, self.message, self.hint
        )
    }
}

fn diag(sf: &SourceFile, tok: &Token, rule: &str, message: String) -> Diagnostic {
    Diagnostic {
        file: sf.name.clone(),
        line: tok.line,
        col: tok.col,
        rule: rule.to_string(),
        message,
        hint: hint_for(rule).to_string(),
    }
}

/// Run every in-scope rule on a file, apply suppressions, and report
/// pragma hygiene (A000). Diagnostics come back sorted by position.
pub fn check_file(sf: &SourceFile, scope: Scope) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    if scope.a002 {
        a002_lock_order(sf, &mut raw);
    }
    if scope.a008 {
        crate::flow::check_guard_boundaries(sf, &mut raw);
    }
    if scope.a009 {
        a009_unwind_mut(sf, &mut raw);
    }
    if scope.a010 {
        crate::flow::check_responder_protocol(sf, &mut raw);
    }
    if scope.a012 {
        a012_storage_misuse(sf, &mut raw);
    }

    let mut used = vec![false; sf.suppressions.len()];
    raw.retain(|d| {
        let hit = sf
            .suppressions
            .iter()
            .position(|s| s.target == d.line && s.rule == d.rule);
        match hit {
            Some(k) => {
                used[k] = true;
                false
            }
            None => true,
        }
    });

    for (line, msg) in &sf.pragma_errors {
        raw.push(Diagnostic {
            file: sf.name.clone(),
            line: *line,
            col: 1,
            rule: "A000".to_string(),
            message: msg.clone(),
            hint: hint_for("A000").to_string(),
        });
    }
    for (k, s) in sf.suppressions.iter().enumerate() {
        if !used[k] {
            raw.push(Diagnostic {
                file: sf.name.clone(),
                line: s.line,
                col: 1,
                rule: "A000".to_string(),
                message: format!(
                    "suppression of `{}` never matched a diagnostic; remove it",
                    s.rule
                ),
                hint: hint_for("A000").to_string(),
            });
        }
    }

    raw.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    raw
}

// ---------------------------------------------------------------------
// A002 — lock-order discipline
// ---------------------------------------------------------------------

/// Guard-acquiring methods with no arguments (`x.data()`, `l.read()`, …).
const ACQ_METHODS: &[&str] = &["data", "read", "write", "lock"];
/// Guard-acquiring helper functions (`read_lock(&x)`, …).
const ACQ_HELPERS: &[&str] = &["read_lock", "write_lock", "mutex_lock"];
/// Idioms that prove the function orders its acquisitions.
const ORDER_EVIDENCE: &[&str] = &[
    "read_pair",
    "write_pair",
    "acquire_ordered",
    "sort_by_key",
    "sort_unstable_by_key",
];

pub(crate) struct Acquisition {
    pub(crate) receiver: String,
    /// Index (within the statement slice) of the closing `)` of the call.
    pub(crate) end: usize,
    line: u32,
    col: u32,
}

/// Render the receiver chain ending just before the `.` at `dot`
/// (e.g. `node.op_parents()[0]` for `node.op_parents()[0].data()`).
fn receiver_before(stmt: &[Token], dot: usize) -> String {
    let mut k = dot as isize - 1;
    let start;
    loop {
        if k < 0 {
            start = 0;
            break;
        }
        let t = &stmt[k as usize];
        if t.is_punct(")") || t.is_punct("]") {
            // Walk back to the matching opener.
            let close = if t.is_punct(")") { ")" } else { "]" };
            let open = if t.is_punct(")") { "(" } else { "[" };
            let mut depth = 0usize;
            while k >= 0 {
                if stmt[k as usize].is_punct(close) {
                    depth += 1;
                } else if stmt[k as usize].is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            k -= 1;
            continue;
        }
        if t.kind == TokenKind::Ident || t.kind == TokenKind::Num {
            // Keep walking when joined by `.` or `::`.
            if k >= 1 && (stmt[k as usize - 1].is_punct(".") || stmt[k as usize - 1].is_punct("::"))
            {
                k -= 2;
                continue;
            }
            start = k as usize;
            break;
        }
        start = k as usize + 1;
        break;
    }
    stmt[start..dot]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join("")
}

/// All guard acquisitions inside one statement.
fn acquisitions(stmt: &[Token]) -> Vec<Acquisition> {
    acquisitions_with(stmt, ACQ_METHODS, ACQ_HELPERS)
}

/// Guard acquisitions matching a caller-supplied method/helper list
/// (A002 and A008 track different primitive sets).
pub(crate) fn acquisitions_with(
    stmt: &[Token],
    methods: &[&str],
    helpers: &[&str],
) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for j in 0..stmt.len() {
        if stmt[j].is_punct(".")
            && j + 3 < stmt.len()
            && stmt[j + 1].kind == TokenKind::Ident
            && methods.contains(&stmt[j + 1].text.as_str())
            && stmt[j + 2].is_punct("(")
            && stmt[j + 3].is_punct(")")
        {
            out.push(Acquisition {
                receiver: receiver_before(stmt, j),
                end: j + 3,
                line: stmt[j + 1].line,
                col: stmt[j + 1].col,
            });
        }
        if stmt[j].kind == TokenKind::Ident
            && helpers.contains(&stmt[j].text.as_str())
            && j + 1 < stmt.len()
            && stmt[j + 1].is_punct("(")
            // A helper is a free function; `.lock(` / `Mutex::lock(`
            // would otherwise double-match when a name is in both lists.
            && !(j > 0 && (stmt[j - 1].is_punct(".") || stmt[j - 1].is_punct("::")))
        {
            // Receiver is the argument list, leading `&` stripped.
            let mut depth = 0usize;
            let mut end = j + 1;
            for (k, t) in stmt.iter().enumerate().skip(j + 1) {
                if t.is_punct("(") {
                    depth += 1;
                } else if t.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
            }
            let receiver: String = stmt[j + 2..end]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join("")
                .trim_start_matches('&')
                .to_string();
            out.push(Acquisition {
                receiver,
                end,
                line: stmt[j].line,
                col: stmt[j].col,
            });
        }
    }
    out
}

struct LiveGuard {
    binding: String,
    receiver: String,
    depth: i32,
}

fn a002_lock_order(sf: &SourceFile, out: &mut Vec<Diagnostic>) {
    for f in &sf.fns {
        if sf.in_test(f.line) {
            continue;
        }
        let body = &sf.tokens[f.body.0..=f.body.1];
        // The ordered-acquisition primitives themselves, and functions
        // that demonstrably order their guards, are exempt.
        if matches!(
            f.name.as_str(),
            "read_pair" | "write_pair" | "acquire_ordered"
        ) || body
            .iter()
            .any(|t| t.kind == TokenKind::Ident && ORDER_EVIDENCE.contains(&t.text.as_str()))
        {
            continue;
        }

        let mut live: Vec<LiveGuard> = Vec::new();
        let mut depth = 0i32;
        let mut stmt_start = 0usize;
        let mut reported = false;
        for j in 0..body.len() {
            let t = &body[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                live.retain(|g| g.depth <= depth);
            }
            if !t.is_punct(";") && j + 1 != body.len() {
                continue;
            }
            let mut stmt = &body[stmt_start..=j];
            stmt_start = j + 1;
            // A statement slice can start at a block brace; trim so the
            // `let`-binding check below sees the statement's first token.
            while stmt
                .first()
                .is_some_and(|t| t.is_punct("{") || t.is_punct("}"))
            {
                stmt = &stmt[1..];
            }
            let acqs = acquisitions(stmt);
            if acqs.is_empty() {
                // `drop(name)` releases a tracked guard early.
                for k in 0..stmt.len().saturating_sub(3) {
                    if stmt[k].is_ident("drop")
                        && stmt[k + 1].is_punct("(")
                        && stmt[k + 2].kind == TokenKind::Ident
                        && stmt[k + 3].is_punct(")")
                    {
                        live.retain(|g| g.binding != stmt[k + 2].text);
                    }
                }
                continue;
            }
            // Distinct receivers that could be held at once in this
            // statement: everything still live plus this statement's own.
            let mut held: Vec<&str> = live.iter().map(|g| g.receiver.as_str()).collect();
            for a in &acqs {
                if !held.contains(&a.receiver.as_str()) {
                    held.push(&a.receiver);
                }
            }
            if held.len() >= 2 && !reported {
                let first = &acqs[0];
                out.push(Diagnostic {
                    file: sf.name.clone(),
                    line: first.line,
                    col: first.col,
                    rule: "A002".to_string(),
                    message: format!(
                        "`{}` holds lock guards on `{}` and `{}` with no id order",
                        f.name, held[0], held[1]
                    ),
                    hint: hint_for("A002").to_string(),
                });
                reported = true; // one report per function is enough
            }
            // A bare `let g = recv.data();` keeps its guard live.
            if stmt.first().is_some_and(|t| t.is_ident("let")) && acqs.len() == 1 {
                let a = &acqs[0];
                // The acquisition must be the whole initializer: its `)`
                // is the last token before the `;`.
                let last_code = stmt.len().saturating_sub(2);
                if a.end == last_code {
                    let mut name_idx = 1;
                    if stmt.get(1).is_some_and(|t| t.is_ident("mut")) {
                        name_idx = 2;
                    }
                    if let Some(name) = stmt.get(name_idx) {
                        if name.kind == TokenKind::Ident {
                            live.push(LiveGuard {
                                binding: name.text.clone(),
                                receiver: a.receiver.clone(),
                                depth,
                            });
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// A009 — post-unwind state re-assertion
// ---------------------------------------------------------------------

fn a009_unwind_mut(sf: &SourceFile, out: &mut Vec<Diagnostic>) {
    let t = &sf.tokens;
    for f in &sf.fns {
        if sf.in_test(f.line) {
            continue;
        }
        let (b0, b1) = f.body;
        let mut i = b0;
        while i <= b1 {
            if !(t[i].is_ident("catch_unwind") && t.get(i + 1).is_some_and(|x| x.is_punct("("))) {
                i += 1;
                continue;
            }
            let mut depth = 0i32;
            let mut close = i + 1;
            for (k, tok) in t.iter().enumerate().take(b1 + 1).skip(i + 1) {
                if tok.is_punct("(") {
                    depth += 1;
                } else if tok.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
            }
            let captures_mut = (i..close)
                .any(|k| t[k].is_punct("&") && t.get(k + 1).is_some_and(|x| x.is_ident("mut")));
            if captures_mut {
                // After the unwind is observed, the mutated state must be
                // re-asserted (or the process must not continue).
                let reasserts = (close..=b1).any(|k| {
                    t[k].kind == TokenKind::Ident
                        && (t[k].text.contains("assert")
                            || t[k].text.contains("poison")
                            || t[k].text == "abort"
                            || t[k].text == "resume_unwind")
                });
                if !reasserts {
                    out.push(diag(
                        sf,
                        &t[i],
                        "A009",
                        format!(
                            "`catch_unwind` in `{}` captures `&mut` state with no post-unwind re-assertion",
                            f.name
                        ),
                    ));
                }
            }
            i = close + 1;
        }
    }
}

// ---------------------------------------------------------------------
// A012 — frozen inference paths stay gradient-free
// ---------------------------------------------------------------------

fn a012_storage_misuse(sf: &SourceFile, out: &mut Vec<Diagnostic>) {
    let t = &sf.tokens;
    for i in 0..t.len() {
        if sf.in_test(t[i].line) {
            continue;
        }
        if t[i].is_ident("Storage")
            && i + 2 < t.len()
            && t[i + 1].is_punct("::")
            && t[i + 2].is_ident("Shared")
        {
            out.push(diag(
                sf,
                &t[i],
                "A012",
                "gradient-capable `Storage::Shared` on a frozen-inference path".to_string(),
            ));
        }
        if t[i].is_punct(".")
            && i + 2 < t.len()
            && t[i + 1].is_ident("backward")
            && t[i + 2].is_punct("(")
        {
            out.push(diag(
                sf,
                &t[i + 1],
                "A012",
                "`.backward()` on a frozen-inference path".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Diagnostic> {
        let sf = SourceFile::parse("t.rs", src);
        check_file(&sf, Scope::all())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn a002_flags_unordered_pairs() {
        let d = check("fn f(a: &T, b: &T) { let ga = a.data(); let gb = b.data(); }");
        assert_eq!(rules_of(&d), vec!["A002"]);
        // Two in one expression count too.
        let d = check("fn f(a: &T, b: &T) { mm(&a.data(), &b.data()); }");
        assert_eq!(rules_of(&d), vec!["A002"]);
    }

    #[test]
    fn a002_accepts_ordered_or_sequential() {
        // Evidence of ordering.
        assert!(check("fn f(a: &T, b: &T) { let (x, y) = read_pair(a, b); }").is_empty());
        // Sequential temporaries never overlap.
        assert!(check("fn f(a: &T, b: &T) { g(&a.data()); g(&b.data()); }").is_empty());
        // drop() releases the first guard.
        assert!(
            check("fn f(a: &T, b: &T) { let ga = a.data(); drop(ga); let gb = b.data(); }")
                .is_empty()
        );
        // A guard scoped to an inner block dies at the close brace.
        assert!(
            check("fn f(a: &T, b: &T) { { let ga = a.data(); } let gb = b.data(); }").is_empty()
        );
        // Same receiver twice is re-entrancy, not an ordering problem.
        assert!(check("fn f(a: &T) { let g1 = a.data(); let g2 = a.data(); }").is_empty());
    }

    #[test]
    fn suppression_silences_and_tracks_use() {
        let d =
            check("fn f(x: &T) { x.backward(); // aimts-lint: allow(A012, parity reference)\n}");
        assert!(d.is_empty(), "{d:?}");
        // Unused pragma is itself a diagnostic.
        let d = check("fn f() { // aimts-lint: allow(A012, nothing here)\nlet x = 1; }");
        assert_eq!(rules_of(&d), vec!["A000"]);
    }

    #[test]
    fn scope_gates_rules() {
        let sf = SourceFile::parse("t.rs", "fn f(x: &T) { x.backward(); }");
        let s = Scope {
            a012: false,
            ..Scope::all()
        };
        assert!(check_file(&sf, s).is_empty());
    }

    #[test]
    fn a009_unwind_mut_needs_reassertion() {
        let bad = "fn f(state: &mut Vec<u32>) { let r = catch_unwind(AssertUnwindSafe(|| mutate(&mut *state))); r.ok(); }";
        assert_eq!(rules_of(&check(bad)), vec!["A009"]);
        let good = "fn f(state: &mut Vec<u32>) { let r = catch_unwind(AssertUnwindSafe(|| mutate(&mut *state))); r.ok(); debug_assert!(state.len() < 4); }";
        assert!(check(good).is_empty());
        assert!(check("fn f() { catch_unwind(|| boom()).ok(); }").is_empty());
    }

    #[test]
    fn a012_flags_grad_apis() {
        let d = check("fn f(x: &T, v: V) { let s = Storage::Shared(v); x.backward(); }");
        assert_eq!(rules_of(&d), vec!["A012", "A012"]);
        assert!(check("fn f(x: &T) { let s = Storage::Hot(x.clone_frozen()); }").is_empty());
    }

    #[test]
    fn scope_paths() {
        assert!(
            Scope::for_rel_path("crates/tensor/src/tensor.rs").is_some_and(|s| s.a002
                && s.a008
                && s.a009
                && !s.a010
                && !s.a012)
        );
        assert!(Scope::for_rel_path("crates/bench/src/harness.rs").is_some_and(|s| s.a002));
        assert!(Scope::for_rel_path("crates/tensor/tests/lock_order.rs").is_none());
        assert!(Scope::for_rel_path("vendor/rand/src/lib.rs").is_none());
        assert!(Scope::for_rel_path("src/lib.rs").is_some());
        assert!(Scope::for_rel_path("crates/serve/src/batcher.rs")
            .is_some_and(|s| s.a008 && s.a010 && s.a012));
        assert!(Scope::for_rel_path("crates/core/src/infer.rs").is_some_and(|s| s.a012 && !s.a010));
        assert!(Scope::for_rel_path("crates/core/src/train.rs").is_some_and(|s| !s.a012));
    }
}
