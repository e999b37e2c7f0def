//! Per-file source model built on the lexer: suppression pragmas,
//! `#[cfg(test)]`/`#[test]` region detection, and function extents.
//!
//! Suppression pragma grammar (one per comment):
//!
//! ```text
//! // aimts-lint: allow(A002, reason the invariant holds here)
//! ```
//!
//! A trailing pragma suppresses diagnostics on its own line; a pragma on
//! a line of its own suppresses the next code line. The reason is
//! mandatory — a reasonless pragma is itself a diagnostic (A000), and so
//! is a pragma that never matches anything.

use crate::lexer::{lex, Token, TokenKind};

/// A parsed `aimts-lint: allow(...)` pragma.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub rule: String,
    pub reason: String,
    /// Line the pragma comment sits on.
    pub line: u32,
    /// Line whose diagnostics it suppresses (0 = nothing follows).
    pub target: u32,
}

/// A function item with a body.
#[derive(Debug, Clone)]
pub struct FnExtent {
    pub name: String,
    pub line: u32,
    /// Token index of the `fn` keyword (the signature starts here).
    pub sig: usize,
    /// Token-index range of the body, inclusive of both braces.
    pub body: (usize, usize),
}

/// Everything the rules need to know about one file.
pub struct SourceFile {
    /// Display path used in diagnostics.
    pub name: String,
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    /// Malformed pragmas: (line, problem).
    pub pragma_errors: Vec<(u32, String)>,
    /// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(u32, u32)>,
    pub fns: Vec<FnExtent>,
}

impl SourceFile {
    pub fn parse(name: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mut suppressions = Vec::new();
        let mut pragma_errors = Vec::new();
        for c in &lexed.comments {
            // Pragmas live in plain comments only; doc comments merely
            // *document* the syntax and must not parse as pragmas.
            if ["///", "//!", "/**", "/*!"]
                .iter()
                .any(|p| c.text.starts_with(p))
            {
                continue;
            }
            // The tool name immediately followed by a colon is the pragma
            // trigger; bare prose mentions of `aimts-lint` are ignored.
            let Some(at) = c.text.find(concat!("aimts-lint", ":")) else {
                continue;
            };
            let target = if c.trailing {
                c.line
            } else {
                lexed.tokens.get(c.next_token_index).map_or(0, |t| t.line)
            };
            match parse_pragma(&c.text[at..]) {
                Ok((rule, reason)) => suppressions.push(Suppression {
                    rule,
                    reason,
                    line: c.line,
                    target,
                }),
                Err(msg) => pragma_errors.push((c.line, msg)),
            }
        }
        let test_spans = find_test_spans(&lexed.tokens);
        let fns = find_fns(&lexed.tokens);
        SourceFile {
            name: name.to_string(),
            tokens: lexed.tokens,
            suppressions,
            pragma_errors,
            test_spans,
            fns,
        }
    }

    /// Whether `line` falls inside test-only code.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Parse `aimts-lint: allow(RULE, reason)` starting at `aimts-lint`.
fn parse_pragma(text: &str) -> Result<(String, String), String> {
    let Some(open) = text.find("allow(") else {
        return Err("expected `allow(RULE, reason)` after `aimts-lint:`".to_string());
    };
    let Some(close) = text.rfind(')') else {
        return Err("unclosed `allow(` pragma".to_string());
    };
    if close <= open + 6 {
        return Err("empty `allow()` pragma".to_string());
    }
    let inner = &text[open + 6..close];
    let Some((rule, reason)) = inner.split_once(',') else {
        return Err(format!(
            "suppression of `{}` carries no reason; write `allow({}, why the invariant holds)`",
            inner.trim(),
            inner.trim()
        ));
    };
    let rule = rule.trim().to_string();
    let reason = reason.trim().to_string();
    if !crate::rules::is_known_rule(&rule) {
        return Err(format!("unknown rule `{rule}` in suppression"));
    }
    if reason.is_empty() {
        return Err(format!("suppression of `{rule}` carries an empty reason"));
    }
    Ok((rule, reason))
}

/// Is the attribute body (tokens strictly between `[` and `]`) a marker
/// for test-only code? Recognizes `#[test]`, `#[proptest]`, and
/// `#[cfg(...)]` forms that mention `test` un-negated.
fn attr_is_test(body: &[Token]) -> bool {
    let Some(first) = body.first() else {
        return false;
    };
    if first.is_ident("test") || first.is_ident("proptest") {
        return true;
    }
    if first.is_ident("cfg") {
        let mentions_test = body.iter().any(|t| t.is_ident("test"));
        let negated = body.iter().any(|t| t.is_ident("not"));
        return mentions_test && !negated;
    }
    false
}

/// Token index just past the end of the attribute whose `[` is at `open`.
fn attr_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct("[") {
            depth += 1;
        } else if tokens[i].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len() - 1
}

/// Token index of the last token of the item starting at `i` (either the
/// terminating `;` or the matching close brace of its body).
fn item_end(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if t.is_punct(";") && paren == 0 && bracket == 0 {
            return j;
        } else if t.is_punct("{") && paren == 0 && bracket == 0 {
            return match_brace(tokens, j);
        }
        j += 1;
    }
    tokens.len() - 1
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct("{") {
            depth += 1;
        } else if tokens[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len() - 1
}

fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut pending = false;
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            let end = attr_end(tokens, i + 1);
            if attr_is_test(&tokens[i + 2..end]) {
                pending = true;
            }
            i = end + 1;
            continue;
        }
        if pending {
            let end = item_end(tokens, i);
            spans.push((tokens[i].line, tokens[end].line));
            pending = false;
            i = end + 1;
            continue;
        }
        i += 1;
    }
    spans
}

fn find_fns(tokens: &[Token]) -> Vec<FnExtent> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") || i + 1 >= tokens.len() {
            continue;
        }
        if tokens[i + 1].kind != TokenKind::Ident {
            continue; // `fn(usize) -> T` function-pointer type
        }
        // Find the body `{` (or `;` for a bodyless trait method).
        let mut j = i + 2;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let body = loop {
            if j >= tokens.len() {
                break None;
            }
            let t = &tokens[j];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            } else if t.is_punct("[") {
                bracket += 1;
            } else if t.is_punct("]") {
                bracket -= 1;
            } else if paren == 0 && bracket == 0 {
                if t.is_punct(";") {
                    break None;
                }
                if t.is_punct("{") {
                    break Some((j, match_brace(tokens, j)));
                }
            }
            j += 1;
        };
        if let Some(body) = body {
            fns.push(FnExtent {
                name: tokens[i + 1].text.clone(),
                line: tokens[i].line,
                sig: i,
                body,
            });
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_trailing_and_own_line() {
        let src = "fn f() {\n\
                   let x = 1; // aimts-lint: allow(A008, checked above)\n\
                   // aimts-lint: allow(A002, invariant: y is finite)\n\
                   let y = 2;\n\
                   }";
        let sf = SourceFile::parse("x.rs", src);
        assert_eq!(sf.suppressions.len(), 2);
        assert_eq!(sf.suppressions[0].rule, "A008");
        assert_eq!(sf.suppressions[0].target, 2);
        assert_eq!(sf.suppressions[1].rule, "A002");
        assert_eq!(sf.suppressions[1].target, 4);
        assert!(sf.pragma_errors.is_empty());
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let sf = SourceFile::parse("x.rs", "// aimts-lint: allow(A002)\nfn f() {}");
        assert!(sf.suppressions.is_empty());
        assert_eq!(sf.pragma_errors.len(), 1);
        assert!(sf.pragma_errors[0].1.contains("reason"));
    }

    #[test]
    fn doc_comments_are_not_pragmas() {
        let src = "/// Write `// aimts-lint: allow(A002, why)` above the line.\n\
                   //! Same for `aimts-lint: allow(RULE)` examples.\n\
                   fn f() {}";
        let sf = SourceFile::parse("x.rs", src);
        assert!(sf.suppressions.is_empty());
        assert!(sf.pragma_errors.is_empty());
    }

    #[test]
    fn prose_mention_without_colon_is_not_a_pragma() {
        let src = "// The debug checker mirrors aimts-lint rule A002 at run time.\nfn f() {}";
        let sf = SourceFile::parse("x.rs", src);
        assert!(sf.suppressions.is_empty());
        assert!(sf.pragma_errors.is_empty());
    }

    #[test]
    fn pragma_unknown_rule_is_an_error() {
        let sf = SourceFile::parse("x.rs", "// aimts-lint: allow(Z999, whatever)\n");
        assert_eq!(sf.pragma_errors.len(), 1);
        assert!(sf.pragma_errors[0].1.contains("unknown rule"));
    }

    #[test]
    fn cfg_test_mod_is_a_test_span() {
        let src = "pub fn lib_code() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn helper() { x.unwrap(); }\n\
                   }\n\
                   pub fn more_lib() {}";
        let sf = SourceFile::parse("x.rs", src);
        assert!(!sf.in_test(1));
        assert!(sf.in_test(3));
        assert!(sf.in_test(4));
        assert!(!sf.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let sf = SourceFile::parse("x.rs", "#[cfg(not(test))]\nfn shipped() {}\n");
        assert!(!sf.in_test(2));
    }

    #[test]
    fn test_attr_fn_is_a_test_span() {
        let src = "fn lib() {}\n#[test]\nfn check() {\n  boom();\n}\n";
        let sf = SourceFile::parse("x.rs", src);
        assert!(!sf.in_test(1));
        assert!(sf.in_test(4));
    }

    #[test]
    fn fn_extents_found() {
        let src = "impl T {\n  fn a(&self) -> u8 { 1 }\n}\nfn b(x: [u8; 3]) { () }\ntrait Q { fn sig(&self); }";
        let sf = SourceFile::parse("x.rs", src);
        let names: Vec<_> = sf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
