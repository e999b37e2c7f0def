//! A lightweight structural layer over the token stream: brace matching,
//! a statement/block tree, and `match`-arm splitting.
//!
//! This is deliberately not a full parser — the vendored dependencies are
//! API shims, so `syn` is unavailable — but it recovers exactly the
//! structure the dataflow rules (A008, A010) need: which braces open
//! blocks, where statements begin and end, and which tokens belong to
//! which `match` arm. Everything is expressed as index ranges into the
//! flat token stream so rules can mix structural and token-pattern
//! matching freely.

use crate::lexer::Token;

/// Index of the `}` matching the `{` at `open` (or the last token when
/// the file is truncated mid-block).
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
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
    tokens.len().saturating_sub(1)
}

/// Skip a generic parameter list starting at the `<` at `i`; returns the
/// index just past the matching `>`. `<<`/`>>` count double.
pub(crate) fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct("<<") {
            depth += 2;
        } else if t.is_punct(">") {
            depth -= 1;
        } else if t.is_punct(">>") {
            depth -= 2;
        }
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

// ---------------------------------------------------------------------
// Statement / block tree
// ---------------------------------------------------------------------

/// A braced block: token indices of both braces plus its statements.
#[derive(Debug)]
pub struct Block {
    pub open: usize,
    pub close: usize,
    pub stmts: Vec<Stmt>,
}

/// One statement: its inclusive token range and the depth-0 child blocks
/// inside it (an `if`'s arms, a `match`'s body, a `let`-initializer
/// block, a struct literal's braces, …) in source order.
#[derive(Debug)]
pub struct Stmt {
    pub first: usize,
    pub last: usize,
    pub blocks: Vec<Block>,
}

/// Parse the block whose `{` sits at `open` into a statement tree.
///
/// Statements end at a depth-0 `;`, or after a depth-0 child block that
/// is not continued by `else` / an operator / a `;` (i.e. control-flow
/// statements end at their closing brace). Parentheses and brackets
/// shield their contents, so closure bodies and array literals stay flat
/// inside their statement.
pub fn parse_block(tokens: &[Token], open: usize) -> Block {
    let close = match_brace(tokens, open);
    let mut stmts = Vec::new();
    let mut i = open + 1;
    while i < close {
        let first = i;
        let mut blocks = Vec::new();
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut j = i;
        let mut end = None;
        while j < close {
            let t = &tokens[j];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            } else if t.is_punct("[") {
                bracket += 1;
            } else if t.is_punct("]") {
                bracket -= 1;
            } else if paren <= 0 && bracket <= 0 {
                if t.is_punct(";") {
                    end = Some(j);
                    break;
                }
                if t.is_punct("{") {
                    let b = parse_block(tokens, j);
                    j = b.close;
                    blocks.push(b);
                    let continues = tokens.get(j + 1).is_some_and(|n| {
                        n.is_ident("else")
                            || n.is_punct(".")
                            || n.is_punct("?")
                            || n.is_punct(";")
                            || n.is_punct(",")
                    });
                    if !continues {
                        end = Some(j);
                        break;
                    }
                }
            }
            j += 1;
        }
        let last = end.unwrap_or_else(|| close.saturating_sub(1).max(first));
        stmts.push(Stmt {
            first,
            last,
            blocks,
        });
        i = last + 1;
    }
    Block { open, close, stmts }
}

// ---------------------------------------------------------------------
// match arms
// ---------------------------------------------------------------------

/// One `match` arm: pattern-and-guard tokens, body tokens, and whether
/// the body is a braced block.
#[derive(Debug)]
pub struct Arm {
    /// Inclusive range of the pattern (including any `if` guard).
    pub pat: (usize, usize),
    /// Inclusive range of the body (braces included for block bodies).
    pub body: (usize, usize),
    pub block_body: bool,
}

/// Split the body of a `match` (braces at `open`/`close`) into arms.
pub fn match_arms(tokens: &[Token], open: usize, close: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        let pat_start = i;
        // Find the `=>` at depth 0; struct patterns are skipped whole.
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut j = i;
        let mut arrow = None;
        while j < close {
            let t = &tokens[j];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            } else if t.is_punct("[") {
                bracket += 1;
            } else if t.is_punct("]") {
                bracket -= 1;
            } else if paren <= 0 && bracket <= 0 {
                if t.is_punct("{") {
                    j = match_brace(tokens, j);
                } else if t.is_punct("=>") {
                    arrow = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(arrow) = arrow else {
            break;
        };
        let body_start = arrow + 1;
        if tokens.get(body_start).is_some_and(|t| t.is_punct("{")) {
            let body_close = match_brace(tokens, body_start);
            arms.push(Arm {
                pat: (pat_start, arrow.saturating_sub(1)),
                body: (body_start, body_close),
                block_body: true,
            });
            i = body_close + 1;
            if i < close && tokens[i].is_punct(",") {
                i += 1;
            }
        } else {
            // Expression body: runs to the next depth-0 `,` (or the end
            // of the match body). Embedded blocks are skipped whole.
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut j = body_start;
            let mut body_end = close.saturating_sub(1);
            let mut comma = false;
            while j < close {
                let t = &tokens[j];
                if t.is_punct("(") {
                    paren += 1;
                } else if t.is_punct(")") {
                    paren -= 1;
                } else if t.is_punct("[") {
                    bracket += 1;
                } else if t.is_punct("]") {
                    bracket -= 1;
                } else if paren <= 0 && bracket <= 0 {
                    if t.is_punct("{") {
                        j = match_brace(tokens, j);
                    } else if t.is_punct(",") {
                        body_end = j.saturating_sub(1);
                        comma = true;
                        break;
                    }
                }
                j += 1;
            }
            arms.push(Arm {
                pat: (pat_start, arrow.saturating_sub(1)),
                body: (body_start, body_end),
                block_body: false,
            });
            i = body_end + if comma { 2 } else { 1 };
        }
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).tokens
    }

    fn texts(tokens: &[Token], range: (usize, usize)) -> String {
        tokens[range.0..=range.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    #[test]
    fn stmts_split_on_semicolons_and_blocks() {
        let t = toks("{ let a = 1; if c { x(); } else { y(); } let b = Foo { q: 2 }; }");
        let b = parse_block(&t, 0);
        assert_eq!(b.stmts.len(), 3);
        // The if/else statement owns two child blocks.
        assert_eq!(b.stmts[1].blocks.len(), 2);
        // The struct literal's braces are a child block of the let.
        assert_eq!(b.stmts[2].blocks.len(), 1);
        assert!(texts(&t, (b.stmts[2].first, b.stmts[2].last)).ends_with(';'));
    }

    #[test]
    fn closure_bodies_stay_flat() {
        let t = toks("{ v.iter().map(|x| { x + 1 }).sum::<u32>(); }");
        let b = parse_block(&t, 0);
        assert_eq!(b.stmts.len(), 1);
        // The braces sit inside parens, so they are not a child block.
        assert!(b.stmts[0].blocks.is_empty());
    }

    #[test]
    fn block_terminated_statement_ends_without_semicolon() {
        let t = toks("{ loop { step(); } cleanup(); }");
        let b = parse_block(&t, 0);
        assert_eq!(b.stmts.len(), 2);
        assert_eq!(b.stmts[0].blocks.len(), 1);
    }

    #[test]
    fn match_arms_split_expr_and_block_bodies() {
        let t = toks("match v { Some((_, m)) => m.push(r), None => { g.push(r); } }");
        let body_open = 2; // `{` after `match v`
        assert!(t[body_open].is_punct("{"));
        let arms = match_arms(&t, body_open, match_brace(&t, body_open));
        assert_eq!(arms.len(), 2);
        assert!(!arms[0].block_body);
        assert!(arms[1].block_body);
        assert!(texts(&t, arms[0].pat).starts_with("Some"));
        assert_eq!(texts(&t, arms[0].body), "m . push ( r )");
    }

    #[test]
    fn match_arm_guard_stays_in_pattern() {
        let t = toks("match v { Ok(_) if x > 0 => a(), Err(e) => b(e), }");
        let arms = match_arms(&t, 2, match_brace(&t, 2));
        assert_eq!(arms.len(), 2);
        assert!(texts(&t, arms[0].pat).contains("if x > 0"));
    }

    #[test]
    fn nested_match_inside_arm_block() {
        let t = toks("match a { X => { match b { Y => c(), _ => d(), } } _ => e(), }");
        let arms = match_arms(&t, 2, match_brace(&t, 2));
        assert_eq!(arms.len(), 2);
    }
}
