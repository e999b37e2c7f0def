//! A minimal Rust lexer: just enough fidelity for line/col-accurate
//! token-pattern rules — comments, strings (including raw and byte
//! forms), char-vs-lifetime disambiguation, and numeric literals with
//! suffixes. The vendored dependencies are API shims, so a real parse
//! via `syn` is off the table; every rule in this crate works on the
//! token stream produced here.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including `_` and raw `r#ident`).
    Ident,
    /// Numeric literal, suffix included (`1_000u32`, `2.5f32`, `1e-3`).
    Num,
    /// String literal of any form (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte-character literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'_`).
    Lifetime,
    /// Punctuation, multi-character operators kept whole (`==`, `::`).
    Punct,
}

/// One code token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// One comment (text includes the `//` / `/*` markers).
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    /// True when a code token precedes the comment on the same line.
    pub trailing: bool,
    /// Index into the token stream of the first token *after* this
    /// comment (== `tokens.len()` when the comment is last).
    pub next_token_index: usize,
}

/// Result of lexing one file.
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

const PUNCTS3: &[&str] = &["..=", "<<=", ">>=", "..."];
const PUNCTS2: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=", "-=", "*=", "/=", "%=", "^=",
    "&=", "|=", "<<", ">>",
];

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            b: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.b.get(self.pos + ahead).unwrap_or(&0)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.b.len()
    }

    /// Advance one byte, tracking line/col (UTF-8 continuation bytes do
    /// not advance the column).
    fn step(&mut self) {
        let c = self.b[self.pos];
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if c & 0xC0 != 0x80 {
            self.col += 1;
        }
    }

    fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            if self.at_end() {
                break;
            }
            self.step();
        }
    }

    fn slice_from(&self, start: usize) -> String {
        String::from_utf8_lossy(&self.b[start..self.pos]).into_owned()
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Does a raw-string opener (`r"` / `r#…#"` / `br…`) start at the cursor?
/// Returns the number of `#`s if so.
fn raw_string_hashes(cur: &Cursor) -> Option<usize> {
    let mut off = 0;
    if cur.peek(0) == b'b' {
        off += 1;
    }
    if cur.peek(off) != b'r' {
        return None;
    }
    off += 1;
    let mut hashes = 0;
    while cur.peek(off + hashes) == b'#' {
        hashes += 1;
    }
    if cur.peek(off + hashes) == b'"' {
        Some(hashes)
    } else {
        None
    }
}

/// Lex `src` into code tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut tokens: Vec<Token> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut last_code_line: u32 = 0;
    // Comments seen before the next token; patched once it arrives.
    let mut open_comments: Vec<usize> = Vec::new();

    while !cur.at_end() {
        let c = cur.peek(0);
        if c.is_ascii_whitespace() {
            cur.step();
            continue;
        }
        let (line, col) = (cur.line, cur.col);
        let start = cur.pos;

        // Comments.
        if c == b'/' && cur.peek(1) == b'/' {
            while !cur.at_end() && cur.peek(0) != b'\n' {
                cur.step();
            }
            open_comments.push(comments.len());
            comments.push(Comment {
                text: cur.slice_from(start),
                line,
                trailing: line == last_code_line,
                next_token_index: usize::MAX,
            });
            continue;
        }
        if c == b'/' && cur.peek(1) == b'*' {
            cur.step_n(2);
            let mut depth = 1usize;
            while !cur.at_end() && depth > 0 {
                if cur.peek(0) == b'/' && cur.peek(1) == b'*' {
                    depth += 1;
                    cur.step_n(2);
                } else if cur.peek(0) == b'*' && cur.peek(1) == b'/' {
                    depth -= 1;
                    cur.step_n(2);
                } else {
                    cur.step();
                }
            }
            open_comments.push(comments.len());
            comments.push(Comment {
                text: cur.slice_from(start),
                line,
                trailing: line == last_code_line,
                next_token_index: usize::MAX,
            });
            continue;
        }

        let mut push = |kind: TokenKind, text: String, tokens: &mut Vec<Token>| {
            for k in open_comments.drain(..) {
                comments[k].next_token_index = tokens.len();
            }
            tokens.push(Token {
                kind,
                text,
                line,
                col,
            });
            last_code_line = line;
        };

        // Raw strings (r"…", r#"…"#, br"…").
        if (c == b'r' || c == b'b') && raw_string_hashes(&cur).is_some() {
            let hashes = raw_string_hashes(&cur).unwrap_or(0);
            // Consume prefix + hashes + opening quote.
            while cur.peek(0) != b'"' && !cur.at_end() {
                cur.step();
            }
            cur.step(); // opening "
            loop {
                if cur.at_end() {
                    break;
                }
                if cur.peek(0) == b'"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if cur.peek(1 + h) != b'#' {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.step_n(1 + hashes);
                        break;
                    }
                }
                cur.step();
            }
            push(TokenKind::Str, cur.slice_from(start), &mut tokens);
            continue;
        }

        // Byte string / byte char.
        if c == b'b' && (cur.peek(1) == b'"' || cur.peek(1) == b'\'') {
            let quote = cur.peek(1);
            cur.step_n(2);
            while !cur.at_end() && cur.peek(0) != quote {
                if cur.peek(0) == b'\\' {
                    cur.step();
                }
                cur.step();
            }
            cur.step();
            let kind = if quote == b'"' {
                TokenKind::Str
            } else {
                TokenKind::Char
            };
            push(kind, cur.slice_from(start), &mut tokens);
            continue;
        }

        // Identifier / keyword (incl. raw `r#ident`).
        if is_ident_start(c) {
            if c == b'r' && cur.peek(1) == b'#' && is_ident_start(cur.peek(2)) {
                cur.step_n(2);
            }
            while !cur.at_end() && is_ident_continue(cur.peek(0)) {
                cur.step();
            }
            push(TokenKind::Ident, cur.slice_from(start), &mut tokens);
            continue;
        }

        // Number.
        if c.is_ascii_digit() {
            cur.step();
            if c == b'0' && matches!(cur.peek(0), b'x' | b'o' | b'b') {
                cur.step();
                while !cur.at_end() && (cur.peek(0).is_ascii_alphanumeric() || cur.peek(0) == b'_')
                {
                    cur.step();
                }
            } else {
                while cur.peek(0).is_ascii_digit() || cur.peek(0) == b'_' {
                    cur.step();
                }
                // Fraction only when followed by a digit (`1.max(2)` and
                // `0..n` stay integers).
                if cur.peek(0) == b'.' && cur.peek(1).is_ascii_digit() {
                    cur.step();
                    while cur.peek(0).is_ascii_digit() || cur.peek(0) == b'_' {
                        cur.step();
                    }
                }
                // Exponent.
                if matches!(cur.peek(0), b'e' | b'E')
                    && (cur.peek(1).is_ascii_digit()
                        || (matches!(cur.peek(1), b'+' | b'-') && cur.peek(2).is_ascii_digit()))
                {
                    cur.step_n(2);
                    while cur.peek(0).is_ascii_digit() || cur.peek(0) == b'_' {
                        cur.step();
                    }
                }
                // Type suffix (f32, u64, usize, …).
                while is_ident_continue(cur.peek(0)) {
                    cur.step();
                }
            }
            push(TokenKind::Num, cur.slice_from(start), &mut tokens);
            continue;
        }

        // String.
        if c == b'"' {
            cur.step();
            while !cur.at_end() && cur.peek(0) != b'"' {
                if cur.peek(0) == b'\\' {
                    cur.step();
                }
                cur.step();
            }
            cur.step();
            push(TokenKind::Str, cur.slice_from(start), &mut tokens);
            continue;
        }

        // Char literal vs lifetime.
        if c == b'\'' {
            if cur.peek(1) == b'\\' {
                cur.step_n(2); // ' and backslash
                cur.step(); // escaped char
                while !cur.at_end() && cur.peek(0) != b'\'' {
                    cur.step(); // \u{…}
                }
                cur.step();
                push(TokenKind::Char, cur.slice_from(start), &mut tokens);
            } else if is_ident_start(cur.peek(1)) || cur.peek(1).is_ascii_digit() {
                // 'x' is a char only when a closing quote follows the
                // (possibly multi-byte) character; otherwise a lifetime.
                let mut w = 1;
                if cur.peek(1) >= 0x80 {
                    while cur.peek(1 + w) & 0xC0 == 0x80 {
                        w += 1;
                    }
                }
                if cur.peek(1 + w) == b'\'' {
                    cur.step_n(2 + w);
                    push(TokenKind::Char, cur.slice_from(start), &mut tokens);
                } else {
                    cur.step();
                    while is_ident_continue(cur.peek(0)) {
                        cur.step();
                    }
                    push(TokenKind::Lifetime, cur.slice_from(start), &mut tokens);
                }
            } else {
                cur.step();
                push(TokenKind::Punct, cur.slice_from(start), &mut tokens);
            }
            continue;
        }

        // Punctuation: longest known operator first.
        let rest = &cur.b[cur.pos..];
        let mut matched = 1usize;
        for p in PUNCTS3 {
            if rest.starts_with(p.as_bytes()) {
                matched = 3;
                break;
            }
        }
        if matched == 1 {
            for p in PUNCTS2 {
                if rest.starts_with(p.as_bytes()) {
                    matched = 2;
                    break;
                }
            }
        }
        cur.step_n(matched);
        push(TokenKind::Punct, cur.slice_from(start), &mut tokens);
    }

    Lexed { tokens, comments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_puncts() {
        assert_eq!(
            texts("let x == y != z::w;"),
            vec!["let", "x", "==", "y", "!=", "z", "::", "w", ";"]
        );
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("a // panic!()\n/* unwrap() */ b");
        assert_eq!(l.tokens.len(), 2);
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].trailing);
        assert!(!l.comments[1].trailing);
        assert_eq!(l.comments[1].next_token_index, 1);
    }

    #[test]
    fn strings_hide_contents() {
        let l = lex(r#"let s = "panic!() .unwrap()";"#);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn raw_strings() {
        let l = lex(r###"let s = r#"a "quoted" b"#; x"###);
        assert!(l.tokens.iter().any(|t| t.is_ident("x")));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            1
        );
    }

    #[test]
    fn char_vs_lifetime() {
        let l = lex("fn f<'a>(x: &'a u8) { let c = 'y'; let n = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn numbers_keep_suffixes_and_stop_before_dots() {
        // A fraction needs a digit after the `.` and an exponent a digit
        // after the `e`, so `1.max(2)` and `0..4` start with integers and
        // `3usize` stays one integer token.
        assert_eq!(
            texts("1.0 2 0x1F 1e-3 2f32 3usize 1.max(2) 0..4"),
            vec![
                "1.0", "2", "0x1F", "1e-3", "2f32", "3usize", "1", ".", "max", "(", "2", ")", "0",
                "..", "4"
            ]
        );
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* outer /* inner */ still comment */ b");
        assert_eq!(l.tokens.len(), 2, "only `a` and `b` are code");
        assert_eq!(l.comments.len(), 1, "nesting folds into one comment");
        assert!(l.comments[0].text.contains("inner"));
        assert!(l.comments[0].text.contains("still comment"));
    }

    #[test]
    fn block_comment_spans_lines() {
        let l = lex("a /* one\ntwo\nthree */ b");
        assert_eq!(l.comments[0].line, 1, "comment anchors at its opener");
        assert_eq!(l.comments[0].text.matches('\n').count(), 2);
        assert_eq!(l.tokens[1].line, 3, "`b` sits on the closing line");
    }

    #[test]
    fn macro_bodies_are_lexed_not_skipped() {
        // Rules scan macro bodies like any other code: a `panic!` or
        // `.unwrap()` inside `macro_rules!` is still a finding.
        let l = lex("macro_rules! m { ($x:expr) => { $x.unwrap() } } m!(q);");
        assert!(l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(l.tokens.iter().any(|t| t.is_ident("macro_rules")));
        assert!(l.tokens.iter().any(|t| t.is_ident("q")));
    }

    #[test]
    fn raw_identifiers_are_idents_not_raw_strings() {
        // `r#match` must not be mistaken for a raw-string opener `r#"`.
        let l = lex("let r#match = r#fn; tail");
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            0
        );
    }

    #[test]
    fn byte_and_raw_byte_strings_hide_contents() {
        let l = lex(r###"let a = b"panic!()"; let c = br#"x.unwrap()"#; tail"###);
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            2
        );
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn escaped_char_literals_do_not_open_strings() {
        let l = lex(r"let q = '\''; let s = '\\'; tail");
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn lifetimes_in_turbofish_and_loop_labels() {
        let l = lex("f::<'a, u8>(); 'outer: loop { break 'outer; }");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            3,
            "one turbofish lifetime plus the label at both sites"
        );
        assert!(!l.tokens.iter().any(|t| t.kind == TokenKind::Char));
    }
}
