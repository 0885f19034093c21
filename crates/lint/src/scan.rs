//! Hand-rolled Rust source scanner: no `syn`, no registry deps.
//!
//! The scanner does one pass over a file and produces a **code view**
//! (the source with comment text and string/char-literal *contents*
//! blanked to spaces, line structure preserved) plus a per-line
//! **comment view** (the text of every comment touching that line).
//! Rules pattern-match the code view — so a `".mul_add("` inside a
//! string literal or a doc comment can never fire — and read the
//! comment view for `// SAFETY:` blocks and `// focus-lint:` waivers.
//!
//! Handled token forms: line comments (`//`, `///`, `//!`), nested
//! block comments (`/* /* */ */`), plain/byte/C strings (`"…"`, `b"…"`,
//! `c"…"`), raw strings with any hash depth (`r"…"`, `br##"…"##`),
//! char literals with escapes (`'\''`, `'"'`), and lifetimes/labels
//! (`'a`, `'static`) which are *not* literals.

/// One scanned source line.
#[derive(Debug)]
pub struct Line {
    /// Code view: comments and literal contents blanked to spaces.
    pub code: String,
    /// Concatenated text of every comment overlapping this line.
    pub comment: String,
    /// Inside a `#[cfg(test)]` item (module, fn, or statement span).
    pub in_test: bool,
}

/// A whole scanned file: lines plus a whitespace-stripped stream of
/// code characters used for patterns that may span line breaks
/// (`.lock()\n    .unwrap()`).
#[derive(Debug)]
pub struct Scanned {
    pub lines: Vec<Line>,
    /// Code characters with all whitespace removed.
    pub stream: Vec<char>,
    /// `stream[i]` came from line `stream_lines[i]` (1-based).
    pub stream_lines: Vec<u32>,
    /// `stream[i]` was preceded by whitespace (or file start) in the
    /// source — the boundary the stripping erased. Without this,
    /// `use core::arch` strips to `usecore::arch` and an
    /// identifier-boundary match for `core::arch` would wrongly fail.
    pub stream_boundary: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into a [`Scanned`]. Never fails: unterminated tokens
/// simply run to end-of-file, which is the useful behaviour for a
/// linter (the compiler owns syntax errors).
pub fn scan(src: &str) -> Scanned {
    let chars: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    // Comment text per line, collected as (line_index, text) runs.
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut line = 0usize;
    let mut state = State::Code;
    let mut i = 0usize;
    let push_comment =
        |line: usize, c: char, comments: &mut Vec<(usize, String)>| match comments.last_mut() {
            Some((l, text)) if *l == line => text.push(c),
            _ => comments.push((line, c.to_string())),
        };
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            line += 1;
        }
        match state {
            State::Code => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                // Raw / byte / C string prefixes: only at the *start*
                // of an identifier-like run (so `for "x"` or
                // `wrapping_mul` can't be misread as a prefix).
                let prev_ident = i > 0 && is_ident(chars[i - 1]);
                if !prev_ident && (c == 'r' || c == 'b' || c == 'c') {
                    let mut j = i + 1;
                    if (c == 'b' || c == 'c') && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let raw = j > i + 1 || hashes > 0 || c == 'r';
                    if chars.get(j) == Some(&'"') && (raw || c == 'b' || c == 'c') {
                        for &k in chars.iter().take(j + 1).skip(i) {
                            code.push(if k == '\n' { '\n' } else { k });
                        }
                        state = if raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    state = State::Str;
                    code.push('"');
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Char literal vs lifetime/label: `'x'` and `'\n'`
                    // are literals; `'a` followed by anything but a
                    // closing quote is a lifetime and stays code.
                    let is_literal = match next {
                        Some('\\') => true,
                        Some(n) if is_ident(n) => chars.get(i + 2) == Some(&'\''),
                        Some(_) => true,
                        None => false,
                    };
                    if is_literal {
                        state = State::Char;
                        code.push('\'');
                        i += 1;
                        continue;
                    }
                }
                code.push(c);
                i += 1;
            }
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    code.push('\n');
                } else {
                    push_comment(line, c, &mut comments);
                    code.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                } else {
                    if c == '\n' {
                        code.push('\n');
                    } else {
                        push_comment(line, c, &mut comments);
                        code.push(' ');
                    }
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && next.is_some() {
                    code.push_str("  ");
                    if next == Some('\n') {
                        // Line continuation inside a string.
                        code.pop();
                        code.pop();
                        code.push_str(" \n");
                        line += 1;
                    }
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    code.push('"');
                    i += 1;
                } else {
                    code.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        state = State::Code;
                        code.push('"');
                        for _ in 0..hashes {
                            code.push('#');
                        }
                        i = j;
                        continue;
                    }
                }
                code.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            State::Char => {
                if c == '\\' && next.is_some() {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    state = State::Code;
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }

    let mut lines: Vec<Line> = code
        .split('\n')
        .map(|l| Line {
            code: l.to_string(),
            comment: String::new(),
            in_test: false,
        })
        .collect();
    for (l, text) in comments {
        if let Some(slot) = lines.get_mut(l) {
            if !slot.comment.is_empty() {
                slot.comment.push(' ');
            }
            slot.comment.push_str(text.trim());
        }
    }
    mark_test_regions(&mut lines);

    let mut stream = Vec::new();
    let mut stream_lines = Vec::new();
    let mut stream_boundary = Vec::new();
    let mut after_ws = true;
    for (idx, l) in lines.iter().enumerate() {
        for ch in l.code.chars() {
            if ch.is_whitespace() {
                after_ws = true;
            } else {
                stream.push(ch);
                stream_lines.push(idx as u32 + 1);
                stream_boundary.push(after_ws);
                after_ws = false;
            }
        }
        after_ws = true;
    }
    Scanned {
        lines,
        stream,
        stream_lines,
        stream_boundary,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item. The item span
/// runs from the attribute to either the matching close brace of the
/// first block it opens, or the first top-level `;` (attribute on a
/// `use`/statement).
fn mark_test_regions(lines: &mut [Line]) {
    let starts: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.code.contains("#[cfg(test)]") || l.code.contains("#[cfg(all(test"))
        .map(|(i, _)| i)
        .collect();
    for start in starts {
        let mut depth = 0i32;
        let mut opened = false;
        let mut idx = start;
        'outer: while idx < lines.len() {
            // Skip past the attribute itself on the first line.
            let text = &lines[idx].code;
            let from = if idx == start {
                text.find("#[cfg(").map(|p| p + 1).unwrap_or(0)
            } else {
                0
            };
            for ch in text[from.min(text.len())..].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            break 'outer;
                        }
                    }
                    ';' if !opened => break 'outer,
                    _ => {}
                }
            }
            idx += 1;
        }
        let end = idx.min(lines.len().saturating_sub(1)) + 1;
        for l in lines.iter_mut().take(end).skip(start) {
            l.in_test = true;
        }
    }
}

/// True when `stream[at..]` starts `pat` on an identifier boundary:
/// the char before the match is not alphanumeric/`_` (unless the
/// pattern itself starts with a symbol like `.` or `#`).
pub fn stream_matches(s: &Scanned, at: usize, pat: &str) -> bool {
    let pc: Vec<char> = pat.chars().collect();
    if at + pc.len() > s.stream.len() {
        return false;
    }
    if s.stream[at..at + pc.len()] != pc[..] {
        return false;
    }
    let first = pc[0];
    if is_ident(first) && at > 0 && is_ident(s.stream[at - 1]) && !s.stream_boundary[at] {
        return false;
    }
    true
}

/// All 1-based line numbers where `pat` occurs in the file's
/// whitespace-stripped code stream (so split-across-lines method
/// chains still match). One hit per occurrence start.
pub fn find_in_stream(s: &Scanned, pat: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for at in 0..s.stream.len() {
        if stream_matches(s, at, pat) {
            out.push(s.stream_lines[at]);
        }
    }
    out
}

/// Like [`find_in_stream`] but for a whole identifier: the char after
/// the match must not continue it (`radius8` never matches
/// `radius8x`). Keyword boundaries destroyed by whitespace stripping
/// (`unsafe fn` → `unsafefn`) make this stream unusable for keyword
/// *pairs* — those are matched per line instead.
pub fn find_idents_in_stream(s: &Scanned, name: &str) -> Vec<u32> {
    let len = name.chars().count();
    let mut out = Vec::new();
    for at in 0..s.stream.len() {
        if stream_matches(s, at, name) && !s.stream.get(at + len).copied().is_some_and(is_ident) {
            out.push(s.stream_lines[at]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        scan(src).lines.iter().map(|l| l.code.clone()).collect()
    }

    #[test]
    fn line_comment_text_moves_to_comment_view() {
        let s = scan("let x = 1; // SAFETY: fine\n");
        assert_eq!(s.lines[0].code.trim_end(), "let x = 1;");
        assert_eq!(s.lines[0].comment, "SAFETY: fine");
    }

    #[test]
    fn block_comments_nest() {
        // The inner `*/` must not close the outer comment, so the
        // trailing `.exp()` is still comment text, not code.
        let src = "/* outer /* inner */ still comment .exp() */ let y = 2;\n";
        let code = code_of(src);
        assert!(!code[0].contains("exp"));
        assert!(code[0].contains("let y = 2;"));
        let s = scan(src);
        assert!(find_in_stream(&s, ".exp()").is_empty());
    }

    #[test]
    fn block_comment_spanning_lines_keeps_line_structure() {
        let src = "a/*\nmid\n*/b\n";
        let code = code_of(src);
        assert_eq!(code.len(), 4);
        assert_eq!(code[0], "a  ");
        assert_eq!(code[1].trim(), "");
        assert_eq!(code[2], "  b");
    }

    #[test]
    fn string_contents_are_blanked() {
        let s = scan("let p = \".lock().unwrap()\";\n");
        assert!(find_in_stream(&s, ".lock().unwrap()").is_empty());
        // The delimiters stay, so code structure survives.
        assert!(s.lines[0].code.contains('"'));
    }

    #[test]
    fn raw_string_containing_unsafe_is_not_code() {
        let s = scan("let p = r#\"unsafe { \"quoted\" }\"#;\nunsafe { hit() }\n");
        // Only the real unsafe block on line 2 survives in the code
        // view; the raw string's contents (including its inner quote)
        // are blanked.
        let hits: Vec<u32> = s
            .lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.code.contains("unsafe"))
            .map(|(i, _)| i as u32 + 1)
            .collect();
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn byte_and_c_strings_are_literals_but_identifier_tails_are_not() {
        let s = scan("let a = b\"unsafe\"; let rb = br#\"unsafe\"#;\n");
        assert!(!s.lines[0].code.contains("unsafe"));
        // `wrapping_mul(r)` must not misread `r` as a raw-string prefix.
        let s = scan("let v = x.wrapping_mul(r);\nlet w = \"end\";\n");
        assert!(s.lines[0].code.contains("wrapping_mul(r);"));
        assert!(!s.lines[1].code.contains("end"));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        // `'a'` is a literal (contents blanked); `'a` in a generic
        // list is a lifetime and stays code.
        let s = scan("let c = 'x'; fn f<'a>(v: &'a str) {}\n");
        let code = &s.lines[0].code;
        assert!(code.contains("' '"), "literal contents blanked: {code}");
        assert!(code.contains("<'a>"), "lifetime kept: {code}");
        assert!(code.contains("&'a str"), "lifetime kept: {code}");
        // Escaped quote in a char literal.
        let s = scan("let q = '\\''; let z = 1;\n");
        assert!(s.lines[0].code.contains("let z = 1;"));
    }

    #[test]
    fn stream_matches_across_line_breaks() {
        let s = scan("state\n    .lock()\n    .unwrap();\n");
        let hits = find_in_stream(&s, ".lock().unwrap()");
        // Reported at the line where the pattern starts.
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn stream_left_identifier_boundary() {
        let s = scan("let a = velocity_mm; let b = _mm256_x();\n");
        // `velocity_mm` must not match the `_mm` prefix pattern.
        assert_eq!(find_in_stream(&s, "_mm").len(), 1);
    }

    #[test]
    fn stripped_whitespace_still_counts_as_a_boundary() {
        // `use core` strips to `usecore`; the recorded boundary keeps
        // `core::arch` matchable at an identifier start.
        let s = scan("use core::arch::x86_64::*;\n");
        assert_eq!(find_in_stream(&s, "core::arch").len(), 1);
        // ...but a genuinely glued identifier still doesn't match.
        let s = scan("let encore::arch = x;\n");
        assert!(find_in_stream(&s, "core::arch").is_empty());
    }

    #[test]
    fn find_idents_requires_right_boundary() {
        let s = scan("radius8x(); radius8();\n");
        assert_eq!(find_idents_in_stream(&s, "radius8").len(), 1);
    }

    #[test]
    fn cfg_test_region_covers_module_body() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let s = scan(src);
        let flags: Vec<bool> = s.lines.iter().map(|l| l.in_test).collect();
        assert!(!flags[0], "code before the module is live");
        assert!(
            flags[1] && flags[2] && flags[3] && flags[4],
            "attr..close brace marked"
        );
        assert!(!flags[5], "code after the close brace is live");
    }

    #[test]
    fn cfg_test_on_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn live() {}\n";
        let s = scan(src);
        assert!(s.lines[0].in_test && s.lines[1].in_test);
        assert!(!s.lines[2].in_test);
    }
}
