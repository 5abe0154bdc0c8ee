//! The interchange's documented error set: the validation table of
//! `docs/interchange.md`, read from between its `<!-- errors -->`
//! markers, the way `tests/interchange.rs` reads the field tables.
//!
//! Each row lists backticked path shapes and message shapes. In a
//! shape, `[i]` and `[j]` stand for an index, `N` for a number, `"x"`
//! (any one quoted letter, or `"…"`) for a quoted value and `…` for any
//! text; *(empty)* is the empty path.

use std::path::Path;

/// One piece of a shape.
#[derive(Debug, Clone, PartialEq)]
enum Piece {
    Text(String),
    Number,
    Quoted,
    Any,
}

/// One row of the table.
#[derive(Debug)]
pub struct Row {
    pub rule: String,
    paths: Vec<Vec<Piece>>,
    messages: Vec<Vec<Piece>>,
}

impl Row {
    fn admits(&self, path: &str, message: &str) -> bool {
        self.paths.iter().any(|p| fits(p, path)) && self.messages.iter().any(|m| fits(m, message))
    }
}

/// The table's rows.
pub fn rows() -> Vec<Row> {
    let doc =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/interchange.md"))
            .expect("docs/interchange.md is readable");
    let start = doc
        .find("<!-- errors -->")
        .expect("docs/interchange.md lost its <!-- errors --> marker");
    let rest = &doc[start..];
    let end = rest
        .find("<!-- /errors -->")
        .expect("docs/interchange.md lost its <!-- /errors --> marker");
    let rows: Vec<Row> = rest[..end]
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.trim().strip_prefix('|')?.split('|').collect();
            let [rule, path, message, ..] = cells[..] else {
                return None;
            };
            let paths = if path.contains("*(empty)*") {
                vec![Vec::new()]
            } else {
                backticked(path).map(shape).collect()
            };
            let messages: Vec<_> = backticked(message).map(shape).collect();
            // The header and separator rows hold no shapes.
            (!paths.is_empty() && !messages.is_empty()).then(|| Row {
                rule: rule.trim().to_string(),
                paths,
                messages,
            })
        })
        .collect();
    assert!(rows.len() >= 20, "the error table lost rows: {rows:?}");
    rows
}

/// Whether `path: message` matches a row of the table.
pub fn documented(rows: &[Row], path: &str, message: &str) -> bool {
    rows.iter().any(|r| r.admits(path, message))
}

/// For an error `cws_serve::parse_request` returns: whether it is a
/// workflow error (it names a `workflow` path) that matches a row.
/// Errors in the envelope or in the line's JSON are not the
/// interchange's and pass.
pub fn documented_on_the_wire(rows: &[Row], error: &str) -> bool {
    if !error.starts_with("workflow") {
        return true;
    }
    error
        .split_once(": ")
        .is_some_and(|(path, message)| documented(rows, path, message))
}

fn backticked(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

fn shape(text: &str) -> Vec<Piece> {
    let text = text.replace("[i]", "[N]").replace("[j]", "[N]");
    let chars: Vec<char> = text.chars().collect();
    let mut pieces = Vec::new();
    let mut literal = String::new();
    let mut k = 0;
    while k < chars.len() {
        let word = |at: usize| chars.get(at).is_some_and(|c| c.is_alphanumeric());
        let (piece, width) = match chars[k] {
            '…' => (Some(Piece::Any), 1),
            '"' if chars.get(k + 2) == Some(&'"')
                && chars
                    .get(k + 1)
                    .is_some_and(|&c| c == '…' || c.is_alphabetic()) =>
            {
                (Some(Piece::Quoted), 3)
            }
            'N' if !word(k.wrapping_sub(1)) && !word(k + 1) => (Some(Piece::Number), 1),
            c => {
                literal.push(c);
                (None, 1)
            }
        };
        if let Some(piece) = piece {
            if !literal.is_empty() {
                pieces.push(Piece::Text(std::mem::take(&mut literal)));
            }
            pieces.push(piece);
        }
        k += width;
    }
    if !literal.is_empty() {
        pieces.push(Piece::Text(literal));
    }
    pieces
}

/// Whether all of `s` fits `pieces`.
fn fits(pieces: &[Piece], s: &str) -> bool {
    let Some((first, rest)) = pieces.split_first() else {
        return s.is_empty();
    };
    match first {
        Piece::Text(t) => s.strip_prefix(t.as_str()).is_some_and(|s| fits(rest, s)),
        Piece::Number => {
            let digits = s.bytes().take_while(u8::is_ascii_digit).count();
            digits > 0 && fits(rest, &s[digits..])
        }
        Piece::Quoted => {
            s.starts_with('"')
                && s.char_indices()
                    .skip(1)
                    .any(|(k, c)| c == '"' && fits(rest, &s[k + 1..]))
        }
        Piece::Any => {
            rest.is_empty()
                || s.char_indices()
                    .map(|(k, _)| k)
                    .chain([s.len()])
                    .any(|k| fits(rest, &s[k..]))
        }
    }
}
