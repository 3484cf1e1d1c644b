//! A small text format for structures, inverse to the `Display`
//! implementation on [`Structure`].
//!
//! ```text
//! structure {
//!   universe 4
//!   E = { (0,1), (1,2), (2,3), (3,3) }
//!   P/1 = { }
//! }
//! ```
//!
//! The signature is inferred from the relation clauses in order of
//! appearance; arities come from the first tuple, or from an explicit
//! `/arity` suffix (required for empty relations).

use crate::structure::{Signature, Structure};
use std::fmt;

/// Error from [`parse_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description with offset context.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "structure parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let mut message = message.into();
        let rest: String = self.text[self.pos..].chars().take(20).collect();
        message.push_str(&format!(" (at offset {}, near {rest:?})", self.pos));
        ParseError { message }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                b'#' => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.text[self.pos..].chars().next()
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.text[self.pos..].starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {token:?}")))
        }
    }

    fn try_eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> Result<u32, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a number"));
        }
        self.text[start..self.pos]
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphanumeric()
                || bytes[self.pos] == b'_'
                || bytes[self.pos] == b'@')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected an identifier"));
        }
        Ok(self.text[start..self.pos].to_string())
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.text.len()
    }
}

/// Parses a structure from the text format, inferring the signature.
pub fn parse_structure(text: &str) -> Result<Structure, ParseError> {
    let mut c = Cursor::new(text);
    let s = parse_one(&mut c)?;
    if !c.at_end() {
        return Err(c.error("trailing input after structure"));
    }
    Ok(s)
}

/// Parses one or more consecutive `structure { … }` blocks — the batch
/// input format of `epq count --batch` (one count per block, order
/// preserved). At least one block is required.
pub fn parse_structures(text: &str) -> Result<Vec<Structure>, ParseError> {
    let mut c = Cursor::new(text);
    let mut out = vec![parse_one(&mut c)?];
    while !c.at_end() {
        out.push(parse_one(&mut c)?);
    }
    Ok(out)
}

fn parse_one(c: &mut Cursor) -> Result<Structure, ParseError> {
    c.eat("structure")?;
    c.eat("{")?;
    c.eat("universe")?;
    let universe = c.number()? as usize;

    // First pass: gather relation clauses.
    struct Clause {
        name: String,
        declared_arity: Option<usize>,
        tuples: Vec<Vec<u32>>,
    }
    let mut clauses: Vec<Clause> = Vec::new();
    loop {
        if c.try_eat("}") {
            break;
        }
        let name = c.identifier()?;
        let declared_arity = if c.try_eat("/") {
            Some(c.number()? as usize)
        } else {
            None
        };
        c.eat("=")?;
        c.eat("{")?;
        let mut tuples = Vec::new();
        loop {
            if c.try_eat("}") {
                break;
            }
            c.eat("(")?;
            let mut tuple = vec![c.number()?];
            while c.try_eat(",") {
                tuple.push(c.number()?);
            }
            c.eat(")")?;
            tuples.push(tuple);
            if c.peek() == Some(',') {
                c.eat(",")?;
            }
        }
        clauses.push(Clause {
            name,
            declared_arity,
            tuples,
        });
    }

    // Build the signature.
    let mut sig = Signature::new();
    for clause in &clauses {
        let arity = match (clause.declared_arity, clause.tuples.first()) {
            (Some(a), _) => a,
            (None, Some(t)) => t.len(),
            (None, None) => {
                return Err(ParseError {
                    message: format!(
                        "relation {} is empty; declare its arity as {}/k",
                        clause.name, clause.name
                    ),
                })
            }
        };
        if arity == 0 {
            return Err(ParseError {
                message: format!("relation {} has arity 0; arities start at 1", clause.name),
            });
        }
        if sig.lookup(&clause.name).is_some() {
            return Err(ParseError {
                message: format!("relation {} is declared twice", clause.name),
            });
        }
        sig.add_symbol(clause.name.clone(), arity);
    }
    let mut s = Structure::new(sig, universe);
    for clause in &clauses {
        let rel = s.signature().lookup(&clause.name).expect("just added");
        let arity = s.signature().arity(rel);
        for tuple in &clause.tuples {
            if tuple.len() != arity {
                return Err(ParseError {
                    message: format!(
                        "relation {} has mixed arities ({} vs {})",
                        clause.name,
                        arity,
                        tuple.len()
                    ),
                });
            }
            for &e in tuple {
                if e as usize >= universe {
                    return Err(ParseError {
                        message: format!("element {e} outside universe of size {universe}"),
                    });
                }
            }
            s.add_tuple(rel, tuple);
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_example_4_3_structure() {
        // The paper's Example 4.3 structure C (0-based here).
        let c = parse_structure(
            "structure {
               universe 4
               E = { (0,1), (1,2), (2,3), (3,3) }
             }",
        )
        .unwrap();
        assert_eq!(c.universe_size(), 4);
        assert_eq!(c.tuple_count(), 4);
        let e = c.signature().lookup("E").unwrap();
        assert!(c.has_tuple(e, &[3, 3]));
    }

    #[test]
    fn display_parse_roundtrip() {
        let s =
            parse_structure("structure { universe 3 E = { (0,1), (1,2) } P/1 = { (2) } }").unwrap();
        let reparsed = parse_structure(&s.to_string()).unwrap();
        assert_eq!(s, reparsed);
    }

    #[test]
    fn empty_relation_needs_declared_arity() {
        assert!(parse_structure("structure { universe 2 E = { } }").is_err());
        let s = parse_structure("structure { universe 2 E/2 = { } }").unwrap();
        assert_eq!(s.signature().arity(s.signature().lookup("E").unwrap()), 2);
        assert_eq!(s.tuple_count(), 0);
    }

    #[test]
    fn comments_and_whitespace() {
        let s = parse_structure(
            "structure {   # a structure
               universe 2  # with comments
               E = { (0,1) }
             }",
        )
        .unwrap();
        assert_eq!(s.tuple_count(), 1);
    }

    #[test]
    fn rejects_out_of_range_elements() {
        let err = parse_structure("structure { universe 2 E = { (0,5) } }").unwrap_err();
        assert!(err.message.contains("outside universe"));
    }

    #[test]
    fn rejects_mixed_arity() {
        let err = parse_structure("structure { universe 3 E = { (0,1), (0,1,2) } }").unwrap_err();
        assert!(err.message.contains("mixed arities"));
    }

    #[test]
    fn rejects_zero_arity_and_repeated_names() {
        let err = parse_structure("structure { universe 2 E = { (0,0) } P/0 = { } }").unwrap_err();
        assert!(err.message.contains("arity 0"), "{err}");
        let err =
            parse_structure("structure { universe 2 E = { (0,1) } E = { (1,0) } }").unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_structure("structure { universe 1 } extra").is_err());
        // A second block is trailing garbage for the single-structure
        // entry point, but valid batch input.
        let two = "structure { universe 1 E = { (0,0) } } structure { universe 2 E/2 = { } }";
        assert!(parse_structure(two).is_err());
        assert_eq!(parse_structures(two).unwrap().len(), 2);
    }

    #[test]
    fn batch_parsing_preserves_order_and_reports_errors() {
        let batch = parse_structures(
            "structure { universe 2 E = { (0,1) } }  # first
             structure { universe 3 E = { (0,1), (1,2) } }
             structure { universe 1 E/2 = { } }",
        )
        .unwrap();
        assert_eq!(
            batch.iter().map(|s| s.universe_size()).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
        assert!(parse_structures("").is_err());
        assert!(parse_structures("structure { universe 1 } junk").is_err());
    }
}
