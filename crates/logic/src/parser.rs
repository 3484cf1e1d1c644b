//! A text syntax for ep-queries.
//!
//! ```text
//! query   := [ '(' varlist ')' ':=' ] formula
//! formula := conj ( '|' conj )*
//! conj    := unit ( '&' unit )*
//! unit    := 'exists' varlist '.' unit
//!          | 'true'
//!          | IDENT '(' varlist ')'
//!          | '(' formula ')'
//! varlist := IDENT ( ',' IDENT )*
//! ```
//!
//! Identifiers are `[A-Za-z_][A-Za-z0-9_']*`; `#` starts a line comment.
//! `&` binds tighter than `|`; `exists` extends as far right as possible.
//! The optional head lists the liberal variables; without a head they
//! default to the free variables. Parentheses and `exists` may nest at
//! most [`MAX_NESTING`] deep; deeper input is a [`ParseError`], not a
//! stack overflow.

use crate::formula::{Atom, Formula, Var};
use crate::query::Query;
use std::fmt;

/// Error from [`parse_query`] / [`parse_formula`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description with offset context.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deep parentheses and `exists` may nest. The parser (and every
/// later pass over the formula tree) recurses once per level, so the
/// cap keeps adversarial input from overflowing the stack.
pub const MAX_NESTING: usize = 256;

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Open parentheses and `exists` scopes around the current position.
    depth: usize,
}

impl<'a> Cursor<'a> {
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

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.text[self.pos..].chars().next()
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

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        if self.try_eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected {token:?}")))
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_alphabetic() || bytes[self.pos] == b'_')
        {
            self.pos += 1;
            while self.pos < bytes.len()
                && (bytes[self.pos].is_ascii_alphanumeric()
                    || bytes[self.pos] == b'_'
                    || bytes[self.pos] == b'\'')
            {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(self.error("expected an identifier"));
        }
        Ok(self.text[start..self.pos].to_string())
    }

    /// Peeks whether the next token is the keyword `kw` (not a prefix of a
    /// longer identifier).
    fn peek_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        rest.starts_with(kw)
            && !rest[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'')
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.text.len()
    }
}

fn varlist(c: &mut Cursor) -> Result<Vec<Var>, ParseError> {
    let mut vars = vec![Var::new(c.identifier()?)];
    while c.try_eat(",") {
        vars.push(Var::new(c.identifier()?));
    }
    Ok(vars)
}

/// Runs `inner` one nesting level deeper, or fails past [`MAX_NESTING`].
fn nested(
    c: &mut Cursor,
    inner: fn(&mut Cursor) -> Result<Formula, ParseError>,
) -> Result<Formula, ParseError> {
    if c.depth == MAX_NESTING {
        return Err(c.error(format!("nesting deeper than {MAX_NESTING}")));
    }
    c.depth += 1;
    let result = inner(c);
    c.depth -= 1;
    result
}

fn unit(c: &mut Cursor) -> Result<Formula, ParseError> {
    if c.peek_keyword("exists") {
        c.eat("exists")?;
        let vars = varlist(c)?;
        c.eat(".")?;
        let body = nested(c, unit_chain)?;
        return Ok(vars
            .into_iter()
            .rev()
            .fold(body, |acc, v| Formula::Exists(v, Box::new(acc))));
    }
    if c.peek_keyword("true") {
        c.eat("true")?;
        return Ok(Formula::Top);
    }
    if c.try_eat("(") {
        let f = nested(c, formula)?;
        c.eat(")")?;
        return Ok(f);
    }
    let name = c.identifier()?;
    c.eat("(")?;
    let args = varlist(c)?;
    c.eat(")")?;
    Ok(Formula::Atom(Atom::new(name, args)))
}

/// `exists x . E(x,y) & F(y)` scopes the quantifier over the whole chain:
/// after `exists … .` we keep parsing conjunctions and disjunctions.
fn unit_chain(c: &mut Cursor) -> Result<Formula, ParseError> {
    formula(c)
}

fn conj(c: &mut Cursor) -> Result<Formula, ParseError> {
    let mut acc = unit(c)?;
    while c.peek_char() == Some('&') {
        c.eat("&")?;
        acc = acc.and(unit(c)?);
    }
    Ok(acc)
}

fn formula(c: &mut Cursor) -> Result<Formula, ParseError> {
    let mut acc = conj(c)?;
    while c.peek_char() == Some('|') {
        c.eat("|")?;
        acc = acc.or(conj(c)?);
    }
    Ok(acc)
}

/// Parses a bare formula (no liberal head).
pub fn parse_formula(text: &str) -> Result<Formula, ParseError> {
    let mut c = Cursor {
        text,
        pos: 0,
        depth: 0,
    };
    let f = formula(&mut c)?;
    if !c.at_end() {
        return Err(c.error("trailing input after formula"));
    }
    Ok(f)
}

/// Parses a query, with an optional liberal head `(v1, …, vk) :=`.
pub fn parse_query(text: &str) -> Result<Query, ParseError> {
    let mut c = Cursor {
        text,
        pos: 0,
        depth: 0,
    };
    // Try the head: '(' varlist ')' ':='. Backtrack if ':=' is absent.
    let saved = c.pos;
    let head = if c.try_eat("(") {
        if c.try_eat(")") && c.try_eat(":=") {
            Some(Vec::new()) // sentence head: "() :="
        } else {
            c.pos = saved;
            c.try_eat("(");
            match varlist(&mut c) {
                Ok(vars) if c.try_eat(")") && c.try_eat(":=") => Some(vars),
                _ => {
                    c.pos = saved;
                    None
                }
            }
        }
    } else {
        None
    };
    let f = formula(&mut c)?;
    if !c.at_end() {
        return Err(c.error("trailing input after query"));
    }
    let result = match head {
        Some(vars) => Query::new(f, vars),
        None => Query::from_formula(f),
    };
    result.map_err(|e| ParseError { message: e.message })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example_4_1() {
        let q = parse_query("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))").unwrap();
        assert_eq!(q.liberal_count(), 4);
        let expected = Formula::atom("E", &["x", "y"]).and(
            Formula::atom("E", &["w", "x"])
                .or(Formula::atom("E", &["y", "z"]).and(Formula::atom("E", &["z", "z"]))),
        );
        assert_eq!(q.formula(), &expected);
    }

    #[test]
    fn precedence_and_over_or() {
        let q = parse_query("A(x) & B(x) | C(x)").unwrap();
        let expected = (Formula::atom("A", &["x"]).and(Formula::atom("B", &["x"])))
            .or(Formula::atom("C", &["x"]));
        assert_eq!(q.formula(), &expected);
    }

    #[test]
    fn exists_scopes_to_the_right() {
        let q = parse_query("exists u . E(x,u) & E(u,u)").unwrap();
        let expected = Formula::exists(
            &["u"],
            Formula::atom("E", &["x", "u"]).and(Formula::atom("E", &["u", "u"])),
        );
        assert_eq!(q.formula(), &expected);
        assert_eq!(q.liberal(), &[Var::new("x")]);
    }

    #[test]
    fn multi_variable_exists() {
        let q = parse_query("exists a, b . F(a,b)").unwrap();
        assert_eq!(
            q.formula(),
            &Formula::exists(&["a", "b"], Formula::atom("F", &["a", "b"]))
        );
        assert!(q.is_sentence());
        assert_eq!(q.liberal_count(), 0);
    }

    #[test]
    fn head_defaults_to_free_variables() {
        let q = parse_query("E(x,y) & exists u . E(y,u)").unwrap();
        assert_eq!(q.liberal(), &[Var::new("x"), Var::new("y")]);
    }

    #[test]
    fn head_may_add_liberal_only_variables() {
        let q = parse_query("(x, y, z) := E(x,y)").unwrap();
        assert_eq!(q.liberal_count(), 3);
    }

    #[test]
    fn primed_identifiers() {
        let q = parse_query("E(x,x')").unwrap();
        assert_eq!(q.liberal(), &[Var::new("x"), Var::new("x'")]);
    }

    #[test]
    fn true_literal_and_parens() {
        let q = parse_query("(x) := true | E(x,x)").unwrap();
        assert_eq!(
            q.formula(),
            &Formula::Top.or(Formula::atom("E", &["x", "x"]))
        );
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse_query(
            "(x) :=      # head
             E(x,x)      # an atom",
        )
        .unwrap();
        assert_eq!(q.liberal_count(), 1);
    }

    #[test]
    fn empty_head_declares_a_sentence() {
        let q = parse_query("() := exists a . E(a,a)").unwrap();
        assert_eq!(q.liberal_count(), 0);
        // Roundtrip through Display.
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("E(x,").is_err());
        assert!(parse_query("E(x,y) extra").is_err());
        assert!(parse_query("exists . E(x,y)").is_err());
        assert!(parse_query("(x) := E(x,y)").is_err()); // y free but not liberal
        assert!(parse_query("").is_err());
        assert!(parse_query("123(x)").is_err());
    }

    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let parens = |depth: usize| format!("{}E(x,y){}", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_query(&parens(MAX_NESTING)).is_ok());
        for text in [
            parens(MAX_NESTING + 1),
            parens(20_000),
            format!("{}E(x,x)", "exists u . ".repeat(MAX_NESTING + 1)),
        ] {
            let err = parse_query(&text).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn roundtrip_via_display() {
        for text in [
            "(w, x, y, z) := E(x,y) & (E(w,x) | E(y,z) & E(z,z))",
            "(x) := exists u . E(x,u) & E(u,u)",
            "(x, y) := E(x,y) | F(y,x)",
        ] {
            let q = parse_query(text).unwrap();
            let q2 = parse_query(&q.to_string()).unwrap();
            assert_eq!(q, q2, "roundtrip of {text}");
        }
    }

    #[test]
    fn keyword_prefix_identifiers_are_allowed() {
        // `existsX` is an identifier, not the keyword.
        let q = parse_query("existsX(x)").unwrap();
        assert_eq!(q.formula(), &Formula::atom("existsX", &["x"]));
        // `trueish` likewise.
        let q = parse_query("trueish(y)").unwrap();
        assert_eq!(q.formula(), &Formula::atom("trueish", &["y"]));
    }
}
