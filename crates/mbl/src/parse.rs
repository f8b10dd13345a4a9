//! Parser for MemBlockLang surface syntax.

use std::fmt;

use crate::ast::{parse_block_name, BlockId, Expr, Tag};

/// Deepest expression tree [`parse`] builds: groups, sets and extensions
/// inside each other, and tags, powers and extensions stacked on one term,
/// all count.  Parsing, expanding, rendering and dropping an expression each
/// recurse once per level, so the bound keeps a hostile expression from
/// overflowing the stack of the thread handling it.
const MAX_DEPTH: usize = 64;

/// Error raised when an MBL expression cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    /// A block name, `None` past the last `u32` block.
    Block(Option<BlockId>),
    Question,
    Bang,
    At,
    Underscore,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Number(u32),
    Compose,
}

fn lex(input: &str) -> Result<Vec<(usize, Token)>, ParseError> {
    // Room for a rendered query's tokens: a block and a separator each.
    let mut tokens = Vec::with_capacity(input.len() / 2 + 1);
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '?' => {
                tokens.push((i, Token::Question));
                i += 1;
            }
            '!' => {
                tokens.push((i, Token::Bang));
                i += 1;
            }
            '@' => {
                tokens.push((i, Token::At));
                i += 1;
            }
            '_' => {
                tokens.push((i, Token::Underscore));
                i += 1;
            }
            '(' => {
                tokens.push((i, Token::LParen));
                i += 1;
            }
            ')' => {
                tokens.push((i, Token::RParen));
                i += 1;
            }
            '[' => {
                tokens.push((i, Token::LBracket));
                i += 1;
            }
            ']' => {
                tokens.push((i, Token::RBracket));
                i += 1;
            }
            '{' => {
                tokens.push((i, Token::LBrace));
                i += 1;
            }
            '}' => {
                tokens.push((i, Token::RBrace));
                i += 1;
            }
            ',' => {
                tokens.push((i, Token::Comma));
                i += 1;
            }
            '^' => {
                // `(q)^k` is accepted as an alternative spelling of `(q)k`.
                i += 1;
            }
            'A'..='Z' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_uppercase() {
                    i += 1;
                }
                tokens.push((start, Token::Block(parse_block_name(&input[start..i]))));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let value: u32 = input[start..i].parse().map_err(|_| ParseError {
                    position: start,
                    message: "number too large".to_string(),
                })?;
                tokens.push((start, Token::Number(value)));
            }
            _ => {
                // Unicode composition operator `∘` (and the ASCII fallback `.`).
                if input[i..].starts_with('∘') || input[i..].starts_with('◦') {
                    tokens.push((i, Token::Compose));
                    i += input[i..].chars().next().map_or(1, char::len_utf8);
                } else if c == '.' {
                    tokens.push((i, Token::Compose));
                    i += 1;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: format!("unexpected character '{c}'"),
                    });
                }
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<(usize, Token)>,
    cursor: usize,
    /// Expressions currently being parsed, outermost included.
    nesting: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.cursor).map(|(_, t)| t)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.cursor)
            .map_or(self.input.len(), |(p, _)| *p)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.cursor).map(|&(_, t)| t);
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn expect(&mut self, token: Token) -> Result<(), ParseError> {
        let position = self.position();
        match self.advance() {
            Some(t) if t == token => Ok(()),
            other => Err(ParseError {
                position,
                message: format!("expected {token:?}, found {other:?}"),
            }),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.position(),
            message: message.into(),
        }
    }

    /// The height of a node over children of height `below`, failing past
    /// [`MAX_DEPTH`].
    fn over(&self, below: usize) -> Result<usize, ParseError> {
        if below >= MAX_DEPTH {
            return Err(self.error(format!("expression nests deeper than {MAX_DEPTH} levels")));
        }
        Ok(below + 1)
    }

    /// expr := term (('∘')? term)*
    ///
    /// Returns the expression with the height of its tree.
    fn parse_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        // Recursion depth is checked on the way down: heights are only known
        // on the way back up.
        self.nesting = self.over(self.nesting)?;
        let (first, mut height) = self.parse_term()?;
        let mut parts = vec![first];
        loop {
            match self.peek() {
                Some(Token::Compose) => {
                    self.advance();
                }
                Some(
                    Token::Block(_) | Token::At | Token::Underscore | Token::LParen | Token::LBrace,
                ) => {}
                _ => break,
            }
            let (part, part_height) = self.parse_term()?;
            parts.push(part);
            height = height.max(part_height);
        }
        self.nesting -= 1;
        Ok(if parts.len() == 1 {
            (parts.pop().expect("one element"), height)
        } else {
            (Expr::Concat(parts), self.over(height)?)
        })
    }

    /// term := atom postfix*
    fn parse_term(&mut self) -> Result<(Expr, usize), ParseError> {
        let (mut expr, mut height) = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Token::Question) => {
                    self.advance();
                    expr = match expr {
                        Expr::Block(b, None) => Expr::Block(b, Some(Tag::Profile)),
                        other => {
                            height = self.over(height)?;
                            Expr::Tagged(Box::new(other), Tag::Profile)
                        }
                    };
                }
                Some(Token::Bang) => {
                    self.advance();
                    expr = match expr {
                        Expr::Block(b, None) => Expr::Block(b, Some(Tag::Invalidate)),
                        other => {
                            height = self.over(height)?;
                            Expr::Tagged(Box::new(other), Tag::Invalidate)
                        }
                    };
                }
                Some(Token::Number(_)) => {
                    let Some(Token::Number(k)) = self.advance() else {
                        unreachable!("peeked a number")
                    };
                    height = self.over(height)?;
                    expr = Expr::Power(Box::new(expr), k);
                }
                Some(Token::LBracket) => {
                    self.advance();
                    let (ext, ext_height) = self.parse_expr()?;
                    self.expect(Token::RBracket)?;
                    height = self.over(height.max(ext_height))?;
                    expr = Expr::Extension(Box::new(expr), Box::new(ext));
                }
                _ => break,
            }
        }
        Ok((expr, height))
    }

    fn parse_atom(&mut self) -> Result<(Expr, usize), ParseError> {
        let position = self.position();
        match self.advance() {
            Some(Token::Block(block)) => {
                let block = block.ok_or_else(|| {
                    let name = &self.input[position..];
                    let end = name
                        .bytes()
                        .position(|b| !b.is_ascii_uppercase())
                        .unwrap_or(name.len());
                    ParseError {
                        position,
                        message: format!("invalid block name '{}'", &name[..end]),
                    }
                })?;
                Ok((Expr::Block(block, None), 1))
            }
            Some(Token::At) => Ok((Expr::Expand, 1)),
            Some(Token::Underscore) => Ok((Expr::Wildcard, 1)),
            Some(Token::LParen) => {
                let inner = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(inner)
            }
            Some(Token::LBrace) => {
                let (first, mut height) = self.parse_expr()?;
                let mut alternatives = vec![first];
                loop {
                    match self.peek() {
                        Some(Token::Comma) => {
                            self.advance();
                            let (alternative, alternative_height) = self.parse_expr()?;
                            alternatives.push(alternative);
                            height = height.max(alternative_height);
                        }
                        Some(Token::RBrace) => {
                            self.advance();
                            break;
                        }
                        _ => return Err(self.error("expected ',' or '}' in set")),
                    }
                }
                Ok((Expr::Set(alternatives), self.over(height)?))
            }
            other => Err(ParseError {
                position,
                message: format!("expected a block, macro or group, found {other:?}"),
            }),
        }
    }
}

/// Parses an MBL expression.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending token.
///
/// # Example
///
/// ```
/// use mbl::parse;
///
/// let expr = parse("@ X _?").unwrap();
/// assert_eq!(expr.to_string(), "@ X (_)?");
/// assert!(parse("@ )").is_err());
/// ```
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(ParseError {
            position: 0,
            message: "empty expression".to_string(),
        });
    }
    let mut parser = Parser {
        input,
        tokens,
        cursor: 0,
        nesting: 0,
    };
    let (expr, _) = parser.parse_expr()?;
    if parser.peek().is_some() {
        return Err(parser.error("trailing tokens after expression"));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_blocks_and_tags() {
        assert_eq!(parse("A").unwrap(), Expr::Block(BlockId(0), None));
        assert_eq!(
            parse("B?").unwrap(),
            Expr::Block(BlockId(1), Some(Tag::Profile))
        );
        assert_eq!(
            parse("C!").unwrap(),
            Expr::Block(BlockId(2), Some(Tag::Invalidate))
        );
    }

    #[test]
    fn juxtaposition_concatenates() {
        let e = parse("A B C").unwrap();
        assert_eq!(
            e,
            Expr::Concat(vec![
                Expr::Block(BlockId(0), None),
                Expr::Block(BlockId(1), None),
                Expr::Block(BlockId(2), None),
            ])
        );
    }

    #[test]
    fn explicit_composition_operator_is_accepted() {
        assert_eq!(parse("A ∘ B").unwrap(), parse("A B").unwrap());
        assert_eq!(
            parse("(A B C D) ∘ (E F)").unwrap(),
            parse("(A B C D) (E F)").unwrap()
        );
    }

    #[test]
    fn power_and_extension_and_sets() {
        let e = parse("(A B C)3").unwrap();
        assert!(matches!(e, Expr::Power(_, 3)));
        let e = parse("(A B C D)[E F]").unwrap();
        assert!(matches!(e, Expr::Extension(_, _)));
        let e = parse("{A, B C}").unwrap();
        assert!(matches!(e, Expr::Set(ref v) if v.len() == 2));
    }

    #[test]
    fn caret_power_is_an_alias() {
        assert_eq!(parse("(A)^3").unwrap(), parse("(A)3").unwrap());
    }

    #[test]
    fn group_tags_distribute() {
        let e = parse("(A B)?").unwrap();
        assert!(matches!(e, Expr::Tagged(_, Tag::Profile)));
    }

    #[test]
    fn example_4_1_query_parses() {
        let e = parse("@ X _?").unwrap();
        match e {
            Expr::Concat(parts) => {
                assert_eq!(parts.len(), 3);
                assert_eq!(parts[0], Expr::Expand);
                assert_eq!(parts[1], Expr::Block(BlockId(23), None));
                assert!(matches!(parts[2], Expr::Tagged(_, Tag::Profile)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("A $").unwrap_err();
        assert_eq!(err.position, 2);
        assert!(parse("").is_err());
        assert!(parse("(A").is_err());
        assert!(parse("A )").is_err());
        assert!(parse("{A").is_err());
    }

    #[test]
    fn nesting_is_bounded_on_a_small_stack() {
        // Unbounded recursion overflowed the parsing thread's stack (an
        // abort, not a panic) on `((((…A`; stacked postfixes built trees
        // that expansion and drop recursed through just as deeply.
        let deep = 100_000;
        let hostile = [
            format!("{}A", "(".repeat(deep)),
            format!("{}A{}", "(".repeat(deep), ")".repeat(deep)),
            format!("{}A{}", "{".repeat(deep), "}".repeat(deep)),
            format!("(A B){}", "?".repeat(deep)),
            format!("(A){}", " 2".repeat(deep)),
            format!("A{}", "[B]".repeat(deep)),
        ];
        let verdicts = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                hostile
                    .iter()
                    .map(|text| parse(text).map(|_| ()))
                    .collect::<Vec<_>>()
            })
            .unwrap()
            .join()
            .expect("the parser never overflows its stack");
        for verdict in verdicts {
            let error = verdict.unwrap_err();
            assert!(error.message.contains("nests deeper"), "{error}");
        }
        // Realistic nesting is far inside the bound.
        let nested = format!(
            "{}A B{}?",
            "(".repeat(MAX_DEPTH / 2),
            ")".repeat(MAX_DEPTH / 2)
        );
        assert!(parse(&nested).is_ok());
    }

    #[test]
    fn multi_letter_blocks_are_supported() {
        assert_eq!(parse("AA").unwrap(), Expr::Block(BlockId(26), None));
    }

    #[test]
    fn block_names_past_u32_are_errors() {
        assert_eq!(
            parse("A MWLQKWV?").unwrap(),
            Expr::Concat(vec![
                Expr::Block(BlockId(0), None),
                Expr::Block(BlockId(u32::MAX), Some(Tag::Profile)),
            ])
        );
        for (input, position, name) in [
            ("AAAAAAAA? B", 0, "AAAAAAAA"),
            ("A MWLQKWW", 2, "MWLQKWW"),
            ("{A, ABCDEFGHIJKLMNO!}", 4, "ABCDEFGHIJKLMNO"),
        ] {
            let error = parse(input).unwrap_err();
            assert_eq!(error.position, position, "{input}");
            assert_eq!(error.message, format!("invalid block name '{name}'"));
        }
    }
}
