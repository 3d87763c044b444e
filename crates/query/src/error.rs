//! Errors for the language layer.

use std::fmt;
use std::sync::Arc;

use ov_oodb::OodbError;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, QueryError>;

/// A source position (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// The position of byte `offset` of `src`: lines are counted by `\n`,
    /// columns by character. Tokens carry offsets; this runs only when an
    /// error is built.
    pub fn at(src: &str, offset: usize) -> Pos {
        let before = &src[..offset];
        let line_start = before.rfind('\n').map_or(0, |nl| nl + 1);
        Pos {
            line: 1 + before.bytes().filter(|&b| b == b'\n').count() as u32,
            col: 1 + before[line_start..].chars().count() as u32,
        }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors raised while lexing, parsing, type-checking or evaluating.
#[derive(Clone, PartialEq, Debug)]
pub enum QueryError {
    /// Lexical error (bad character, unterminated string, …).
    Lex {
        /// Where it happened.
        pos: Pos,
        /// What went wrong.
        msg: String,
    },
    /// Syntax error.
    Parse {
        /// Where it happened.
        pos: Pos,
        /// What was expected/found.
        msg: String,
    },
    /// Static type error.
    Type(String),
    /// Runtime evaluation error.
    Eval(String),
    /// `select the` did not return exactly one element.
    TheCardinality {
        /// How many elements the query actually produced.
        got: usize,
    },
    /// An error from the data-model layer.
    Oodb(OodbError),
    /// A cooperative [`Budget`](crate::Budget) deadline expired; evaluation
    /// stopped at the next check point.
    Cancelled(crate::budget::BudgetBreach),
    /// A cooperative [`Budget`](crate::Budget) count limit (steps,
    /// rows, recursion depth) was exceeded.
    ResourceExhausted(crate::budget::BudgetBreach),
    /// A data source's own error (a view's), crossing the
    /// [`DataSource`](crate::DataSource) boundary typed.
    Source(SourceError),
}

/// A data source's own error, carried through the query layer as
/// [`QueryError::Source`]; the source downcasts it back.
#[derive(Clone, Debug)]
pub struct SourceError {
    /// The source's error.
    pub error: Arc<dyn std::error::Error + Send + Sync>,
}

impl PartialEq for SourceError {
    /// Two source errors are equal when they say the same thing.
    fn eq(&self, other: &SourceError) -> bool {
        self.error.to_string() == other.error.to_string()
    }
}

impl QueryError {
    /// Convenience constructor for evaluation errors.
    pub fn eval(msg: impl Into<String>) -> QueryError {
        QueryError::Eval(msg.into())
    }

    /// Convenience constructor for type errors.
    pub fn ty(msg: impl Into<String>) -> QueryError {
        QueryError::Type(msg.into())
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { pos, msg } => write!(f, "lex error at {pos}: {msg}"),
            QueryError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            QueryError::Type(msg) => write!(f, "type error: {msg}"),
            QueryError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            QueryError::TheCardinality { got } => write!(
                f,
                "`select the` expected exactly one result element, got {got}"
            ),
            QueryError::Oodb(e) => write!(f, "{e}"),
            QueryError::Cancelled(b) => write!(f, "query cancelled: {b}"),
            QueryError::ResourceExhausted(b) => write!(f, "resource exhausted: {b}"),
            QueryError::Source(e) => write!(f, "{}", e.error),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Oodb(e) => Some(e),
            QueryError::Cancelled(b) | QueryError::ResourceExhausted(b) => Some(b),
            QueryError::Source(e) => Some(&*e.error),
            _ => None,
        }
    }
}

impl From<OodbError> for QueryError {
    fn from(e: OodbError) -> QueryError {
        QueryError::Oodb(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    #[test]
    fn displays_with_position() {
        let e = QueryError::Parse {
            pos: Pos { line: 3, col: 14 },
            msg: "expected `from`".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:14: expected `from`");
    }

    #[test]
    fn wraps_oodb_errors() {
        let e: QueryError = OodbError::UnknownClass(sym("Ghost")).into();
        assert_eq!(e.to_string(), "unknown class `Ghost`");
        assert!(std::error::Error::source(&e).is_some());
    }
}
