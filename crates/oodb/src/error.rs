//! Error types for the data-model layer.

use std::fmt;

use crate::ids::{ClassId, Oid};
use crate::symbol::Symbol;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, OodbError>;

/// Errors raised by the schema/store layer.
#[derive(Clone, PartialEq, Debug)]
pub enum OodbError {
    /// A class name was not found in the schema.
    UnknownClass(Symbol),
    /// A class id was out of range for the schema.
    BadClassId(ClassId),
    /// A class with this name already exists.
    DuplicateClass(Symbol),
    /// An attribute was not found on the class (after upward resolution).
    UnknownAttr {
        /// The class the lookup started from.
        class: Symbol,
        /// The attribute name.
        attr: Symbol,
    },
    /// Attribute is defined more than once *within one class*.
    DuplicateAttr {
        /// The offending class.
        class: Symbol,
        /// The duplicated attribute.
        attr: Symbol,
    },
    /// Adding this superclass edge would create a cycle.
    CyclicInheritance {
        /// The class gaining a parent.
        class: Symbol,
        /// The would-be parent.
        parent: Symbol,
    },
    /// An oid that is not (or no longer) in the store.
    UnknownObject(Oid),
    /// A named root was not found.
    UnknownName(Symbol),
    /// A named root already exists.
    DuplicateName(Symbol),
    /// A value did not match the expected type.
    TypeMismatch {
        /// Where the check happened (attribute, argument, …).
        context: String,
        /// Rendered expected type.
        expected: String,
        /// Rendered offending value.
        found: String,
    },
    /// Tried to store into a computed attribute.
    NotStored {
        /// The class.
        class: Symbol,
        /// The computed attribute.
        attr: Symbol,
    },
    /// Upward resolution found several incomparable definitions — the
    /// paper's *schizophrenia* (§4.3).
    Schizophrenia {
        /// The class resolution started from.
        class: Symbol,
        /// The conflicted attribute.
        attr: Symbol,
        /// The incomparable classes each providing a definition.
        defined_in: Vec<Symbol>,
    },
    /// An attribute redefinition is not type-compatible with an inherited
    /// definition (covariance violation).
    IncompatibleOverride {
        /// The redefining class.
        class: Symbol,
        /// The attribute.
        attr: Symbol,
        /// The ancestor whose definition is violated.
        parent: Symbol,
    },
    /// A database with this name already exists in the system catalog.
    DuplicateDatabase(Symbol),
    /// A database name was not found in the system catalog.
    UnknownDatabase(Symbol),
    /// A database holds an oid that a database already in the system holds
    /// too: the oid would name two objects (§3), so the database does not
    /// join.
    SharedOid {
        /// The database that was refused.
        joining: Symbol,
        /// The database in the system that holds the oid.
        joined: Symbol,
        /// One oid the two hold.
        oid: Oid,
    },
    /// Every base oid is taken: the allocator reached the imaginary range.
    BaseOidsExhausted,
    /// An object value referenced an oid of the wrong class.
    BadReference {
        /// Where the reference was found.
        context: String,
        /// The offending oid.
        oid: Oid,
    },
    /// A failpoint fired (see [`crate::faults`]). A view's degradation
    /// ladder keys off this variant: it serves a stale population for it.
    Fault(crate::faults::InjectedFault),
    /// An operating-system I/O failure in the durability layer. Carries the
    /// rendered OS message rather than the `std::io::Error` itself so the
    /// error type stays `Clone + PartialEq`.
    Io {
        /// What the engine was doing (e.g. `"wal append"`).
        context: String,
        /// The OS error message.
        message: String,
    },
    /// A persistent file failed validation: bad magic, checksum mismatch,
    /// or a truncated structure where the format demands more bytes.
    Corrupt {
        /// What was being decoded and what was wrong with it.
        context: String,
    },
    /// A persistent file carries a format version this build cannot read:
    /// one written by an older build as much as one from a newer build.
    UnsupportedFormat {
        /// The version found in the file.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
}

impl fmt::Display for OodbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OodbError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            OodbError::BadClassId(c) => write!(f, "class id {c:?} out of range"),
            OodbError::DuplicateClass(n) => write!(f, "class `{n}` already exists"),
            OodbError::UnknownAttr { class, attr } => {
                write!(f, "class `{class}` has no attribute `{attr}`")
            }
            OodbError::DuplicateAttr { class, attr } => {
                write!(f, "attribute `{attr}` defined twice in class `{class}`")
            }
            OodbError::CyclicInheritance { class, parent } => write!(
                f,
                "making `{parent}` a superclass of `{class}` would create an inheritance cycle"
            ),
            OodbError::UnknownObject(oid) => write!(f, "no object with oid {oid}"),
            OodbError::UnknownName(n) => write!(f, "no named object `{n}`"),
            OodbError::DuplicateName(n) => write!(f, "named object `{n}` already exists"),
            OodbError::TypeMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            OodbError::NotStored { class, attr } => write!(
                f,
                "attribute `{attr}` of class `{class}` is computed, not stored"
            ),
            OodbError::Schizophrenia {
                class,
                attr,
                defined_in,
            } => {
                write!(
                    f,
                    "schizophrenia: attribute `{attr}` on `{class}` has conflicting definitions in "
                )?;
                for (i, c) in defined_in.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{c}`")?;
                }
                Ok(())
            }
            OodbError::IncompatibleOverride { class, attr, parent } => write!(
                f,
                "attribute `{attr}` in class `{class}` is not a subtype of its definition in superclass `{parent}`"
            ),
            OodbError::DuplicateDatabase(n) => write!(f, "database `{n}` already exists"),
            OodbError::UnknownDatabase(n) => write!(f, "unknown database `{n}`"),
            OodbError::SharedOid {
                joining,
                joined,
                oid,
            } => write!(
                f,
                "database `{joining}` cannot join: oid {oid} is an object of database `{joined}` too"
            ),
            OodbError::BaseOidsExhausted => write!(f, "base oid space exhausted"),
            OodbError::BadReference { context, oid } => {
                write!(f, "{context}: dangling or ill-classed reference {oid}")
            }
            OodbError::Fault(inner) => write!(f, "{inner}"),
            OodbError::Io { context, message } => write!(f, "{context}: i/o error: {message}"),
            OodbError::Corrupt { context } => write!(f, "corrupt file: {context}"),
            OodbError::UnsupportedFormat { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads version {supported})"
            ),
        }
    }
}

impl std::error::Error for OodbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OodbError::Fault(inner) => Some(inner),
            _ => None,
        }
    }
}

impl OodbError {
    /// Wraps a `std::io::Error` with the operation that hit it.
    pub fn io(context: &str, err: std::io::Error) -> OodbError {
        OodbError::Io {
            context: context.to_string(),
            message: err.to_string(),
        }
    }

    /// A corruption error with a rendered context.
    pub fn corrupt(context: impl Into<String>) -> OodbError {
        OodbError::Corrupt {
            context: context.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn messages_are_informative() {
        let e = OodbError::Schizophrenia {
            class: sym("Rich&Senior"),
            attr: sym("Print"),
            defined_in: vec![sym("Rich"), sym("Senior")],
        };
        let msg = e.to_string();
        assert!(msg.contains("schizophrenia"));
        assert!(msg.contains("`Rich`") && msg.contains("`Senior`"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(OodbError::UnknownClass(sym("Ghost")));
        assert_eq!(e.to_string(), "unknown class `Ghost`");
    }
}
