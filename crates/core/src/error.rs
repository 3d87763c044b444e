//! Errors for the view layer.

use std::fmt;

use ov_oodb::{OodbError, Symbol};
use ov_query::QueryError;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ViewError>;

/// Errors raised while defining, binding, or querying views.
#[derive(Clone, PartialEq, Debug)]
pub enum ViewError {
    /// From the language layer (parse/type/eval).
    Query(QueryError),
    /// From the data-model layer.
    Oodb(OodbError),
    /// "It is not possible for a user to insert an object directly into a
    /// virtual class" (§4.1).
    VirtualInsert(Symbol),
    /// Core attributes fix imaginary-object identity; they cannot be
    /// assigned through the view (§5.1: "the core attributes should be
    /// thought of as being somewhat immutable").
    CoreAttrUpdate {
        /// The imaginary class.
        class: Symbol,
        /// The core attribute.
        attr: Symbol,
    },
    /// Updating anything about an imaginary object other than through its
    /// base data is meaningless.
    ImaginaryUpdate(Symbol),
    /// The attribute resolves to a computed (virtual) definition; assigning
    /// it through the view would silently store a shadowing base value
    /// instead of changing what the attribute computes.
    ComputedAttrUpdate {
        /// The class resolution started from.
        class: Symbol,
        /// The computed attribute.
        attr: Symbol,
    },
    /// The attribute is hidden in this view.
    HiddenAttr {
        /// The class resolution started from.
        class: Symbol,
        /// The hidden attribute.
        attr: Symbol,
    },
    /// The class is hidden in this view.
    HiddenClass(Symbol),
    /// Importing two classes with the same name (alias one of them).
    ImportConflict {
        /// The conflicting class name.
        name: Symbol,
        /// The database the second copy came from.
        db: Symbol,
    },
    /// A virtual class's population query must return objects; this one
    /// returns plain values (use `imaginary` for that).
    NonObjectPopulation {
        /// The virtual class being defined.
        class: Symbol,
        /// What the query produced instead.
        found: String,
    },
    /// An imaginary population query must return tuples.
    NonTuplePopulation {
        /// The imaginary class being defined.
        class: Symbol,
        /// What the query produced instead.
        found: String,
    },
    /// At most one `imaginary` include per class, and it cannot be mixed
    /// with non-imaginary includes.
    MixedImaginary(Symbol),
    /// Virtual class definitions form a cycle (A includes objects of B,
    /// B of A …).
    CyclicVirtualClass(Symbol),
    /// A parameterized class was applied with the wrong number of
    /// arguments.
    ParamArity {
        /// The template's name.
        class: Symbol,
        /// Its parameter count.
        expected: usize,
        /// The argument count supplied.
        got: usize,
    },
    /// The object is not visible in this view (its class was not imported).
    NotVisible(ov_oodb::Oid),
    /// The definition would close a cycle in the view dependency graph
    /// (view A imports view B, which — transitively — imports A).
    CyclicViewDependency {
        /// The view whose definition closes the cycle.
        view: Symbol,
        /// The offending path, `view → … → view`.
        path: Vec<Symbol>,
    },
    /// A catalog change applied nothing because one of its transitive
    /// dependents failed to bind against the state it would produce: a
    /// view redefinition was rolled back, a base schema change refused
    /// before its first statement applied.
    RevalidationFailed {
        /// The view (or database) whose change triggered revalidation.
        changed: Symbol,
        /// Whether `changed` is a base database (the change was refused)
        /// rather than a view (its redefinition was rolled back).
        base: bool,
        /// The dependent view that failed to rebind.
        dependent: Symbol,
        /// Why it failed.
        cause: Box<ViewError>,
    },
    /// The view is unbound: its saved definition failed to bind on open,
    /// it could not follow a base change that had already applied, or it
    /// reads a view that is unbound. Its definition is kept (see
    /// [`crate::Session::unbound_views`]).
    Unbound {
        /// The unbound view.
        view: Symbol,
        /// Why it failed to bind.
        cause: Box<ViewError>,
    },
    /// Misc definition error with context.
    Definition(String),
    /// Graceful degradation failed: a population recompute faulted and no
    /// last-good cached population was available to serve stale. The
    /// underlying failure is in `cause` (and in [`source`]).
    ///
    /// [`source`]: std::error::Error::source
    Degraded {
        /// The virtual (or imaginary) class whose population failed.
        class: Symbol,
        /// The final failure.
        cause: Box<ViewError>,
    },
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::Query(e) => write!(f, "{e}"),
            ViewError::Oodb(e) => write!(f, "{e}"),
            ViewError::VirtualInsert(c) => write!(
                f,
                "cannot insert directly into virtual class `{c}` (populate it through its base classes)"
            ),
            ViewError::CoreAttrUpdate { class, attr } => write!(
                f,
                "cannot assign core attribute `{attr}` of imaginary class `{class}`: core attributes fix object identity"
            ),
            ViewError::ImaginaryUpdate(c) => {
                write!(f, "cannot update imaginary object of class `{c}` directly")
            }
            ViewError::ComputedAttrUpdate { class, attr } => write!(
                f,
                "attribute `{attr}` of class `{class}` is computed; it cannot be assigned through the view"
            ),
            ViewError::HiddenAttr { class, attr } => {
                write!(f, "attribute `{attr}` of class `{class}` is hidden in this view")
            }
            ViewError::HiddenClass(c) => write!(f, "class `{c}` is hidden in this view"),
            ViewError::ImportConflict { name, db } => write!(
                f,
                "import of class `{name}` from database `{db}` conflicts with an existing class; use `as` to rename"
            ),
            ViewError::NonObjectPopulation { class, found } => write!(
                f,
                "population query of virtual class `{class}` must return objects, found {found} (use `includes imaginary` for value populations)"
            ),
            ViewError::NonTuplePopulation { class, found } => write!(
                f,
                "imaginary population of class `{class}` must return tuples, found {found}"
            ),
            ViewError::MixedImaginary(c) => write!(
                f,
                "class `{c}`: at most one `imaginary` include, not mixed with other includes"
            ),
            ViewError::CyclicVirtualClass(c) => {
                write!(f, "virtual class `{c}` is defined (transitively) in terms of itself")
            }
            ViewError::ParamArity {
                class,
                expected,
                got,
            } => write!(
                f,
                "parameterized class `{class}` takes {expected} argument(s), got {got}"
            ),
            ViewError::NotVisible(oid) => {
                write!(f, "object {oid} is not visible in this view")
            }
            ViewError::CyclicViewDependency { view, path } => {
                write!(f, "view `{view}` would depend on itself: ")?;
                for (i, v) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            ViewError::RevalidationFailed {
                changed,
                base,
                dependent,
                cause,
            } => {
                if *base {
                    write!(f, "change to database `{changed}` refused")?;
                } else {
                    write!(f, "redefinition of `{changed}` rolled back")?;
                }
                write!(
                    f,
                    ": dependent view `{dependent}` failed to revalidate: {cause}"
                )
            }
            ViewError::Unbound { view, cause } => write!(f, "view `{view}` is unbound: {cause}"),
            ViewError::Definition(msg) => write!(f, "view definition error: {msg}"),
            ViewError::Degraded { class, cause } => write!(
                f,
                "view degraded: population of `{class}` failed with no cached fallback: {cause}"
            ),
        }
    }
}

impl std::error::Error for ViewError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ViewError::Query(e) => Some(e),
            ViewError::Oodb(e) => Some(e),
            ViewError::Degraded { cause, .. } => Some(&**cause),
            ViewError::RevalidationFailed { cause, .. } | ViewError::Unbound { cause, .. } => {
                Some(&**cause)
            }
            _ => None,
        }
    }
}

impl From<QueryError> for ViewError {
    /// Unwraps what the query layer carried: a view's own error comes back
    /// as the [`ViewError`] it was raised as.
    fn from(e: QueryError) -> ViewError {
        match e {
            QueryError::Oodb(o) => ViewError::Oodb(o),
            QueryError::Source(s) => match s.error.downcast_ref::<ViewError>() {
                Some(v) => v.clone(),
                None => ViewError::Query(QueryError::Source(s)),
            },
            other => ViewError::Query(other),
        }
    }
}

impl From<OodbError> for ViewError {
    fn from(e: OodbError) -> ViewError {
        ViewError::Oodb(e)
    }
}

impl From<ViewError> for QueryError {
    /// The `DataSource` trait speaks `QueryError`; view-specific failures
    /// cross the boundary typed.
    fn from(e: ViewError) -> QueryError {
        match e {
            ViewError::Query(q) => q,
            ViewError::Oodb(o) => QueryError::Oodb(o),
            other => QueryError::Source(ov_query::SourceError {
                error: std::sync::Arc::new(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    #[test]
    fn round_trips_through_query_error() {
        let v = ViewError::VirtualInsert(sym("Adult"));
        let q: QueryError = v.clone().into();
        assert!(q.to_string().contains("virtual class `Adult`"));
        assert_eq!(ViewError::from(q), v, "the same variant comes back");
    }

    /// A refused base change and a rolled-back view redefinition each say
    /// what happened to them.
    #[test]
    fn a_revalidation_failure_names_what_happened() {
        let failed = |base| ViewError::RevalidationFailed {
            changed: sym("A"),
            base,
            dependent: sym("V"),
            cause: Box::new(ViewError::HiddenClass(sym("P"))),
        };
        assert_eq!(
            failed(true).to_string(),
            "change to database `A` refused: dependent view `V` failed to revalidate: \
             class `P` is hidden in this view"
        );
        assert_eq!(
            failed(false).to_string(),
            "redefinition of `A` rolled back: dependent view `V` failed to revalidate: \
             class `P` is hidden in this view"
        );
    }

    #[test]
    fn oodb_errors_unwrap() {
        let v: ViewError = OodbError::UnknownClass(sym("X")).into();
        assert_eq!(v, ViewError::Oodb(OodbError::UnknownClass(sym("X"))));
    }
}
