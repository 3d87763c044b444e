//! The unified workspace error.
//!
//! Each layer has its own error enum (`OodbError`, `QueryError`,
//! `ViewError`) with `From` conversions along the dependency edges.
//! [`Error`] flattens the three behind one type so application code using
//! the umbrella crate can `?` across layers and walk a single
//! [`std::error::Error::source`] chain.

use std::fmt;

use crate::oodb::OodbError;
use crate::query::QueryError;
use crate::views::ViewError;

/// Any error produced by the workspace layers.
///
/// `source()` returns the wrapped layer error, which in turn chains to the
/// error that caused it (a `ViewError` wrapping a `QueryError` wrapping an
/// `OodbError` yields a three-link chain).
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An error from the data model / object store layer.
    Oodb(OodbError),
    /// An error from the query language layer.
    Query(QueryError),
    /// An error from the view mechanism.
    View(ViewError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Oodb(e) => write!(f, "oodb: {e}"),
            Error::Query(e) => write!(f, "query: {e}"),
            Error::View(e) => write!(f, "view: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Oodb(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::View(e) => Some(e),
        }
    }
}

impl From<OodbError> for Error {
    fn from(e: OodbError) -> Error {
        Error::Oodb(e)
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Error {
        Error::Query(e)
    }
}

impl From<ViewError> for Error {
    fn from(e: ViewError) -> Error {
        Error::View(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn source_chains_through_layers() {
        let base = OodbError::UnknownClass(crate::oodb::sym("Ghost"));
        let view: ViewError = base.into();
        let unified: Error = view.into();
        // Error -> ViewError -> OodbError.
        let s1 = unified.source().expect("layer error");
        assert!(s1.downcast_ref::<ViewError>().is_some());
        let s2 = s1.source().expect("cause");
        assert!(s2.downcast_ref::<OodbError>().is_some());
        assert!(s2.source().is_none());
    }

    #[test]
    fn display_names_the_layer() {
        let e: Error = QueryError::eval("boom").into();
        assert!(e.to_string().starts_with("query: "));
    }

    #[test]
    fn resource_exhausted_chains_to_the_breach() {
        let budget = crate::query::Budget::new().with_max_steps(0);
        let q = budget.step().expect_err("zero-step budget must breach");
        assert!(matches!(q, QueryError::ResourceExhausted(_)));
        let unified: Error = q.into();
        let s1 = unified.source().expect("layer error");
        let s2 = s1.source().expect("breach");
        assert!(s2.downcast_ref::<crate::query::BudgetBreach>().is_some());
        assert!(s2.to_string().contains("steps"));
    }

    #[test]
    fn cancelled_chains_to_the_breach() {
        let budget = crate::query::Budget::new().with_deadline_ms(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let q = budget
            .check_deadline()
            .expect_err("expired deadline must cancel");
        assert!(matches!(q, QueryError::Cancelled(_)));
        let unified: Error = q.into();
        let s1 = unified.source().expect("layer error");
        let s2 = s1.source().expect("breach");
        assert!(s2.downcast_ref::<crate::query::BudgetBreach>().is_some());
    }

    #[test]
    fn injected_fault_chains_through_every_layer() {
        let fault = crate::oodb::InjectedFault {
            site: "store.update",
            hit: 1,
        };
        let v: ViewError = OodbError::Fault(fault).into();
        let unified: Error = v.into();
        // Error -> ViewError -> OodbError -> InjectedFault.
        let s1 = unified.source().expect("view error");
        let s2 = s1.source().expect("oodb error");
        let s3 = s2.source().expect("injected fault");
        assert!(s3.downcast_ref::<crate::oodb::InjectedFault>().is_some());
        assert!(s3.to_string().contains("store.update"));
    }

    #[test]
    fn degraded_chains_to_its_cause() {
        let cause = ViewError::Oodb(OodbError::Fault(crate::oodb::InjectedFault {
            site: "view.population_recompute",
            hit: 3,
        }));
        let degraded = ViewError::Degraded {
            class: crate::oodb::sym("Adult"),
            cause: Box::new(cause),
        };
        let unified: Error = degraded.into();
        // Error -> Degraded -> cause ViewError -> OodbError -> InjectedFault.
        let mut chain = Vec::new();
        let mut cur: &dyn std::error::Error = &unified;
        while let Some(next) = cur.source() {
            chain.push(next.to_string());
            cur = next;
        }
        assert_eq!(chain.len(), 4, "chain: {chain:?}");
        assert!(unified.to_string().contains("`Adult`"));
        assert!(chain.last().unwrap().contains("view.population_recompute"));
    }
}
