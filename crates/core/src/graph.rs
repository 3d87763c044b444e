//! The view dependency graph: which databases and which other views each
//! view's definition reads.
//!
//! The paper defines views over base databases; production view stacks are
//! *graphs* — a view imports another view's virtual classes, which import a
//! third's, all the way down to base data. This module is the catalog's
//! record of that graph: a DAG whose nodes are views and whose edges point
//! at the things a view reads ([`DepTarget::Database`] or
//! [`DepTarget::View`]), each edge annotated with the class names actually
//! read (extracted from the typechecked definition at bind time).
//!
//! Invariants the DDL layer ([`crate::catalog`]) enforces with this graph:
//!
//! * **acyclic** — a definition that would close a cycle is rejected at
//!   bind time, while the binder expands view imports
//!   ([`crate::ViewError::CyclicViewDependency`]), so a cyclic graph is
//!   never registered here;
//! * **RESTRICT** — a view with dependents cannot be dropped, and
//!   redefining it atomically revalidates every transitive dependent;
//! * **topological propagation** — after a base schema change, only the
//!   transitive dependents of that database are rebound, in dependency
//!   order ([`DependencyGraph::transitive_dependents`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ov_oodb::Symbol;

/// One thing a view's definition reads: a base database or another view.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DepTarget {
    /// A base database, by name.
    Database(Symbol),
    /// Another view, by name.
    View(Symbol),
}

impl fmt::Display for DepTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepTarget::Database(n) => write!(f, "database {n}"),
            DepTarget::View(n) => write!(f, "view {n}"),
        }
    }
}

/// One outgoing dependency edge of a view, with the class names read
/// through it (empty when a target is imported but no class of it is
/// referenced yet).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// What the view reads.
    pub on: DepTarget,
    /// The class names read through this edge, sorted.
    pub classes: BTreeSet<Symbol>,
}

/// The session-level dependency DAG: view name → outgoing edges.
///
/// Deterministic by construction (`BTreeMap`/`BTreeSet` everywhere), so
/// `describe` output and propagation order are stable across runs.
#[derive(Clone, Default, Debug)]
pub struct DependencyGraph {
    edges: BTreeMap<Symbol, Vec<DepEdge>>,
}

impl DependencyGraph {
    /// An empty graph.
    pub fn new() -> DependencyGraph {
        DependencyGraph::default()
    }

    /// Records (or replaces) `view`'s outgoing edges.
    pub fn set(&mut self, view: Symbol, deps: Vec<DepEdge>) {
        self.edges.insert(view, deps);
    }

    /// Removes `view` from the graph (its outgoing edges; callers check
    /// for incoming edges first via [`Self::direct_dependents`]).
    pub fn remove(&mut self, view: Symbol) {
        self.edges.remove(&view);
    }

    /// `view`'s outgoing edges, if it is registered.
    pub fn deps_of(&self, view: Symbol) -> Option<&[DepEdge]> {
        self.edges.get(&view).map(Vec::as_slice)
    }

    /// All registered views, sorted.
    pub fn views(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.edges.keys().copied()
    }

    /// Views with a direct edge onto `target`, sorted.
    pub fn direct_dependents(&self, target: DepTarget) -> Vec<Symbol> {
        self.edges
            .iter()
            .filter(|(_, deps)| deps.iter().any(|d| d.on == target))
            .map(|(v, _)| *v)
            .collect()
    }

    /// Every view that (transitively) reads `target`, in topological order:
    /// a view appears after every view it depends on, so propagating a
    /// change in this order refreshes upstream views before the views
    /// stacked on them.
    pub fn transitive_dependents(&self, target: DepTarget) -> Vec<Symbol> {
        let mut affected: BTreeSet<Symbol> = BTreeSet::new();
        // Fixpoint: grow the affected set until no new dependent appears.
        // The graph is small (a session's views), so simplicity wins.
        loop {
            let before = affected.len();
            for (view, deps) in &self.edges {
                let hit = deps.iter().any(|d| {
                    d.on == target || matches!(d.on, DepTarget::View(u) if affected.contains(&u))
                });
                if hit {
                    affected.insert(*view);
                }
            }
            if affected.len() == before {
                break;
            }
        }
        self.topo_sort(&affected)
    }

    /// Orders an arbitrary set of views topologically: dependencies before
    /// dependents, ties broken by name. Used when replaying a session
    /// (`save` emits view definitions in this order so a stacked view is
    /// restored after the views it imports).
    pub fn topo_order(&self, views: impl IntoIterator<Item = Symbol>) -> Vec<Symbol> {
        let subset: BTreeSet<Symbol> = views.into_iter().collect();
        self.topo_sort(&subset)
    }

    /// Orders `subset` topologically: dependencies before dependents, ties
    /// broken by name for determinism.
    fn topo_sort(&self, subset: &BTreeSet<Symbol>) -> Vec<Symbol> {
        let mut out = Vec::with_capacity(subset.len());
        let mut placed: BTreeSet<Symbol> = BTreeSet::new();
        while placed.len() < subset.len() {
            let mut progressed = false;
            for &v in subset {
                if placed.contains(&v) {
                    continue;
                }
                let ready = self.edges.get(&v).is_none_or(|deps| {
                    deps.iter().all(|d| match d.on {
                        DepTarget::View(u) => !subset.contains(&u) || placed.contains(&u),
                        DepTarget::Database(_) => true,
                    })
                });
                if ready {
                    out.push(v);
                    placed.insert(v);
                    progressed = true;
                }
            }
            // A cycle would stall the loop; the catalog rejects cycles at
            // bind time, so place the rest in name order as a backstop.
            if !progressed {
                for &v in subset {
                    if placed.insert(v) {
                        out.push(v);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    fn edge(on: DepTarget, classes: &[&str]) -> DepEdge {
        DepEdge {
            on,
            classes: classes.iter().map(|c| sym(c)).collect(),
        }
    }

    /// Staff ← A ← B ← C, plus D over Staff only.
    fn chain() -> DependencyGraph {
        let mut g = DependencyGraph::new();
        let staff = DepTarget::Database(sym("Staff"));
        g.set(sym("A"), vec![edge(staff, &["Person"])]);
        g.set(sym("B"), vec![edge(DepTarget::View(sym("A")), &["Adult"])]);
        g.set(sym("C"), vec![edge(DepTarget::View(sym("B")), &["Rich"])]);
        g.set(sym("D"), vec![edge(staff, &["Person"])]);
        g
    }

    #[test]
    fn transitive_dependents_in_topo_order() {
        let g = chain();
        assert_eq!(
            g.transitive_dependents(DepTarget::Database(sym("Staff"))),
            vec![sym("A"), sym("B"), sym("C"), sym("D")]
        );
        assert_eq!(
            g.transitive_dependents(DepTarget::View(sym("A"))),
            vec![sym("B"), sym("C")]
        );
        assert_eq!(
            g.transitive_dependents(DepTarget::View(sym("C"))),
            Vec::<Symbol>::new()
        );
    }

    #[test]
    fn direct_dependents_only() {
        let g = chain();
        assert_eq!(
            g.direct_dependents(DepTarget::View(sym("A"))),
            vec![sym("B")]
        );
    }
}
