//! Attribute (method) resolution.
//!
//! "To find the code for a method of a particular object, it suffices to
//! 'climb' the class hierarchy until a class is found that provides the
//! code" — the paper's *upward resolution* rule (§4.2). With multiple
//! inheritance (and, in the view layer, with overlapping virtual classes)
//! several incomparable classes may provide code, which the paper names
//! **schizophrenia**: "the receiver doesn't know which personality to
//! choose" (§4.3).
//!
//! The paper's position: "A view system should not strictly disallow
//! schizophrenia, but should provide a default instead." We therefore
//! expose the conflict *explicitly* ([`Resolution::Conflict`]) and resolve
//! it under a configurable [`ConflictPolicy`].

use crate::error::{OodbError, Result};
use crate::ids::ClassId;
use crate::schema::{AttrDef, Schema};
use crate::symbol::Symbol;
use crate::types::ClassGraph;

/// The result of upward resolution of `attr` starting at a class.
#[derive(Debug)]
pub enum Resolution<'a> {
    /// Exactly one most-specific definition.
    Found {
        /// The class providing the definition.
        def_in: ClassId,
        /// The definition itself.
        def: &'a AttrDef,
    },
    /// No definition anywhere above.
    NotFound,
    /// Several incomparable most-specific definitions — schizophrenia. The
    /// classes are listed in ascending id (creation) order.
    Conflict(Vec<ClassId>),
}

/// How to pick a definition when resolution is schizophrenic.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ConflictPolicy {
    /// Raise [`OodbError::Schizophrenia`].
    Error,
    /// Pick the definition from the earliest-created class — the paper
    /// mentions "priorities based on creation time" as one proposed
    /// solution; it is our default because it is total and deterministic.
    #[default]
    CreationOrder,
    /// Explicit priority list of class names; the first listed class that
    /// provides a definition wins ("explicitly assigning levels of
    /// priority"). Falls back to creation order if none is listed.
    Priority(Vec<Symbol>),
}

/// Upward resolution of `name` for (an object real in) `class`.
///
/// Finds all classes in `{class} ∪ ancestors(class)` that define `name`
/// themselves, then keeps the minimal ones with respect to the subclass
/// order. Zero → `NotFound`; one → `Found`; several → `Conflict`.
pub fn resolve_attr<'a>(schema: &'a Schema, mut class: ClassId, name: Symbol) -> Resolution<'a> {
    // Up a single-inheritance chain the nearest definition is the only
    // minimal one, and a class that defines nothing resolves like its one
    // parent: no ancestor set to build.
    loop {
        let c = schema.class(class);
        if let Some(def) = c.own_attr(name) {
            return Resolution::Found { def_in: class, def };
        }
        match c.parents.as_slice() {
            [] => return Resolution::NotFound,
            [parent] => class = *parent,
            _ => break,
        }
    }
    let mut defining: Vec<ClassId> = Vec::new();
    for c in schema.ancestors(class) {
        if schema.class(c).own_attr(name).is_some() {
            defining.push(c);
        }
    }
    if defining.is_empty() {
        return Resolution::NotFound;
    }
    let mut minimal: Vec<ClassId> = defining
        .iter()
        .copied()
        .filter(|&c| !defining.iter().any(|&d| d != c && schema.is_subclass(d, c)))
        .collect();
    minimal.sort();
    match minimal.as_slice() {
        [one] => Resolution::Found {
            def_in: *one,
            // Unreachable expect: `minimal` only holds classes that were
            // collected above precisely because they define `name`.
            def: schema.class(*one).own_attr(name).expect("defines it"),
        },
        _ => Resolution::Conflict(minimal),
    }
}

/// Resolution with a conflict policy applied; errors only under
/// [`ConflictPolicy::Error`] (or when the attribute is simply absent).
pub fn resolve_with_policy<'a>(
    schema: &'a Schema,
    class: ClassId,
    name: Symbol,
    policy: &ConflictPolicy,
) -> Result<(ClassId, &'a AttrDef)> {
    match resolve_attr(schema, class, name) {
        Resolution::Found { def_in, def } => Ok((def_in, def)),
        Resolution::NotFound => Err(OodbError::UnknownAttr {
            class: schema.class(class).name,
            attr: name,
        }),
        Resolution::Conflict(candidates) => match policy {
            ConflictPolicy::Error => Err(OodbError::Schizophrenia {
                class: schema.class(class).name,
                attr: name,
                defined_in: candidates.iter().map(|&c| schema.class(c).name).collect(),
            }),
            ConflictPolicy::CreationOrder => {
                let c = candidates[0]; // candidates are id-sorted
                Ok((c, schema.class(c).own_attr(name).expect("defines it")))
            }
            ConflictPolicy::Priority(order) => {
                let chosen = order
                    .iter()
                    .find_map(|n| {
                        let id = schema.class_by_name(*n)?;
                        candidates.contains(&id).then_some(id)
                    })
                    .unwrap_or(candidates[0]);
                Ok((
                    chosen,
                    schema.class(chosen).own_attr(name).expect("defines it"),
                ))
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::AttrDef;
    use crate::symbol::sym;
    use crate::types::Type;
    use crate::value::Value;

    fn print_def() -> AttrDef {
        AttrDef::computed(sym("Print"), Type::Str, Expr::lit(Value::str("…")))
    }

    /// Rich and Senior both define Print; RichSenior inherits from both —
    /// the paper's schizophrenia setting.
    fn schizo_schema() -> (Schema, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let rich = s.add_class(sym("Rich"), &[], vec![print_def()]).unwrap();
        let senior = s.add_class(sym("Senior"), &[], vec![print_def()]).unwrap();
        let both = s
            .add_class(sym("RichSenior"), &[rich, senior], vec![])
            .unwrap();
        (s, rich, senior, both)
    }

    #[test]
    fn upward_resolution_climbs() {
        let mut s = Schema::new();
        let a = s.add_class(sym("A"), &[], vec![print_def()]).unwrap();
        let b = s.add_class(sym("B"), &[a], vec![]).unwrap();
        let c = s.add_class(sym("C"), &[b], vec![]).unwrap();
        match resolve_attr(&s, c, sym("Print")) {
            Resolution::Found { def_in, .. } => assert_eq!(def_in, a),
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn own_definition_shadows_inherited() {
        let mut s = Schema::new();
        let a = s.add_class(sym("A"), &[], vec![print_def()]).unwrap();
        let b = s.add_class(sym("B"), &[a], vec![print_def()]).unwrap();
        match resolve_attr(&s, b, sym("Print")) {
            Resolution::Found { def_in, .. } => assert_eq!(def_in, b),
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn incomparable_definitions_conflict() {
        let (s, rich, senior, both) = schizo_schema();
        match resolve_attr(&s, both, sym("Print")) {
            Resolution::Conflict(cs) => assert_eq!(cs, vec![rich, senior]),
            other => panic!("expected Conflict, got {other:?}"),
        }
    }

    #[test]
    fn redefinition_in_subclass_resolves_the_conflict() {
        // "One can then redefine the conflicting methods in the new class."
        let (mut s, _, _, both) = schizo_schema();
        s.add_attr(both, print_def()).unwrap();
        match resolve_attr(&s, both, sym("Print")) {
            Resolution::Found { def_in, .. } => assert_eq!(def_in, both),
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn policy_error_raises_schizophrenia() {
        let (s, _, _, both) = schizo_schema();
        let err = resolve_with_policy(&s, both, sym("Print"), &ConflictPolicy::Error).unwrap_err();
        assert!(matches!(err, OodbError::Schizophrenia { .. }));
    }

    #[test]
    fn policy_creation_order_is_deterministic() {
        let (s, rich, _, both) = schizo_schema();
        let (c, _) =
            resolve_with_policy(&s, both, sym("Print"), &ConflictPolicy::CreationOrder).unwrap();
        assert_eq!(c, rich);
    }

    #[test]
    fn policy_priority_list_wins() {
        let (s, _, senior, both) = schizo_schema();
        let policy = ConflictPolicy::Priority(vec![sym("Senior"), sym("Rich")]);
        let (c, _) = resolve_with_policy(&s, both, sym("Print"), &policy).unwrap();
        assert_eq!(c, senior);
    }

    #[test]
    fn priority_list_with_no_match_falls_back() {
        let (s, rich, _, both) = schizo_schema();
        let policy = ConflictPolicy::Priority(vec![sym("Unrelated")]);
        let (c, _) = resolve_with_policy(&s, both, sym("Print"), &policy).unwrap();
        assert_eq!(c, rich);
    }

    #[test]
    fn not_found_reports_unknown_attr() {
        let (s, _, _, both) = schizo_schema();
        let err = resolve_with_policy(&s, both, sym("Ghost"), &ConflictPolicy::CreationOrder)
            .unwrap_err();
        assert!(matches!(err, OodbError::UnknownAttr { .. }));
    }

    #[test]
    fn diamond_with_common_root_is_not_a_conflict() {
        // A defines Print; B, C inherit from A; D from B and C. Only one
        // minimal definition (A) exists.
        let mut s = Schema::new();
        let a = s.add_class(sym("A"), &[], vec![print_def()]).unwrap();
        let b = s.add_class(sym("B"), &[a], vec![]).unwrap();
        let c = s.add_class(sym("C"), &[a], vec![]).unwrap();
        let d = s.add_class(sym("D"), &[b, c], vec![]).unwrap();
        assert!(matches!(
            resolve_attr(&s, d, sym("Print")),
            Resolution::Found { def_in, .. } if def_in == a
        ));
    }
}
