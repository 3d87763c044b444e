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
//!
//! This module is the one place that rule lives, in three steps: (1) take
//! the classes above an object's root classes that define the name and
//! pass the caller's [`Filter`]; (2) keep the most specific; (3) let the
//! [`ConflictPolicy`] decide among several. Typing and evaluation differ
//! only in the filter — evaluation skips the abstract signatures
//! ([`concrete`]) that typing a view's virtual class counts, and a view
//! drops what its hides cover — so the type checker, a class's stored
//! shape and the evaluator pick one definition.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{OodbError, Result};
use crate::ids::ClassId;
use crate::schema::{AttrDef, Schema};
use crate::symbol::Symbol;
use crate::types::{ClassGraph, Type};

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

/// Step 1's filter: does the definition a class gives a name count?
pub type Filter<'a> = dyn Fn(ClassId, &AttrDef) -> bool + 'a;

/// The filter of static typing on a base schema: every definition counts.
pub fn every(_: ClassId, _: &AttrDef) -> bool {
    true
}

/// The filter of evaluation on a base database: an abstract signature has
/// no value to read, so only stored and computed definitions count.
pub fn concrete(_: ClassId, def: &AttrDef) -> bool {
    !def.is_abstract()
}

/// Upward resolution of `name` for (an object real in) `class`: steps 1
/// and 2 of the rule with every definition counting. Zero most specific
/// definitions → `NotFound`; one → `Found`; several → `Conflict`.
pub fn resolve_attr<'a>(schema: &'a Schema, class: ClassId, name: Symbol) -> Resolution<'a> {
    most_specific(schema, &[class], name, &every)
}

/// [`resolve_attr`] with step 3 applied; errors only under
/// [`ConflictPolicy::Error`] (or when the attribute is simply absent).
pub fn resolve_with_policy<'a>(
    schema: &'a Schema,
    class: ClassId,
    name: Symbol,
    policy: &ConflictPolicy,
) -> Result<(ClassId, &'a AttrDef)> {
    resolve_in(schema, &[class], name, &every, policy)
}

/// The rule: the definition of `name` for an object whose resolution
/// starts at `roots` (non-empty), counting only definitions that pass
/// `keep`. [`OodbError::UnknownAttr`] when none counts,
/// [`OodbError::Schizophrenia`] when `policy` refuses to choose.
pub fn resolve_in<'a>(
    schema: &'a Schema,
    roots: &[ClassId],
    name: Symbol,
    keep: &Filter<'_>,
    policy: &ConflictPolicy,
) -> Result<(ClassId, &'a AttrDef)> {
    let found = most_specific(schema, roots, name, keep);
    decide(schema, roots[0], name, found, policy)
}

/// The visible attribute set of `class`: every name it can resolve,
/// mapped to the definition [`resolve_in`] picks under `keep` and
/// `policy`. A name whose conflict the policy refuses is left out.
pub fn visible_in<'a>(
    schema: &'a Schema,
    class: ClassId,
    keep: &Filter<'_>,
    policy: &ConflictPolicy,
) -> BTreeMap<Symbol, (ClassId, &'a AttrDef)> {
    let mut out = BTreeMap::new();
    // Up a single-inheritance chain the nearest counted definition of each
    // name is the one the rule picks: no ancestor set to build.
    let mut c = class;
    let above = loop {
        let cls = schema.class(c);
        for def in cls.attrs.iter().filter(|d| keep(c, d)) {
            out.entry(def.sig.name).or_insert((c, def));
        }
        match cls.parents.as_slice() {
            [] => return out,
            [parent] => c = *parent,
            _ => break schema.ancestors_of(&[c]),
        }
    };
    // Names defined below the first multiple-inheritance point are more
    // specific than anything above it; the rest go through the whole rule.
    let names: BTreeSet<Symbol> = above
        .iter()
        .flat_map(|&a| schema.class(a).attrs.iter().map(|d| d.sig.name))
        .filter(|n| !out.contains_key(n))
        .collect();
    for name in names {
        let found = among(schema, &above, name, keep);
        if let Ok(found) = decide(schema, class, name, found, policy) {
            out.insert(name, found);
        }
    }
    out
}

/// The tuple type of `class` under `keep` and `policy`: its visible
/// zero-parameter attributes.
pub fn class_type_in(
    schema: &Schema,
    class: ClassId,
    keep: &Filter<'_>,
    policy: &ConflictPolicy,
) -> Type {
    Type::Tuple(
        visible_in(schema, class, keep, policy)
            .into_iter()
            .filter(|(_, (_, def))| def.sig.params.is_empty())
            .map(|(name, (_, def))| (name, def.sig.ty.clone()))
            .collect(),
    )
}

/// Steps 1 and 2 from `roots`. Generic over the filter so that
/// [`resolve_attr`]'s [`every`] costs nothing.
fn most_specific<'a, F: Fn(ClassId, &AttrDef) -> bool + ?Sized>(
    schema: &'a Schema,
    roots: &[ClassId],
    name: Symbol,
    keep: &F,
) -> Resolution<'a> {
    let &[mut class] = roots else {
        return among(schema, &schema.ancestors_of(roots), name, keep);
    };
    // Up a single-inheritance chain the nearest counted definition is the
    // only most specific one, and a class whose definition does not count
    // resolves like its one parent: no ancestor set to build.
    loop {
        let c = schema.class(class);
        if let Some(def) = c.own_attr(name).filter(|d| keep(class, d)) {
            return Resolution::Found { def_in: class, def };
        }
        match c.parents.as_slice() {
            [] => return Resolution::NotFound,
            [parent] => class = *parent,
            _ => return among(schema, &schema.ancestors_of(&[class]), name, keep),
        }
    }
}

/// Steps 1 and 2 over `classes` (ascending id order, closed upward).
fn among<'a, F: Fn(ClassId, &AttrDef) -> bool + ?Sized>(
    schema: &'a Schema,
    classes: &[ClassId],
    name: Symbol,
    keep: &F,
) -> Resolution<'a> {
    let defining: Vec<ClassId> = classes
        .iter()
        .copied()
        .filter(|&c| schema.class(c).own_attr(name).is_some_and(|d| keep(c, d)))
        .collect();
    let minimal = schema.minimal(&defining);
    match minimal.as_slice() {
        [] => Resolution::NotFound,
        // Unreachable expect: `minimal` only holds classes defining `name`.
        [one] => Resolution::Found {
            def_in: *one,
            def: schema.class(*one).own_attr(name).expect("defines it"),
        },
        _ => Resolution::Conflict(minimal),
    }
}

/// Step 3: the definition `policy` picks from steps 1 and 2's answer for
/// an object presenting as `root`.
fn decide<'a>(
    schema: &'a Schema,
    root: ClassId,
    name: Symbol,
    found: Resolution<'a>,
    policy: &ConflictPolicy,
) -> Result<(ClassId, &'a AttrDef)> {
    let candidates = match found {
        Resolution::Found { def_in, def } => return Ok((def_in, def)),
        Resolution::NotFound => {
            return Err(OodbError::UnknownAttr {
                class: schema.class(root).name,
                attr: name,
            })
        }
        Resolution::Conflict(candidates) => candidates,
    };
    // Candidates are in ascending id (creation) order.
    let chosen = match policy {
        ConflictPolicy::Error => {
            return Err(OodbError::Schizophrenia {
                class: schema.class(root).name,
                attr: name,
                defined_in: candidates.iter().map(|&c| schema.class(c).name).collect(),
            })
        }
        ConflictPolicy::CreationOrder => candidates[0],
        ConflictPolicy::Priority(order) => order
            .iter()
            .find_map(|n| {
                let id = schema.class_by_name(*n)?;
                candidates.contains(&id).then_some(id)
            })
            .unwrap_or(candidates[0]),
    };
    // Unreachable expect: every candidate defines `name`.
    let def = schema.class(chosen).own_attr(name).expect("defines it");
    Ok((chosen, def))
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

    #[test]
    fn a_definition_the_filter_drops_resolves_like_its_parent() {
        let mut s = Schema::new();
        let a = s.add_class(sym("A"), &[], vec![print_def()]).unwrap();
        let b = s.add_class(sym("B"), &[a], vec![print_def()]).unwrap();
        let c = s.add_class(sym("C"), &[b], vec![]).unwrap();
        let not_b = |def_in: ClassId, _: &AttrDef| def_in != b;
        let policy = ConflictPolicy::Error;
        let (def_in, _) = resolve_in(&s, &[c], sym("Print"), &not_b, &policy).unwrap();
        assert_eq!(def_in, a);
        assert_eq!(visible_in(&s, c, &not_b, &policy)[&sym("Print")].0, a);
    }

    #[test]
    fn the_visible_set_picks_what_resolution_picks() {
        // `E inherits C, B`, B created first: creation order picks B's
        // definition wherever the parents are listed.
        let mut s = Schema::new();
        let b = s.add_class(sym("B"), &[], vec![print_def()]).unwrap();
        let c = s.add_class(sym("C"), &[], vec![print_def()]).unwrap();
        let e = s.add_class(sym("E"), &[c, b], vec![]).unwrap();
        let below = s.add_class(sym("Below"), &[e], vec![]).unwrap();
        for policy in [
            ConflictPolicy::CreationOrder,
            ConflictPolicy::Priority(vec![sym("C")]),
        ] {
            for class in [e, below] {
                let (def_in, _) = resolve_with_policy(&s, class, sym("Print"), &policy).unwrap();
                let visible = visible_in(&s, class, &every, &policy);
                assert_eq!(visible[&sym("Print")].0, def_in);
            }
        }
        assert_eq!(s.visible_attrs(e)[&sym("Print")].0, b);
        // Under `Error` the conflicting name is not visible at all.
        assert!(visible_in(&s, e, &every, &ConflictPolicy::Error).is_empty());
    }
}
