//! Hierarchy inference and upward inheritance (§4.2–§4.3).
//!
//! Given the *contributors* of a virtual class (the classes it wholly
//! includes plus the source classes of its population queries), this module
//! computes:
//!
//! * its inferred **superclasses** — rule R1: "if D is a superclass of
//!   C₁…Cₙ, then D is also a superclass of the virtual class C";
//! * its inferred **subclasses** — rule R2: "each Cᵢ is a subclass of C for
//!   1 ≤ i ≤ k" (the wholly-included classes);
//! * its **upward-inherited attributes** — §4.3: an attribute `A` common to
//!   all contributors whose types have a least upper bound τ becomes an
//!   attribute `A : τ` of the virtual class.
//!
//! It also implements the structural test behind **behavioral
//! generalization** (`like B`): "group all classes whose type is at least
//! as specific as the type of B".

use std::collections::{BTreeMap, BTreeSet};

use ov_oodb::{AttrDef, ClassGraph, ClassId, Schema, Symbol, Type};

/// The inferred position of a new virtual class.
#[derive(Debug, PartialEq)]
pub struct InferredPosition {
    /// Direct superclasses for the new class (R1, minimized).
    pub parents: Vec<ClassId>,
    /// Classes that must gain the new class as a direct superclass (R2).
    pub new_subclasses: Vec<ClassId>,
}

/// Applies rules R1/R2.
///
/// Each element of `units` is the *guaranteed superclass set* of one
/// population contributor — the classes every object contributed by that
/// include is certain to belong to:
///
/// * a wholly-included class `Cᵢ` contributes `ancestors(Cᵢ)`;
/// * a `like` match `M` contributes `ancestors(M)`;
/// * a population query contributes the **union** of the ancestor sets of
///   its proved constraints — the projected variable's class *and* every
///   membership conjunct (`P in Beautiful`), since each member satisfies
///   all of them at once. This is how the paper's `Rich&Beautiful` gets
///   both `Rich` and `Beautiful` as superclasses (§4.2).
///
/// R1 then says the new class's superclasses are the classes common to all
/// units; we take the minimal ones (after removing the wholly-included
/// classes, which become *sub*classes via R2).
pub fn infer_position(
    schema: &Schema,
    units: &[Vec<ClassId>],
    wholly_included: &[ClassId],
) -> InferredPosition {
    let parents = match units.split_first() {
        None => Vec::new(),
        Some((first, rest)) => {
            let common: Vec<ClassId> = first
                .iter()
                .copied()
                .filter(|d| rest.iter().all(|unit| unit.contains(d)))
                .filter(|d| !wholly_included.contains(d))
                .collect();
            // Minimize: drop any class with a strictly smaller common
            // superclass.
            let mut minimal = schema.minimal(&common);
            minimal.sort();
            minimal.dedup();
            minimal
        }
    };
    let mut new_subclasses = wholly_included.to_vec();
    new_subclasses.sort();
    new_subclasses.dedup();
    InferredPosition {
        parents,
        new_subclasses,
    }
}

/// Upward inheritance (§4.3): the attributes the virtual class acquires
/// from its contributors. Returns `name → τ` for every zero-parameter
/// attribute visible in **all** contributors whose types have a least upper
/// bound. `visible` is the caller's visible attribute set of a class — for a
/// view, [`ov_oodb::resolve::visible_in`] under its hides and policy.
/// Attributes already provided by `parents` are skipped (ordinary downward
/// inheritance already delivers them).
pub fn upward_attrs<'a>(
    schema: &Schema,
    contributors: &[ClassId],
    parents: &[ClassId],
    visible: &dyn Fn(ClassId) -> BTreeMap<Symbol, (ClassId, &'a AttrDef)>,
) -> BTreeMap<Symbol, Type> {
    let mut out = BTreeMap::new();
    let Some((&first, rest)) = contributors.split_first() else {
        return out;
    };
    let provided: BTreeSet<Symbol> = parents
        .iter()
        .flat_map(|&p| visible(p).into_keys())
        .collect();
    let rest: Vec<_> = rest.iter().map(|&c| visible(c)).collect();
    'attrs: for (name, (_, def)) in visible(first) {
        // Skip if a parent already provides it (standard inheritance).
        if !def.sig.params.is_empty() || provided.contains(&name) {
            continue;
        }
        let mut ty = def.sig.ty.clone();
        for other in &rest {
            let Some((_, other)) = other.get(&name) else {
                continue 'attrs;
            };
            if !other.sig.params.is_empty() {
                continue 'attrs;
            }
            match ty.lub(&other.sig.ty, schema) {
                Some(t) => ty = t,
                None => continue 'attrs, // no least upper bound → undefined
            }
        }
        out.insert(name, ty);
    }
    out
}

/// Behavioral generalization (§4.1): does class `c`'s type conform to the
/// specification class `spec`'s type? True iff every zero-parameter
/// attribute of `spec` exists on `c` at a subtype, and every parameterized
/// attribute of `spec` exists on `c` with contravariant parameters and a
/// covariant result.
pub fn conforms_to(schema: &Schema, c: ClassId, spec: ClassId) -> bool {
    if c == spec {
        // B's type is trivially "at least as specific as" itself; the spec
        // class is a member (usually harmless — spec classes are empty).
        return true;
    }
    let spec_attrs = schema.visible_attrs(spec);
    let c_attrs = schema.visible_attrs(c);
    for (name, (_, spec_def)) in &spec_attrs {
        let Some((_, c_def)) = c_attrs.get(name) else {
            return false;
        };
        if !c_def.sig.ty.is_subtype(&spec_def.sig.ty, schema) {
            return false;
        }
        if c_def.sig.params.len() != spec_def.sig.params.len() {
            return false;
        }
        for ((_, spec_p), (_, c_p)) in spec_def.sig.params.iter().zip(&c_def.sig.params) {
            // Contravariant parameters: the implementation must accept at
            // least what the specification promises.
            if !spec_p.is_subtype(c_p, schema) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::{resolve, sym, ConflictPolicy};

    fn navy() -> (Schema, ClassId, ClassId, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let ship = s
            .add_class(
                sym("Ship"),
                &[],
                vec![AttrDef::stored(sym("Tonnage"), Type::Int)],
            )
            .unwrap();
        let tanker = s
            .add_class(
                sym("Tanker"),
                &[ship],
                vec![AttrDef::stored(sym("Cargo"), Type::Str)],
            )
            .unwrap();
        let trawler = s
            .add_class(
                sym("Trawler"),
                &[ship],
                vec![AttrDef::stored(sym("Cargo"), Type::Str)],
            )
            .unwrap();
        let frigate = s
            .add_class(
                sym("Frigate"),
                &[ship],
                vec![AttrDef::stored(sym("Armament"), Type::Str)],
            )
            .unwrap();
        let cruiser = s
            .add_class(
                sym("Cruiser"),
                &[ship],
                vec![AttrDef::stored(sym("Armament"), Type::Str)],
            )
            .unwrap();
        (s, ship, tanker, trawler, frigate, cruiser)
    }

    #[test]
    fn generalization_finds_common_superclass() {
        // "By rule (1), … Ship is a superclass of … Merchant_Vessel."
        let (s, ship, tanker, trawler, ..) = navy();
        let units = vec![s.ancestors_of(&[tanker]), s.ancestors_of(&[trawler])];
        let pos = infer_position(&s, &units, &[tanker, trawler]);
        assert_eq!(pos.parents, vec![ship]);
        assert_eq!(pos.new_subclasses, vec![tanker, trawler]);
    }

    #[test]
    fn generalization_with_no_common_superclass_is_a_root() {
        let mut s = Schema::new();
        let a = s.add_class(sym("A"), &[], vec![]).unwrap();
        let b = s.add_class(sym("B"), &[], vec![]).unwrap();
        let units = vec![s.ancestors_of(&[a]), s.ancestors_of(&[b])];
        let pos = infer_position(&s, &units, &[a, b]);
        assert!(pos.parents.is_empty());
    }

    #[test]
    fn specialization_source_becomes_parent() {
        // class Adult includes (select P from Person …): Person is the
        // parent and there are no new subclasses.
        let mut s = Schema::new();
        let person = s.add_class(sym("Person"), &[], vec![]).unwrap();
        let pos = infer_position(&s, &[s.ancestors_of(&[person])], &[]);
        assert_eq!(pos.parents, vec![person]);
        assert!(pos.new_subclasses.is_empty());
    }

    #[test]
    fn rich_and_beautiful_multiple_inheritance() {
        // One query with two membership constraints: every member is both
        // Rich and Beautiful, so both become superclasses (§4.2).
        let mut s = Schema::new();
        let rich = s.add_class(sym("Rich"), &[], vec![]).unwrap();
        let beautiful = s.add_class(sym("Beautiful"), &[], vec![]).unwrap();
        let pos = infer_position(&s, &[s.ancestors_of(&[rich, beautiful])], &[]);
        assert_eq!(pos.parents, vec![rich, beautiful]);
    }

    #[test]
    fn mixed_generalization_and_specialization() {
        // Example 2: Government_Supported includes Senior, Student and a
        // selection from Adult. All three descend from Person.
        let mut s = Schema::new();
        let person = s.add_class(sym("Person"), &[], vec![]).unwrap();
        let adult = s.add_class(sym("Adult"), &[person], vec![]).unwrap();
        let senior = s.add_class(sym("Senior"), &[adult], vec![]).unwrap();
        let student = s.add_class(sym("Student"), &[person], vec![]).unwrap();
        let units = vec![
            s.ancestors_of(&[senior]),
            s.ancestors_of(&[student]),
            s.ancestors_of(&[adult]),
        ];
        let pos = infer_position(&s, &units, &[senior, student]);
        assert_eq!(pos.parents, vec![person]);
        assert_eq!(pos.new_subclasses, vec![senior, student]);
    }

    #[test]
    fn upward_inheritance_of_common_attribute() {
        // "if Tanker and Trawler both have an attribute called Cargo, then
        // the class Merchant_Vessel will inherit it."
        let (s, ship, tanker, trawler, frigate, _) = navy();
        let acquired = upward_attrs(&s, &[tanker, trawler], &[ship], &|c| s.visible_attrs(c));
        assert_eq!(acquired.get(&sym("Cargo")), Some(&Type::Str));
        // Tonnage comes from the parent Ship, so it is not re-acquired.
        assert!(!acquired.contains_key(&sym("Tonnage")));
        // Armament is not common to tanker+trawler.
        let none = upward_attrs(&s, &[tanker, frigate], &[ship], &|c| s.visible_attrs(c));
        assert!(!none.contains_key(&sym("Cargo")));
        assert!(!none.contains_key(&sym("Armament")));
    }

    #[test]
    fn upward_inheritance_takes_the_lub() {
        let mut s = Schema::new();
        let a = s
            .add_class(sym("A"), &[], vec![AttrDef::stored(sym("X"), Type::Int)])
            .unwrap();
        let b = s
            .add_class(sym("B"), &[], vec![AttrDef::stored(sym("X"), Type::Float)])
            .unwrap();
        let acquired = upward_attrs(&s, &[a, b], &[], &|c| s.visible_attrs(c));
        assert_eq!(acquired.get(&sym("X")), Some(&Type::Float));
    }

    #[test]
    fn hidden_attributes_do_not_upward_inherit() {
        let (s, ship, tanker, trawler, ..) = navy();
        let unhidden = |_: ClassId, def: &AttrDef| def.sig.name != sym("Cargo");
        let visible = |c| resolve::visible_in(&s, c, &unhidden, &ConflictPolicy::CreationOrder);
        let acquired = upward_attrs(&s, &[tanker, trawler], &[ship], &visible);
        assert!(!acquired.contains_key(&sym("Cargo")));
    }

    #[test]
    fn behavioral_conformance() {
        // class On_Sale_Spec has Price: float, Discount: int.
        let mut s = Schema::new();
        let spec = s
            .add_class(
                sym("On_Sale_Spec"),
                &[],
                vec![
                    AttrDef::stored(sym("Price"), Type::Float),
                    AttrDef::stored(sym("Discount"), Type::Int),
                ],
            )
            .unwrap();
        let car = s
            .add_class(
                sym("Car"),
                &[],
                vec![
                    AttrDef::stored(sym("Price"), Type::Float),
                    AttrDef::stored(sym("Discount"), Type::Int),
                    AttrDef::stored(sym("Brand"), Type::Str),
                ],
            )
            .unwrap();
        let rock = s
            .add_class(
                sym("Rock"),
                &[],
                vec![AttrDef::stored(sym("Price"), Type::Float)],
            )
            .unwrap();
        assert!(conforms_to(&s, car, spec));
        assert!(!conforms_to(&s, rock, spec), "missing Discount");
        assert!(conforms_to(&s, spec, spec), "the spec trivially conforms");
    }

    #[test]
    fn conformance_allows_subtyped_attributes() {
        // Price: int conforms to a spec asking Price: float (Int <: Float).
        let mut s = Schema::new();
        let spec = s
            .add_class(
                sym("Spec"),
                &[],
                vec![AttrDef::stored(sym("Price"), Type::Float)],
            )
            .unwrap();
        let cheap = s
            .add_class(
                sym("Cheap"),
                &[],
                vec![AttrDef::stored(sym("Price"), Type::Int)],
            )
            .unwrap();
        assert!(conforms_to(&s, cheap, spec));
    }
}
