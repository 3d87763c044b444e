//! Class schemas.
//!
//! A schema is "a hierarchy of classes" (§2): each class has a name, a set of
//! direct superclasses (multiple inheritance is allowed), and a set of
//! attribute definitions. Following the paper's central move, **attributes
//! and methods are one notion**: an [`AttrDef`] is either *stored* (a field
//! of the object's tuple value) or *computed* (a body expression evaluated
//! with `self` bound, possibly taking arguments).
//!
//! Redefinition ("overloading", §2) is allowed and checked: a class may
//! redefine an inherited attribute — even switching it between stored and
//! computed, as in the paper's `Employee`/`Manager` `Address` example — as
//! long as the redefined type is a subtype of every inherited type
//! (covariant redefinition).
//!
//! The schema is the home of the hierarchy's one decision, which classes
//! are above which: it keeps each class's ancestor list, the class itself
//! and then its ancestors breadth-first by its parents' order, and
//! maintains it as classes and edges are added. `is_subclass`, `ancestors`
//! and `strict_ancestors` read the list, and [`ClassGraph::minimal`] and
//! [`ClassGraph::ancestors_of`] are built on it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::error::{OodbError, Result};
use crate::expr::Expr;
use crate::ids::ClassId;
use crate::resolve::{self, ConflictPolicy};
use crate::symbol::Symbol;
use crate::types::{ClassGraph, Type};

/// The signature of an attribute: name, optional parameters, result type.
#[derive(Clone, PartialEq, Debug)]
pub struct AttrSig {
    /// The attribute's name.
    pub name: Symbol,
    /// Parameters beyond the receiver ("zero or more arguments (besides the
    /// receiver)", §2). Stored attributes always have none.
    pub params: Vec<(Symbol, Type)>,
    /// The result type.
    pub ty: Type,
}

/// How an attribute obtains its value.
#[derive(Clone, PartialEq, Debug)]
pub enum AttrBody {
    /// Stored in the object's tuple value.
    Stored,
    /// Computed by evaluating the body with `self` (and parameters) bound.
    /// Shared: a resolution hands the body out without copying the tree.
    Computed(Arc<Expr>),
    /// Signature only: the value is resolved dynamically on the object's
    /// own class. Produced by the view layer's *upward inheritance* (§4.3),
    /// where a virtual class acquires an attribute common to all its
    /// contributors; never present in base schemas.
    Abstract,
}

/// An attribute definition — the paper's unified attribute/method notion.
#[derive(Clone, PartialEq, Debug)]
pub struct AttrDef {
    /// Name, parameters, result type.
    pub sig: AttrSig,
    /// Stored, computed, or signature-only.
    pub body: AttrBody,
}

impl AttrDef {
    /// A stored attribute.
    pub fn stored(name: Symbol, ty: Type) -> AttrDef {
        AttrDef {
            sig: AttrSig {
                name,
                params: Vec::new(),
                ty,
            },
            body: AttrBody::Stored,
        }
    }

    /// A computed attribute with no parameters (`has value …`).
    pub fn computed(name: Symbol, ty: Type, body: Expr) -> AttrDef {
        AttrDef {
            sig: AttrSig {
                name,
                params: Vec::new(),
                ty,
            },
            body: AttrBody::Computed(Arc::new(body)),
        }
    }

    /// A computed attribute with parameters — a method, in classical terms.
    pub fn method(name: Symbol, params: Vec<(Symbol, Type)>, ty: Type, body: Expr) -> AttrDef {
        AttrDef {
            sig: AttrSig { name, params, ty },
            body: AttrBody::Computed(Arc::new(body)),
        }
    }

    /// A signature-only attribute (see [`AttrBody::Abstract`]).
    pub fn abstract_sig(name: Symbol, ty: Type) -> AttrDef {
        AttrDef {
            sig: AttrSig {
                name,
                params: Vec::new(),
                ty,
            },
            body: AttrBody::Abstract,
        }
    }

    /// Is this attribute stored?
    pub fn is_stored(&self) -> bool {
        matches!(self.body, AttrBody::Stored)
    }

    /// Is this a signature-only (upward-inherited) attribute?
    pub fn is_abstract(&self) -> bool {
        matches!(self.body, AttrBody::Abstract)
    }
}

/// A class: name, direct superclasses, own attribute definitions.
#[derive(Clone, Debug)]
pub struct Class {
    /// This class's id in its schema.
    pub id: ClassId,
    /// The class name.
    pub name: Symbol,
    /// Direct superclasses.
    pub parents: Vec<ClassId>,
    /// Attributes defined (or redefined) *in this class*.
    pub attrs: Vec<AttrDef>,
}

impl Class {
    /// The definition of `name` given in this class itself, if any.
    pub fn own_attr(&self, name: Symbol) -> Option<&AttrDef> {
        self.attrs.iter().find(|a| a.sig.name == name)
    }
}

/// A class schema: the class table plus the inheritance hierarchy.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    classes: Vec<Class>,
    by_name: HashMap<Symbol, ClassId>,
    /// Direct subclasses, parallel to `classes`.
    children: Vec<Vec<ClassId>>,
    /// Each class's ancestor list, parallel to `classes`: the class itself,
    /// then its strict ancestors breadth-first by its parents' order.
    ancestry: Vec<Vec<ClassId>>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates all classes in creation order.
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.iter()
    }

    /// The class with id `id`.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.0 as usize]
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.by_name.get(&name).copied()
    }

    /// Like [`Schema::class_by_name`] but returns an error naming the class.
    pub fn require_class(&self, name: Symbol) -> Result<ClassId> {
        self.class_by_name(name)
            .ok_or(OodbError::UnknownClass(name))
    }

    /// Creates a class. `parents` must already exist (which keeps the
    /// hierarchy acyclic by construction); attribute redefinitions are
    /// checked for covariance against every inherited definition.
    pub fn add_class(
        &mut self,
        name: Symbol,
        parents: &[ClassId],
        attrs: Vec<AttrDef>,
    ) -> Result<ClassId> {
        if self.by_name.contains_key(&name) {
            return Err(OodbError::DuplicateClass(name));
        }
        for &p in parents {
            if p.0 as usize >= self.classes.len() {
                return Err(OodbError::BadClassId(p));
            }
        }
        let mut seen = HashSet::new();
        for a in &attrs {
            if !seen.insert(a.sig.name) {
                return Err(OodbError::DuplicateAttr {
                    class: name,
                    attr: a.sig.name,
                });
            }
        }
        // Unreachable expect: 2^32 classes would exhaust memory first.
        let id = ClassId(u32::try_from(self.classes.len()).expect("class table overflow"));
        self.classes.push(Class {
            id,
            name,
            parents: parents.to_vec(),
            attrs,
        });
        self.children.push(Vec::new());
        self.ancestry.push(self.breadth_first(id));
        self.by_name.insert(name, id);
        for &p in parents {
            self.children[p.0 as usize].push(id);
        }
        if let Err(e) = self.check_overrides(id) {
            // Roll back so a failed definition leaves the schema unchanged.
            let class = self.classes.pop().expect("just pushed");
            self.children.pop();
            self.ancestry.pop();
            self.by_name.remove(&name);
            for &p in &class.parents {
                self.children[p.0 as usize].retain(|&c| c != id);
            }
            return Err(e);
        }
        Ok(id)
    }

    /// Adds (or redefines) an attribute on an existing class — the paper's
    /// free-standing `attribute A in class C {has value V}` declaration.
    pub fn add_attr(&mut self, class: ClassId, def: AttrDef) -> Result<()> {
        let name = def.sig.name;
        let previous = {
            let c = &mut self.classes[class.0 as usize];
            if let Some(existing) = c.attrs.iter_mut().find(|a| a.sig.name == name) {
                // Redefinition in place (the paper allows re-declaring, e.g.
                // switching Address from stored to computed in a view).
                Some(std::mem::replace(existing, def))
            } else {
                c.attrs.push(def);
                None
            }
        };
        // Covariance against inherited definitions; restore on failure so a
        // rejected declaration leaves the schema unchanged.
        if let Err(e) = self.check_override_of(class, name) {
            let c = &mut self.classes[class.0 as usize];
            match previous {
                Some(old) => {
                    *c.attrs
                        .iter_mut()
                        .find(|a| a.sig.name == name)
                        .expect("present") = old;
                }
                None => c.attrs.retain(|a| a.sig.name != name),
            }
            return Err(e);
        }
        Ok(())
    }

    fn check_overrides(&self, id: ClassId) -> Result<()> {
        let names: Vec<Symbol> = self.class(id).attrs.iter().map(|a| a.sig.name).collect();
        for n in names {
            self.check_override_of(id, n)?;
        }
        Ok(())
    }

    /// Checks that `class`'s own definition of `name` (if any) is a subtype
    /// of every definition inherited from a strict ancestor.
    fn check_override_of(&self, class: ClassId, name: Symbol) -> Result<()> {
        let own = match self.class(class).own_attr(name) {
            Some(d) => d,
            None => return Ok(()),
        };
        for &anc in self.strict_ancestors(class) {
            if let Some(inherited) = self.class(anc).own_attr(name) {
                if !own.sig.ty.is_subtype(&inherited.sig.ty, self) {
                    return Err(OodbError::IncompatibleOverride {
                        class: self.class(class).name,
                        attr: name,
                        parent: self.class(anc).name,
                    });
                }
            }
        }
        Ok(())
    }

    /// Adds a direct superclass edge to an existing class, rejecting cycles.
    /// Used by the view layer when hierarchy inference inserts a virtual
    /// class above existing classes.
    pub fn add_superclass(&mut self, class: ClassId, parent: ClassId) -> Result<()> {
        if class == parent || self.is_subclass(parent, class) {
            return Err(OodbError::CyclicInheritance {
                class: self.class(class).name,
                parent: self.class(parent).name,
            });
        }
        if self.classes[class.0 as usize].parents.contains(&parent) {
            return Ok(());
        }
        self.classes[class.0 as usize].parents.push(parent);
        self.children[parent.0 as usize].push(class);
        // The new edge lengthens the lists of `class` and everything below.
        for c in std::iter::once(class).chain(self.strict_descendants(class)) {
            self.ancestry[c.0 as usize] = self.breadth_first(c);
        }
        Ok(())
    }

    /// `c`, then its strict ancestors breadth-first from the direct
    /// parents, deduplicated: what its stored ancestor list holds. With one
    /// parent that is `c` before the parent's list, which every caller has
    /// built first (a parent exists before its subclass, and a descendant
    /// walk reaches a one-parent class through that parent).
    fn breadth_first(&self, c: ClassId) -> Vec<ClassId> {
        if let [p] = self.class(c).parents[..] {
            return std::iter::once(c)
                .chain(self.ancestry[p.0 as usize].iter().copied())
                .collect();
        }
        let mut seen = HashSet::from([c]);
        let mut out = vec![c];
        let mut queue: VecDeque<ClassId> = self.class(c).parents.iter().copied().collect();
        while let Some(p) = queue.pop_front() {
            if seen.insert(p) {
                out.push(p);
                queue.extend(self.class(p).parents.iter().copied());
            }
        }
        out
    }

    /// All strict ancestors of `c` (excluding `c`), breadth-first from the
    /// direct parents, deduplicated.
    pub fn strict_ancestors(&self, c: ClassId) -> &[ClassId] {
        &self.ancestry[c.0 as usize][1..]
    }

    /// The direct subclasses of `c`, in the order their edges were added.
    pub fn subclasses(&self, c: ClassId) -> &[ClassId] {
        &self.children[c.0 as usize]
    }

    /// All strict descendants of `c` (excluding `c`).
    pub fn strict_descendants(&self, c: ClassId) -> Vec<ClassId> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<ClassId> = self.children[c.0 as usize].iter().copied().collect();
        let mut out = Vec::new();
        while let Some(d) = queue.pop_front() {
            if seen.insert(d) {
                out.push(d);
                queue.extend(self.children[d.0 as usize].iter().copied());
            }
        }
        out
    }

    /// The *visible attribute set* of class `c`: every attribute name
    /// reachable by upward resolution, mapped to the definition
    /// [`crate::resolve`] picks for an object real in `c` — the most
    /// specific one, several incomparable ones (schizophrenia) decided by
    /// creation order, the default a base database's queries read.
    pub fn visible_attrs(&self, c: ClassId) -> BTreeMap<Symbol, (ClassId, &AttrDef)> {
        resolve::visible_in(self, c, &resolve::every, &ConflictPolicy::CreationOrder)
    }

    /// The tuple *type* of class `c`: all visible zero-parameter attributes.
    /// This is the type used for behavioral generalization (`like B`) and
    /// structural subtype checks.
    pub fn class_type(&self, c: ClassId) -> Type {
        resolve::class_type_in(self, c, &resolve::every, &ConflictPolicy::CreationOrder)
    }

    /// The names of *stored* attributes visible on `c` — the shape of the
    /// tuple value a real object of `c` carries (the unique-root rule's
    /// "fixed set of attributes", §4.2).
    pub fn stored_attr_types(&self, c: ClassId) -> BTreeMap<Symbol, Type> {
        self.visible_attrs(c)
            .into_iter()
            .filter(|(_, (_, def))| def.is_stored())
            .map(|(name, (_, def))| (name, def.sig.ty.clone()))
            .collect()
    }
}

impl ClassGraph for Schema {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.ancestry[sub.0 as usize].contains(&sup)
    }

    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        self.ancestry[c.0 as usize].clone()
    }

    fn class_name(&self, c: ClassId) -> Symbol {
        self.class(c).name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn person_schema() -> (Schema, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let person = s
            .add_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        let employee = s
            .add_class(
                sym("Employee"),
                &[person],
                vec![
                    AttrDef::stored(sym("Salary"), Type::Int),
                    AttrDef::stored(sym("Address"), Type::Str),
                ],
            )
            .unwrap();
        let manager = s
            .add_class(
                sym("Manager"),
                &[employee],
                vec![AttrDef::stored(sym("Budget"), Type::Int)],
            )
            .unwrap();
        (s, person, employee, manager)
    }

    #[test]
    fn subclass_relation_is_transitive_and_reflexive() {
        let (s, person, employee, manager) = person_schema();
        assert!(s.is_subclass(manager, person));
        assert!(s.is_subclass(manager, manager));
        assert!(!s.is_subclass(person, manager));
        assert!(s.is_subclass(employee, person));
    }

    #[test]
    fn duplicate_class_rejected() {
        let (mut s, ..) = person_schema();
        let err = s.add_class(sym("Person"), &[], vec![]).unwrap_err();
        assert_eq!(err, OodbError::DuplicateClass(sym("Person")));
    }

    #[test]
    fn duplicate_attr_in_one_class_rejected() {
        let mut s = Schema::new();
        let err = s
            .add_class(
                sym("C"),
                &[],
                vec![
                    AttrDef::stored(sym("X"), Type::Int),
                    AttrDef::stored(sym("X"), Type::Str),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, OodbError::DuplicateAttr { .. }));
    }

    #[test]
    fn visible_attrs_inherit_downward() {
        let (s, _, _, manager) = person_schema();
        let attrs = s.visible_attrs(manager);
        let names: Vec<&str> = attrs.keys().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["Address", "Age", "Budget", "Name", "Salary"]);
    }

    #[test]
    fn override_must_be_covariant() {
        let mut s = Schema::new();
        let a = s
            .add_class(sym("A"), &[], vec![AttrDef::stored(sym("X"), Type::Int)])
            .unwrap();
        // Redefining X at a *supertype* (Float ⊇ Int is fine: Int <: Float).
        let ok = s.add_class(sym("B"), &[a], vec![AttrDef::stored(sym("X"), Type::Int)]);
        assert!(ok.is_ok());
        // Redefining X at an unrelated type is rejected and rolled back.
        let err = s
            .add_class(sym("C"), &[a], vec![AttrDef::stored(sym("X"), Type::Str)])
            .unwrap_err();
        assert!(matches!(err, OodbError::IncompatibleOverride { .. }));
        assert!(
            s.class_by_name(sym("C")).is_none(),
            "failed add must roll back"
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn stored_computed_overloading_as_in_paper() {
        // "attribute Address in class Employee; attribute Address in class
        // Manager has value self.Company.Address." (§2)
        let (mut s, _, _, manager) = person_schema();
        s.add_attr(
            manager,
            AttrDef::computed(
                sym("Address"),
                Type::Str,
                Expr::attr(Expr::self_attr("Company"), "Address"),
            ),
        )
        .unwrap();
        let attrs = s.visible_attrs(manager);
        let (def_in, def) = attrs[&sym("Address")];
        assert_eq!(s.class(def_in).name, sym("Manager"));
        assert!(!def.is_stored());
        // Employee still stores it.
        let employee = s.class_by_name(sym("Employee")).unwrap();
        assert!(s.visible_attrs(employee)[&sym("Address")].1.is_stored());
    }

    #[test]
    fn an_override_is_checked_against_ancestors_breadth_first() {
        // `B` has the larger id, but it is `H`'s first parent: the check
        // meets `B` first and names it.
        let mut s = Schema::new();
        let a = s
            .add_class(sym("A"), &[], vec![AttrDef::stored(sym("X"), Type::Int)])
            .unwrap();
        let b = s
            .add_class(sym("B"), &[], vec![AttrDef::stored(sym("X"), Type::Int)])
            .unwrap();
        let err = s
            .add_class(
                sym("H"),
                &[b, a],
                vec![AttrDef::stored(sym("X"), Type::Str)],
            )
            .unwrap_err();
        assert_eq!(
            err,
            OodbError::IncompatibleOverride {
                class: sym("H"),
                attr: sym("X"),
                parent: sym("B"),
            }
        );
    }

    #[test]
    fn add_superclass_rejects_cycles() {
        let (mut s, person, _, manager) = person_schema();
        let err = s.add_superclass(person, manager).unwrap_err();
        assert!(matches!(err, OodbError::CyclicInheritance { .. }));
        assert!(s.add_superclass(person, person).is_err());
    }

    #[test]
    fn add_superclass_mid_hierarchy() {
        // The paper inserts Merchant_Vessel between Ship and Tanker/Trawler.
        let mut s = Schema::new();
        let ship = s.add_class(sym("Ship"), &[], vec![]).unwrap();
        let tanker = s.add_class(sym("Tanker"), &[ship], vec![]).unwrap();
        let trawler = s.add_class(sym("Trawler"), &[ship], vec![]).unwrap();
        let merchant = s
            .add_class(sym("Merchant_Vessel"), &[ship], vec![])
            .unwrap();
        s.add_superclass(tanker, merchant).unwrap();
        s.add_superclass(trawler, merchant).unwrap();
        assert!(s.is_subclass(tanker, merchant));
        assert!(s.is_subclass(merchant, ship));
        assert!(s.is_subclass(tanker, ship));
    }

    #[test]
    fn class_type_is_structural() {
        let (s, person, ..) = person_schema();
        assert_eq!(
            s.class_type(person),
            Type::tuple([("Age", Type::Int), ("Name", Type::Str)])
        );
    }

    #[test]
    fn class_type_excludes_parameterized_attributes() {
        let mut s = Schema::new();
        let c = s
            .add_class(
                sym("Acct"),
                &[],
                vec![
                    AttrDef::stored(sym("Balance"), Type::Int),
                    AttrDef::method(
                        sym("Projected"),
                        vec![(sym("years"), Type::Int)],
                        Type::Int,
                        Expr::self_attr("Balance"),
                    ),
                ],
            )
            .unwrap();
        assert_eq!(s.class_type(c), Type::tuple([("Balance", Type::Int)]));
    }

    #[test]
    fn diamond_visible_attrs_prefer_more_specific() {
        // D < B < A, D < C < A; B redefines X; resolution on D must pick B's.
        let mut s = Schema::new();
        let a = s
            .add_class(sym("A"), &[], vec![AttrDef::stored(sym("X"), Type::Float)])
            .unwrap();
        let b = s
            .add_class(sym("B"), &[a], vec![AttrDef::stored(sym("X"), Type::Int)])
            .unwrap();
        let c = s.add_class(sym("C"), &[a], vec![]).unwrap();
        let d = s.add_class(sym("D"), &[b, c], vec![]).unwrap();
        let attrs = s.visible_attrs(d);
        let (def_in, def) = attrs[&sym("X")];
        assert_eq!(def_in, b);
        assert_eq!(def.sig.ty, Type::Int);
    }

    #[test]
    fn strict_descendants_cover_the_subtree() {
        let (s, person, employee, manager) = person_schema();
        let mut d = s.strict_descendants(person);
        d.sort();
        assert_eq!(d, vec![employee, manager]);
        assert!(s.strict_descendants(manager).is_empty());
    }
}
