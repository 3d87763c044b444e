//! Property tests: the type lattice. Subtyping must be a preorder and the
//! lub must actually be an upper bound — upward inheritance (paper §4.3)
//! silently depends on both.

use ov_oodb::types::NoClasses;
use ov_oodb::{sym, ClassGraph, ClassId, Schema, Type};
use proptest::prelude::*;

fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Any),
        Just(Type::Nothing),
        Just(Type::Bool),
        Just(Type::Int),
        Just(Type::Float),
        Just(Type::Str),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::set),
            inner.clone().prop_map(Type::list),
            prop::collection::btree_map("[A-Z][a-z]{0,4}".prop_map(|s| sym(&s)), inner, 0..3)
                .prop_map(Type::Tuple),
        ]
    })
}

proptest! {
    #[test]
    fn subtyping_is_reflexive(t in arb_type()) {
        prop_assert!(t.is_subtype(&t, &NoClasses));
    }

    #[test]
    fn subtyping_is_transitive(a in arb_type(), b in arb_type(), c in arb_type()) {
        let g = NoClasses;
        if a.is_subtype(&b, &g) && b.is_subtype(&c, &g) {
            prop_assert!(a.is_subtype(&c, &g));
        }
    }

    #[test]
    fn lub_is_an_upper_bound(a in arb_type(), b in arb_type()) {
        let g = NoClasses;
        // Structural types always have a lub (no class ambiguity possible).
        let l = a.lub(&b, &g).expect("structural lub exists");
        prop_assert!(a.is_subtype(&l, &g), "{a:?} </: {l:?}");
        prop_assert!(b.is_subtype(&l, &g), "{b:?} </: {l:?}");
    }

    #[test]
    fn lub_is_commutative(a in arb_type(), b in arb_type()) {
        let g = NoClasses;
        prop_assert_eq!(a.lub(&b, &g), b.lub(&a, &g));
    }

    #[test]
    fn lub_is_idempotent(a in arb_type()) {
        let g = NoClasses;
        prop_assert_eq!(a.lub(&a, &g), Some(a.clone()));
    }

    #[test]
    fn glb_is_a_lower_bound_when_defined(a in arb_type(), b in arb_type()) {
        let g = NoClasses;
        if let Some(l) = a.glb(&b, &g) {
            prop_assert!(l.is_subtype(&a, &g), "{l:?} </: {a:?}");
            prop_assert!(l.is_subtype(&b, &g), "{l:?} </: {b:?}");
        }
    }

    /// Subtype pairs agree with lub: a <: b  ⟺  lub(a,b) = b (for
    /// structural types).
    #[test]
    fn subtype_iff_lub_is_upper(a in arb_type(), b in arb_type()) {
        let g = NoClasses;
        if a.is_subtype(&b, &g) {
            prop_assert_eq!(a.lub(&b, &g), Some(b.clone()));
        }
    }
}

// Random class DAGs: `is_subclass` must be a partial order and agree with
// `ancestors`.
proptest! {
    #[test]
    fn class_hierarchy_is_a_partial_order(
        // parents[i] ⊆ {0..i}: guarantees acyclicity by construction.
        parent_picks in prop::collection::vec(prop::collection::vec(any::<prop::sample::Index>(), 0..3), 1..12)
    ) {
        let mut schema = Schema::new();
        let mut ids = Vec::new();
        for (i, picks) in parent_picks.iter().enumerate() {
            let parents: Vec<_> = if ids.is_empty() {
                Vec::new()
            } else {
                let mut p: Vec<_> = picks
                    .iter()
                    .map(|ix| ids[ix.index(ids.len())])
                    .collect();
                p.sort();
                p.dedup();
                p
            };
            let id = schema
                .add_class(sym(&format!("C{i}_{}", parent_picks.len())), &parents, vec![])
                .unwrap();
            ids.push(id);
        }
        for &a in &ids {
            prop_assert!(schema.is_subclass(a, a));
            for &b in &ids {
                // Antisymmetry: mutual subclassing implies equality.
                if schema.is_subclass(a, b) && schema.is_subclass(b, a) {
                    prop_assert_eq!(a, b);
                }
                // ancestors agrees with is_subclass.
                prop_assert_eq!(
                    schema.ancestors(a).contains(&b),
                    schema.is_subclass(a, b)
                );
                for &c in &ids {
                    if schema.is_subclass(a, b) && schema.is_subclass(b, c) {
                        prop_assert!(schema.is_subclass(a, c));
                    }
                }
            }
        }
    }

    /// The ancestor lists a schema keeps follow its edges: random DAGs grow
    /// by classes and by `add_superclass` edges, some of which close a
    /// cycle and must be refused without a trace, and after every step the
    /// lists, `minimal` and `ancestors_of` agree with references computed
    /// here from `class(c).parents` alone.
    #[test]
    fn stored_ancestor_lists_follow_the_edges(
        steps in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(any::<prop::sample::Index>(), 0..3)),
            1..16,
        ),
        subsets in prop::collection::vec(prop::collection::vec(any::<prop::sample::Index>(), 0..5), 4),
    ) {
        let mut schema = Schema::new();
        let mut ids: Vec<ClassId> = Vec::new();
        for (i, (edge, picks)) in steps.iter().enumerate() {
            let picked: Vec<ClassId> = match ids.len() {
                0 => Vec::new(),
                n => picks.iter().map(|ix| ids[ix.index(n)]).collect(),
            };
            if *edge && picked.len() >= 2 {
                let (class, parent) = (picked[0], picked[1]);
                let before: Vec<_> = ids.iter().map(|&c| (schema.class(c).parents.clone(), schema.ancestors(c))).collect();
                let cycle = class == parent || bfs(&schema, parent).contains(&class);
                let added = schema.add_superclass(class, parent);
                prop_assert_eq!(added.is_err(), cycle);
                if cycle {
                    let after: Vec<_> = ids.iter().map(|&c| (schema.class(c).parents.clone(), schema.ancestors(c))).collect();
                    prop_assert_eq!(before, after);
                }
            } else {
                // Unsorted, so the parents' order is exercised.
                let mut parents = Vec::new();
                for p in picked {
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
                let id = schema.add_class(sym(&format!("D{i}_{}", steps.len())), &parents, vec![]).unwrap();
                ids.push(id);
            }
            for &c in &ids {
                prop_assert_eq!(schema.ancestors(c), bfs(&schema, c));
            }
            for subset in &subsets {
                let set: Vec<ClassId> = subset.iter().map(|ix| ids[ix.index(ids.len())]).collect();
                let all_pairs: Vec<ClassId> = set
                    .iter()
                    .copied()
                    .filter(|&c| !set.iter().any(|&d| d != c && bfs(&schema, d).contains(&c)))
                    .collect();
                prop_assert_eq!(schema.minimal(&set), all_pairs);
                let mut union: Vec<ClassId> = set.iter().flat_map(|&c| bfs(&schema, c)).collect();
                union.sort();
                union.dedup();
                prop_assert_eq!(schema.ancestors_of(&set), union);
            }
        }
    }
}

/// `c`, then its strict ancestors breadth-first by `class(c).parents`,
/// each once: the reference for the schema's stored lists.
fn bfs(schema: &Schema, c: ClassId) -> Vec<ClassId> {
    let mut out = vec![c];
    let mut queue: std::collections::VecDeque<ClassId> =
        schema.class(c).parents.iter().copied().collect();
    while let Some(p) = queue.pop_front() {
        if !out.contains(&p) {
            out.push(p);
            queue.extend(schema.class(p).parents.iter().copied());
        }
    }
    out
}
