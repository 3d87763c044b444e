//! How a bound view types its classes, rendered by name for the stacking
//! tests to compare across the views of a stack, and the walk of its schema
//! below an imported class that the import-subtree test takes as its
//! oracle. A child of `view` (declared there, kept with the tests) so it
//! can read the view's schema.

use super::*;

/// Each class by name, with the view that declares it and a rendering of
/// how it is typed; then the hides ([`View::typing`]).
pub(crate) type Typing = (BTreeMap<Symbol, (Option<Symbol>, String)>, BTreeSet<String>);

impl View {
    /// How this view types each class, by name: the view that declares it
    /// (`None`: imported from a database) and a rendering of its parents,
    /// own attributes and types, kind and hidden flag; then its hides.
    pub(crate) fn typing(&self) -> Typing {
        let schema = self.schema.read();
        let (kinds, virt) = (self.kinds.read(), self.virt.read());
        let name = |c: ClassId| schema.class(c).name;
        let classes = schema
            .classes()
            .map(|class| {
                let declarer = virt.get(&class.id).map(|p| match p {
                    Populated::Here(_) => self.name,
                    Populated::Upstream(up, _) => self.upstreams[*up].name,
                });
                let parents: Vec<Symbol> = class.parents.iter().map(|&p| name(p)).collect();
                let attrs: Vec<String> = class
                    .attrs
                    .iter()
                    .map(|a| {
                        let params: Vec<String> = a
                            .sig
                            .params
                            .iter()
                            .map(|(p, t)| format!("{p}: {}", t.display(&*schema)))
                            .collect();
                        format!(
                            "{}({params:?}): {} = {:?}",
                            a.sig.name,
                            a.sig.ty.display(&*schema),
                            a.body
                        )
                    })
                    .collect();
                let kind = match &kinds[&class.id] {
                    ClassKind::Imported { .. } => "imported".to_string(),
                    other => format!("{other:?}"),
                };
                let hidden = self.is_hidden_class(class.id);
                let entry = format!("parents {parents:?} attrs {attrs:?} {kind} hidden {hidden}");
                (class.name, (declarer, entry))
            })
            .collect();
        let mut hides: BTreeSet<String> = self
            .hidden_attrs
            .iter()
            .map(|&(c, a)| format!("{}.{a}", name(c)))
            .collect();
        hides.extend(self.hidden_classes.iter().map(|&c| name(c).to_string()));
        (classes, hides)
    }

    /// Each imported class, with the union of the source extents of the
    /// imported classes at or below it in this view's schema, and the kinds
    /// of the other classes there: the walk of the view's schema that
    /// `DataSource::extent` made before it read an import's subtree.
    pub(crate) fn walked_imports(&self) -> Vec<(ClassId, Vec<Oid>, Vec<String>)> {
        let schema = self.schema.read();
        let kinds = self.kinds.read();
        let mut walked = Vec::new();
        for class in schema.classes().map(|c| c.id) {
            if !matches!(kinds[&class], ClassKind::Imported { .. }) {
                continue;
            }
            let (mut oids, mut passed) = (Vec::new(), Vec::new());
            for d in std::iter::once(class).chain(schema.strict_descendants(class)) {
                match &kinds[&d] {
                    ClassKind::Imported { source, orig } => {
                        oids.extend(self.sources[*source].read().store.extent(*orig));
                    }
                    other => passed.push(format!("{other:?}")),
                }
            }
            oids.sort();
            oids.dedup();
            walked.push((class, oids, passed));
        }
        walked
    }
}
