//! Binding: turning a [`ViewDef`] into a bound [`View`] — import expansion,
//! hides, attribute and virtual-class definitions, and the instantiation of
//! parameterized classes. A child of `view` so it can fill in the view's
//! private fields; nothing here runs on the read path.

use super::*;

impl ViewDef {
    /// Starts a builder-style bind against `system` (mirrors
    /// [`ViewOptions::builder`]): chain [`Binder::options`] and
    /// [`Binder::over`], then call [`Binder::bind`].
    pub fn binder<'a>(&'a self, system: &'a System) -> Binder<'a> {
        Binder {
            def: self,
            system,
            options: ViewOptions::default(),
            upstream: HashMap::new(),
        }
    }
}

/// The definition of a view, flattened for binding: upstream view imports
/// expanded into their own (base) imports and elements, each element tagged
/// with the view it came from (`None` = the definition being bound).
struct ExpandedDef {
    imports: Vec<Import>,
    elements: Vec<(ViewElement, Option<Symbol>)>,
    /// Direct dependency targets of the root definition, in import order.
    direct: Vec<crate::graph::DepTarget>,
}

/// Builder-style binding of a [`ViewDef`] (the bind-side mirror of
/// [`ViewOptions::builder`]):
///
/// ```ignore
/// let view = def
///     .binder(&system)
///     .options(ViewOptions::builder().materialization(Materialization::AlwaysRecompute).build())
///     .over(&upstream_def) // resolve `import … from view Upstream`
///     .bind()?;
/// ```
///
/// `over` registers upstream view definitions so the bound view may import
/// *views*, not just databases: an import whose name matches a registered
/// definition is expanded in place — the upstream's own imports and
/// elements are spliced in (deduplicated, depth first) ahead of this
/// definition's elements, so its virtual classes are queryable, delta
/// retests flow through them level by level, and the next read through
/// any level sees a change to the shared base. Cycles among definitions are
/// rejected here, at bind time.
pub struct Binder<'a> {
    def: &'a ViewDef,
    system: &'a System,
    options: ViewOptions,
    upstream: HashMap<Symbol, &'a ViewDef>,
}

impl<'a> Binder<'a> {
    /// Sets the view options (default: [`ViewOptions::default`]).
    pub fn options(mut self, options: ViewOptions) -> Self {
        self.options = options;
        self
    }

    /// Registers one upstream view definition that imports may resolve to.
    pub fn over(mut self, upstream: &'a ViewDef) -> Self {
        self.upstream.insert(upstream.name, upstream);
        self
    }

    /// Registers several upstream view definitions at once.
    pub fn over_all(mut self, defs: impl IntoIterator<Item = &'a ViewDef>) -> Self {
        for def in defs {
            self.upstream.insert(def.name, def);
        }
        self
    }

    /// Expands view imports recursively. `stack` is the chain of views
    /// being expanded (cycle guard), `spliced` the set already merged in
    /// (diamond dedup).
    fn expand_into(
        def: &ViewDef,
        upstream: &HashMap<Symbol, &'a ViewDef>,
        stack: &mut Vec<Symbol>,
        spliced: &mut BTreeSet<Symbol>,
        out: &mut ExpandedDef,
    ) -> Result<()> {
        let root = stack.is_empty();
        stack.push(def.name);
        for import in &def.imports {
            if stack.contains(&import.db) {
                let mut path = stack.clone();
                path.push(import.db);
                return Err(ViewError::CyclicViewDependency {
                    view: stack[0],
                    path,
                });
            }
            if let Some(updef) = upstream.get(&import.db) {
                if !matches!(import.what, ov_query::ImportWhat::AllClasses) {
                    return Err(ViewError::Definition(format!(
                        "`{}` is a view; only `import all classes` is supported from a view",
                        import.db
                    )));
                }
                if root {
                    out.direct.push(crate::graph::DepTarget::View(import.db));
                }
                if spliced.insert(import.db) {
                    Self::expand_into(updef, upstream, stack, spliced, out)?;
                }
            } else {
                if root {
                    out.direct
                        .push(crate::graph::DepTarget::Database(import.db));
                }
                if !out.imports.contains(import) {
                    out.imports.push(import.clone());
                }
            }
        }
        let origin = if root { None } else { Some(def.name) };
        for element in &def.elements {
            out.elements.push((element.clone(), origin));
        }
        stack.pop();
        Ok(())
    }

    /// Binds the definition, producing a queryable [`View`].
    pub fn bind(self) -> Result<View> {
        use crate::graph::{DepEdge, DepTarget};
        let def = self.def;
        let _span = ov_oodb::span!("view.bind", view = def.name);
        ov_oodb::failpoint!("view.bind");
        let mut expanded = ExpandedDef {
            imports: Vec::new(),
            elements: Vec::new(),
            direct: Vec::new(),
        };
        Self::expand_into(
            def,
            &self.upstream,
            &mut Vec::new(),
            &mut BTreeSet::new(),
            &mut expanded,
        )?;
        let options = self.options;
        let mut view = View {
            token: NEXT_VIEW_TOKEN.fetch_add(1, Ordering::Relaxed),
            name: def.name,
            schema: RwLock::new(Schema::new()),
            kinds: RwLock::new(HashMap::new()),
            virt: RwLock::new(HashMap::new()),
            sources: Vec::new(),
            durable: Vec::new(),
            import_maps: Vec::new(),
            hidden_attrs: Vec::new(),
            hidden_classes: HashSet::new(),
            templates: HashMap::new(),
            instances: RwLock::new(HashMap::new()),
            pop_cache: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            identity: RwLock::new(HashMap::new()),
            imaginary: RwLock::new(HashMap::new()),
            next_imaginary: AtomicU64::new(IMAGINARY_OID_BASE),
            policy: options.policy,
            materialization: options.materialization,
            identity_mode: options.identity_mode,
            stats: StatCells::default(),
            res_gen: AtomicU64::new(0),
            verdicts: RwLock::default(),
            deps: Vec::new(),
            delta_decided: RwLock::default(),
        };
        // Which dependency target defined each class name the view can
        // read: imported classes map to their database, spliced virtual
        // classes to the upstream view that declared them. The view's own
        // declarations are deliberately absent — reading your own class is
        // not a dependency.
        let mut provenance: HashMap<Symbol, DepTarget> = HashMap::new();
        // Class names read through each edge; seeded so every direct
        // import target appears even when no class of it is referenced.
        let mut dep_classes: BTreeMap<DepTarget, BTreeSet<Symbol>> = expanded
            .direct
            .iter()
            .map(|t| (*t, BTreeSet::new()))
            .collect();
        for import in &expanded.imports {
            let visible = view.do_import(self.system, import)?;
            for name in visible {
                provenance.insert(name, DepTarget::Database(import.db));
            }
        }
        for (element, origin) in &expanded.elements {
            if origin.is_none() {
                // Extract what this element reads *before* defining it, so
                // self-references don't count and forward references fail
                // in `define_*` exactly as they always did.
                for name in element_reads(&view, element) {
                    if let Some(&target) = provenance.get(&name) {
                        dep_classes.entry(target).or_default().insert(name);
                    }
                }
            }
            match element {
                ViewElement::VirtualClass(vc) => {
                    if vc.params.is_empty() {
                        view.define_virtual_class(vc.name, &vc.includes)?;
                    } else {
                        view.templates.insert(
                            vc.name,
                            ParamTemplate {
                                params: vc.params.clone(),
                                includes: vc.includes.clone(),
                            },
                        );
                    }
                    if let Some(up) = origin {
                        provenance.insert(vc.name, DepTarget::View(*up));
                    }
                }
                ViewElement::Attribute(decl) => view.define_attribute(decl)?,
                ViewElement::Hide(h) => view.add_hide(h)?,
            }
        }
        view.deps = dep_classes
            .into_iter()
            .map(|(on, classes)| DepEdge { on, classes })
            .collect();
        // Every definition is in: decide which classes a delta decides,
        // in definition order, so each class's includes are decided first.
        let mut virtuals: Vec<ClassId> = view.virt.read().keys().copied().collect();
        virtuals.sort_unstable();
        for c in virtuals {
            view.decide_delta(c);
        }
        // With every class defined, re-adopt identity assignments an
        // earlier incarnation of this view persisted (§5.1 across
        // restarts).
        view.adopt_durable_identity();
        Ok(view)
    }
}

/// The class names one view element reads, resolved with the same scoping
/// as the typechecker (see [`ov_query::referenced_classes`]). Run against
/// the partially-bound view, which at this point holds everything declared
/// *before* the element — exactly the names it may legally read.
fn element_reads(view: &View, element: &ViewElement) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    match element {
        ViewElement::VirtualClass(vc) => {
            for inc in &vc.includes {
                match inc {
                    IncludeSpec::Class(n) | IncludeSpec::Like(n) => {
                        out.insert(*n);
                    }
                    IncludeSpec::Query(q) | IncludeSpec::Imaginary(q) => {
                        let mut env = TypeEnv::new();
                        // Parameters of a parameterized class shadow
                        // class names inside its includes.
                        for p in &vc.params {
                            env.bind(*p, Type::Any);
                        }
                        ov_query::referenced_classes_select(view, &mut env, q, &mut out);
                    }
                }
            }
        }
        ViewElement::Attribute(decl) => {
            out.insert(decl.class);
            if let Some(body) = &decl.body {
                let mut env = TypeEnv::new();
                for (p, _) in &decl.params {
                    env.bind(*p, Type::Any);
                }
                ov_query::referenced_classes(view, &mut env, body, &mut out);
            }
        }
        ViewElement::Hide(Hide::Attrs { class, .. }) | ViewElement::Hide(Hide::Class(class)) => {
            out.insert(*class);
        }
    }
    out
}

impl View {
    // ------------------------------------------------------------------
    // Binding internals
    // ------------------------------------------------------------------

    /// Imports one specification, returning the class names it made
    /// visible (the binder records their provenance for the dependency
    /// graph).
    fn do_import(&mut self, system: &System, import: &Import) -> Result<Vec<Symbol>> {
        let handle = system.database(import.db)?;
        let source_idx = self.sources.len();
        let db = handle.read();
        if let Some(core) = db.durable_core() {
            if !self.durable.iter().any(|c| Arc::ptr_eq(c, &core)) {
                self.durable.push(core);
            }
        }
        let mut map: HashMap<ClassId, ClassId> = HashMap::new();
        let mut visible: Vec<Symbol> = Vec::new();
        // Which source classes come in, in creation (= topological) order?
        let roots: Vec<(ClassId, Option<Symbol>)> = match &import.what {
            ov_query::ImportWhat::AllClasses => db.schema.classes().map(|c| (c.id, None)).collect(),
            ov_query::ImportWhat::Class { name, alias } => {
                let root = db.schema.require_class(*name)?;
                // "When classes are imported, they become visible together
                // with their subclasses" (§3).
                let mut ids: Vec<ClassId> = vec![root];
                ids.extend(db.schema.strict_descendants(root));
                ids.sort(); // creation order ⇒ parents before children
                ids.into_iter()
                    .map(|c| (c, if c == root { *alias } else { None }))
                    .collect()
            }
        };
        let imported: HashSet<ClassId> = roots.iter().map(|(c, _)| *c).collect();
        // Phase 1: create the view classes (no attributes yet) so that
        // class-typed attributes can be remapped even across forward and
        // self references.
        for (src_class, alias) in &roots {
            let source = db.schema.class(*src_class);
            let view_name = alias.unwrap_or(source.name);
            let parents: Vec<ClassId> = source
                .parents
                .iter()
                .filter_map(|p| map.get(p).copied())
                .collect();
            let mut schema = self.schema.write();
            let id = schema
                .add_class(view_name, &parents, Vec::new())
                .map_err(|e| match e {
                    OodbError::DuplicateClass(n) => ViewError::ImportConflict {
                        name: n,
                        db: import.db,
                    },
                    other => ViewError::Oodb(other),
                })?;
            drop(schema);
            visible.push(view_name);
            map.insert(*src_class, id);
            self.kinds.write().insert(
                id,
                ClassKind::Imported {
                    source: source_idx,
                    orig: *src_class,
                },
            );
        }
        // Phase 2: attributes. Each imported class carries its own
        // definitions plus — *flattened* — everything it inherits from
        // ancestors that were NOT imported (a partial import must not lose
        // inherited structure).
        for (src_class, _) in &roots {
            let view_id = map[src_class];
            let visible = db.schema.visible_attrs(*src_class);
            let mut defs: Vec<AttrDef> = Vec::new();
            for (_, (def_in, def)) in visible {
                if def_in == *src_class || !imported.contains(&def_in) {
                    defs.push(self.remap_attr(def.clone(), &map));
                }
            }
            let mut schema = self.schema.write();
            for def in defs {
                schema.add_attr(view_id, def)?;
            }
        }
        drop(db);
        self.sources.push(handle);
        let mut presented = vec![None; map.keys().map(|c| c.0 as usize + 1).max().unwrap_or(0)];
        for (src_class, view_class) in map {
            presented[src_class.0 as usize] = Some(view_class);
        }
        self.import_maps.push(presented);
        Ok(visible)
    }

    /// Rewrites source class ids inside an attribute signature to view
    /// class ids. References to classes that were not imported degrade to
    /// `any` (the objects stay reachable; their class is just not named in
    /// this view).
    fn remap_attr(&self, mut def: AttrDef, map: &HashMap<ClassId, ClassId>) -> AttrDef {
        def.sig.ty = remap_type(&def.sig.ty, map);
        for (_, t) in &mut def.sig.params {
            *t = remap_type(t, map);
        }
        def
    }

    fn add_hide(&mut self, hide: &Hide) -> Result<()> {
        let _span = ov_oodb::span!("view.hide");
        let schema = self.schema.read();
        match hide {
            Hide::Attrs { attrs, class } => {
                let c = schema.require_class(*class)?;
                for &a in attrs {
                    if !schema.visible_attrs(c).contains_key(&a) {
                        return Err(OodbError::UnknownAttr {
                            class: *class,
                            attr: a,
                        }
                        .into());
                    }
                    self.hidden_attrs.push((c, a));
                }
            }
            Hide::Class(name) => {
                let c = schema.require_class(*name)?;
                self.hidden_classes.insert(c);
                for d in schema.strict_descendants(c) {
                    self.hidden_classes.insert(d);
                }
            }
        }
        Ok(())
    }

    fn define_attribute(&self, decl: &AttrDecl) -> Result<()> {
        let class_id = self
            .lookup_class(decl.class)
            .ok_or(OodbError::UnknownClass(decl.class))?;
        let param_tys: Vec<(Symbol, Type)> = {
            let schema = self.schema.read();
            decl.params
                .iter()
                .map(|(p, t)| Ok((*p, resolve_type(t, &schema).map_err(ViewError::from)?)))
                .collect::<Result<_>>()?
        };
        let declared = {
            let schema = self.schema.read();
            decl.ty
                .as_ref()
                .map(|t| resolve_type(t, &schema).map_err(ViewError::from))
                .transpose()?
        };
        match &decl.body {
            None => {
                // Bodiless declaration: the attribute must already exist as
                // a stored attribute (re-declaring it stored, as the paper's
                // `attribute Address in class Employee;`). A *new* stored
                // attribute cannot be declared in a view — a view "has no
                // proper data of its own" (§3).
                let schema = self.schema.read();
                let exists_stored = schema
                    .visible_attrs(class_id)
                    .get(&decl.name)
                    .is_some_and(|(_, def)| def.is_stored());
                if exists_stored {
                    Ok(())
                } else {
                    Err(ViewError::Definition(format!(
                        "`attribute {} in class {}` without `has value` must re-declare an \
                         existing stored attribute; views cannot store new data",
                        decl.name, decl.class
                    )))
                }
            }
            Some(body) => {
                let ty = match declared {
                    Some(t) => t,
                    None => {
                        // Inference with `self : Class(c)` (§2: types are
                        // inferred when omitted).
                        let mut env = TypeEnv::with_self(Type::Class(class_id));
                        for (p, t) in &param_tys {
                            env.bind(*p, t.clone());
                        }
                        ov_query::infer(self, &mut env, body).map_err(ViewError::from)?
                    }
                };
                // Bodies evaluate per attribute access: optimize once here.
                let def = AttrDef::method(decl.name, param_tys, ty, ov_query::optimize_expr(body));
                self.schema.write().add_attr(class_id, def)?;
                Ok(())
            }
        }
    }

    /// Defines a virtual class from its include list: binds the includes,
    /// infers position (R1/R2), creates the class, adds upward-inherited
    /// attributes. Shared by bind-time definitions and parameterized-class
    /// instantiation.
    fn define_virtual_class(&self, name: Symbol, includes: &[IncludeSpec]) -> Result<ClassId> {
        let n_imaginary = includes
            .iter()
            .filter(|i| matches!(i, IncludeSpec::Imaginary(_)))
            .count();
        if n_imaginary > 1 || (n_imaginary == 1 && includes.len() > 1) {
            return Err(ViewError::MixedImaginary(name));
        }
        let mut wholly: Vec<ClassId> = Vec::new();
        // Guaranteed-superclass units, one per contributor (see
        // `infer::infer_position`).
        let mut units: Vec<Vec<ClassId>> = Vec::new();
        let mut bound: Vec<Include> = Vec::new();
        let mut imaginary_core: Option<BTreeMap<Symbol, Type>> = None;
        for inc in includes {
            match inc {
                IncludeSpec::Class(n) => {
                    let c = self.lookup_class(*n).ok_or(OodbError::UnknownClass(*n))?;
                    wholly.push(c);
                    units.push(crate::infer::unit_of(&self.schema.read(), &[c]));
                    bound.push(Include::Class(c));
                }
                IncludeSpec::Like(n) => {
                    let spec = self.lookup_class(*n).ok_or(OodbError::UnknownClass(*n))?;
                    let schema = self.schema.read();
                    for class in schema.classes() {
                        if !self.is_hidden_class(class.id) && conforms_to(&schema, class.id, spec) {
                            wholly.push(class.id);
                            units.push(crate::infer::unit_of(&schema, &[class.id]));
                        }
                    }
                    bound.push(Include::Like { spec });
                }
                IncludeSpec::Query(q) => {
                    let ty =
                        infer_select_in(self, &mut TypeEnv::new(), q).map_err(ViewError::from)?;
                    let mut constraints: Vec<ClassId> = Vec::new();
                    match &ty {
                        Type::Set(elem) => match &**elem {
                            Type::Class(c) => constraints.push(*c),
                            Type::Any | Type::Nothing => {}
                            other => {
                                return Err(ViewError::NonObjectPopulation {
                                    class: name,
                                    found: format!("{other:?}"),
                                })
                            }
                        },
                        other => {
                            return Err(ViewError::NonObjectPopulation {
                                class: name,
                                found: format!("{other:?}"),
                            })
                        }
                    }
                    // "The type system detects that every object in this
                    // class is both in Rich and in Beautiful" (§4.2): filter
                    // conjuncts `X in C` / `X isa C` on the projected
                    // variable are additional guaranteed superclasses.
                    constraints.extend(self.membership_conjunct_sources(q));
                    units.push(crate::infer::unit_of(&self.schema.read(), &constraints));
                    // Population queries run on every (re)computation:
                    // fold their constants once, at definition time.
                    bound.push(self.bind_query(ov_query::optimize_select(q), false));
                }
                IncludeSpec::Imaginary(q) => {
                    let ty =
                        infer_select_in(self, &mut TypeEnv::new(), q).map_err(ViewError::from)?;
                    let core = match &ty {
                        Type::Set(elem) => match &**elem {
                            Type::Tuple(fields) => fields.clone(),
                            other => {
                                return Err(ViewError::NonTuplePopulation {
                                    class: name,
                                    found: format!("{other:?}"),
                                })
                            }
                        },
                        other => {
                            return Err(ViewError::NonTuplePopulation {
                                class: name,
                                found: format!("{other:?}"),
                            })
                        }
                    };
                    imaginary_core = Some(core);
                    bound.push(self.bind_query(ov_query::optimize_select(q), true));
                }
            }
        }
        wholly.sort();
        wholly.dedup();
        // Contributors for upward inheritance: every class that directly
        // feeds the population (wholly-included classes plus the primary
        // constraint classes of queries).
        let contributors: Vec<ClassId> = {
            let mut v: Vec<ClassId> = units
                .iter()
                .flat_map(|u| {
                    // The minimal classes of each unit are the classes the
                    // contributor actually is (not their superclasses).
                    let schema = self.schema.read();
                    let u2 = u.clone();
                    u.iter()
                        .copied()
                        .filter(|&c| !u2.iter().any(|&d| d != c && schema.is_subclass(d, c)))
                        .collect::<Vec<_>>()
                })
                .collect();
            v.sort();
            v.dedup();
            v
        };
        // Which contributors and parents (all drawn from the units) type
        // through abstract signatures, read before the schema lock is taken.
        let virtuals: HashSet<ClassId> = units
            .iter()
            .flatten()
            .copied()
            .filter(|&c| self.types_abstractly(c))
            .collect();
        // Position by R1/R2 and create the class.
        let class_id = {
            let mut schema = self.schema.write();
            let pos = infer_position(&schema, &units, &wholly);
            // Imaginary classes: core attributes become the class's stored
            // shape ("we call Husband and Wife the *core attributes*", §5).
            let attrs: Vec<AttrDef> = match &imaginary_core {
                Some(core) => core
                    .iter()
                    .map(|(n, t)| AttrDef::stored(*n, t.clone()))
                    .collect(),
                None => Vec::new(),
            };
            let id = schema.add_class(name, &pos.parents, attrs)?;
            for &sub in &pos.new_subclasses {
                schema.add_superclass(sub, id)?;
            }
            // Upward inheritance (§4.3) over all contributors, each typed
            // through the view's own rule.
            let visible = |c| {
                let keep = self.counts(&schema, virtuals.contains(&c));
                resolve::visible_in(&schema, c, &keep, &self.policy)
            };
            let acquired = upward_attrs(&schema, &contributors, &pos.parents, &visible);
            for (attr_name, ty) in acquired {
                if schema.class(id).own_attr(attr_name).is_none() {
                    schema.add_attr(id, AttrDef::abstract_sig(attr_name, ty))?;
                }
            }
            id
        };
        self.kinds.write().insert(
            class_id,
            match imaginary_core {
                Some(core) => ClassKind::Imaginary {
                    core: core.keys().copied().collect(),
                },
                None => ClassKind::Virtual,
            },
        );
        self.virt.write().insert(class_id, bound.into());
        Ok(class_id)
    }

    /// Binds a population query. The canonical shape — one binding over a
    /// class name, no `the`; a specialization `select V from V in C [where
    /// F]` projects its variable, an imaginary class `select E from V in C
    /// [where F]` anything — becomes a [`ScanInclude`], its filter and
    /// projection compiled here, once; population scans and delta retests
    /// reuse the programs. Any other query stays whole.
    fn bind_query(&self, q: SelectExpr, imaginary: bool) -> Include {
        let canonical = match q.bindings.as_slice() {
            [(var, Expr::Name(coll))] if !q.the && (imaginary || *q.proj == Expr::Name(*var)) => {
                self.lookup_class(*coll).map(|class| (class, *coll, *var))
            }
            _ => None,
        };
        let Some((class, coll, var)) = canonical else {
            return if imaginary {
                Include::ImaginaryQuery(q)
            } else {
                Include::Query(q)
            };
        };
        let compile = |e: &Expr| ov_query::compile_predicate(e, &[var]);
        let scan = ScanInclude {
            class,
            coll,
            var,
            filter: q.filter.as_deref().map(compile),
            proj: (*q.proj != Expr::Name(var)).then(|| compile(&q.proj)),
            query: q,
        };
        if imaginary {
            Include::Imaginary(scan)
        } else {
            Include::Filter(scan)
        }
    }

    /// Extracts extra population sources from membership conjuncts in the
    /// filter: for `select P from Rich where P in Beautiful`, returns
    /// `[Beautiful]`.
    fn membership_conjunct_sources(&self, q: &SelectExpr) -> Vec<ClassId> {
        let Expr::Name(var) = &*q.proj else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack: Vec<&Expr> = q.filter.iter().map(|b| &**b).collect();
        while let Some(e) = stack.pop() {
            match e {
                Expr::Binary {
                    op: ov_oodb::BinOp::And,
                    lhs,
                    rhs,
                } => {
                    stack.push(lhs);
                    stack.push(rhs);
                }
                Expr::Binary {
                    op: ov_oodb::BinOp::In,
                    lhs,
                    rhs,
                } => {
                    if let (Expr::Name(v), Expr::Name(class)) = (&**lhs, &**rhs) {
                        if v == var {
                            if let Some(c) = self.lookup_class(*class) {
                                out.push(c);
                            }
                        }
                    }
                }
                Expr::IsA { expr, class } => {
                    if let Expr::Name(v) = &**expr {
                        if v == var {
                            if let Some(c) = self.lookup_class(*class) {
                                out.push(c);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Instantiates a parameterized class (`Resident("France")`), creating
    /// and caching the instance class on first use (§4.1: "classes
    /// automatically disappear or are created").
    pub fn instantiate(&self, name: Symbol, args: &[Value]) -> Result<ClassId> {
        let template = self
            .templates
            .get(&name)
            .ok_or(OodbError::UnknownClass(name))?;
        if template.params.len() != args.len() {
            return Err(ViewError::ParamArity {
                class: name,
                expected: template.params.len(),
                got: args.len(),
            });
        }
        let key = (name, args.to_vec());
        // Hold the write lock across the check *and* the definition:
        // two threads instantiating `Adult(18)` concurrently must not both
        // define the synthesized class. Lock order is instances → schema;
        // nothing acquires `instances` while holding the schema lock.
        let mut instances = self.instances.write();
        if let Some(&c) = instances.get(&key) {
            return Ok(c);
        }
        // Substitute parameters by value and define as a regular virtual
        // class under a synthesized name.
        let params = template.params.clone();
        let substituted: Vec<IncludeSpec> = template
            .includes
            .iter()
            .map(|inc| substitute_include(inc, &params, args))
            .collect();
        let mut instance_name = format!("{name}(");
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                instance_name.push_str(", ");
            }
            instance_name.push_str(&a.to_string());
        }
        instance_name.push(')');
        let class = self.define_virtual_class(Symbol::new(&instance_name), &substituted)?;
        self.decide_delta(class);
        instances.insert(key, class);
        // The schema grew: `Param(x)` names now resolve where they didn't,
        // so any warm compiled-scan resolution caches must be refreshed.
        self.res_gen.fetch_add(1, Ordering::Release);
        Ok(class)
    }
}

/// Rewrites parameter references to literal values inside an include spec.
fn substitute_include(inc: &IncludeSpec, params: &[Symbol], args: &[Value]) -> IncludeSpec {
    let subst = |e: &Expr| -> Option<Expr> {
        if let Expr::Name(n) = e {
            if let Some(i) = params.iter().position(|p| p == n) {
                return Some(Expr::Lit(args[i].clone()));
            }
        }
        None
    };
    match inc {
        IncludeSpec::Query(q) => IncludeSpec::Query(ov_query::map_select(q, &mut { subst })),
        IncludeSpec::Imaginary(q) => {
            IncludeSpec::Imaginary(ov_query::map_select(q, &mut { subst }))
        }
        other => other.clone(),
    }
}

/// Rewrites class references in a type through an import map; unimported
/// classes degrade to `any`.
fn remap_type(ty: &Type, map: &HashMap<ClassId, ClassId>) -> Type {
    match ty {
        Type::Class(c) => match map.get(c) {
            Some(v) => Type::Class(*v),
            None => Type::Any,
        },
        Type::Tuple(fields) => Type::Tuple(
            fields
                .iter()
                .map(|(n, t)| (*n, remap_type(t, map)))
                .collect(),
        ),
        Type::Set(t) => Type::set(remap_type(t, map)),
        Type::List(t) => Type::list(remap_type(t, map)),
        other => other.clone(),
    }
}
