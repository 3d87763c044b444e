//! View definitions.
//!
//! A [`ViewDef`] is the *unbound* form of a view: the paper's
//!
//! ```text
//! create view My_View;
//! { import and hide specifications }
//! { class and method definitions }
//! { hide specifications }
//! ```
//!
//! (§3). It can be written programmatically through the builder methods or
//! parsed from the textual DDL with [`ViewDef::from_script`]. Binding it
//! against a [`ov_oodb::System`] produces a queryable
//! [`crate::View`].

use std::fmt::Write as _;

use ov_oodb::{Expr, Symbol};
use ov_query::{parse_program, ImportWhat, IncludeSpec, Stmt, TypeExpr};

use crate::error::{Result, ViewError};

/// One import specification (§3).
#[derive(Clone, PartialEq, Debug)]
pub struct Import {
    /// Source database name.
    pub db: Symbol,
    /// All classes, or one class (with its subclasses).
    pub what: ImportWhat,
}

/// One hide specification (§3).
#[derive(Clone, PartialEq, Debug)]
pub enum Hide {
    /// `hide attribute A in class C` — hides the definitions of `A` in `C`
    /// **and all its subclasses**.
    Attrs {
        /// The attributes to hide.
        attrs: Vec<Symbol>,
        /// The class at (and below) which they are hidden.
        class: Symbol,
    },
    /// `hide class C` — removes `C` (and its proper subtree) from the
    /// view's name space.
    Class(Symbol),
}

/// A virtual class declaration (§4/§5).
#[derive(Clone, PartialEq, Debug)]
pub struct VirtualClassDef {
    /// The virtual class's name.
    pub name: Symbol,
    /// Non-empty for parameterized classes (`class Adult(A) includes …`).
    pub params: Vec<Symbol>,
    /// The population includes (§4.1/§5).
    pub includes: Vec<IncludeSpec>,
}

/// An attribute declaration inside a view (§2): virtual attributes,
/// overloading, methods.
#[derive(Clone, PartialEq, Debug)]
pub struct AttrDecl {
    /// The attribute's name.
    pub name: Symbol,
    /// Parameters (methods), usually empty.
    pub params: Vec<(Symbol, TypeExpr)>,
    /// Declared type; inferred when absent.
    pub ty: Option<TypeExpr>,
    /// The class the attribute is (re)defined in.
    pub class: Symbol,
    /// `has value` body; a bodiless declaration re-declares the attribute
    /// as stored (only meaningful on imported classes that store it).
    pub body: Option<Expr>,
}

/// Ordered view elements after the import section. Order matters: a virtual
/// class may be defined over classes (virtual or imported) declared before
/// it, and hides apply from their position on.
#[derive(Clone, PartialEq, Debug)]
pub enum ViewElement {
    /// A virtual class declaration.
    VirtualClass(VirtualClassDef),
    /// A virtual attribute / method declaration.
    Attribute(AttrDecl),
    /// A hide specification.
    Hide(Hide),
}

/// An unbound view definition.
#[derive(Clone, PartialEq, Debug)]
pub struct ViewDef {
    /// The view's name.
    pub name: Symbol,
    /// The import section (applied first, in order).
    pub imports: Vec<Import>,
    /// Classes, attributes and hides, applied in order.
    pub elements: Vec<ViewElement>,
}

impl ViewDef {
    /// A new, empty view definition.
    pub fn new(name: impl Into<Symbol>) -> ViewDef {
        ViewDef {
            name: name.into(),
            imports: Vec::new(),
            elements: Vec::new(),
        }
    }

    /// `import all classes from database db`.
    pub fn import_all(mut self, db: impl Into<Symbol>) -> ViewDef {
        self.imports.push(Import {
            db: db.into(),
            what: ImportWhat::AllClasses,
        });
        self
    }

    /// `import class name from database db`.
    pub fn import_class(mut self, db: impl Into<Symbol>, name: impl Into<Symbol>) -> ViewDef {
        self.imports.push(Import {
            db: db.into(),
            what: ImportWhat::Class {
                name: name.into(),
                alias: None,
            },
        });
        self
    }

    /// `hide attribute attr in class class`.
    pub fn hide_attr(mut self, class: impl Into<Symbol>, attr: impl Into<Symbol>) -> ViewDef {
        self.elements.push(ViewElement::Hide(Hide::Attrs {
            attrs: vec![attr.into()],
            class: class.into(),
        }));
        self
    }

    /// `hide class class`.
    pub fn hide_class(mut self, class: impl Into<Symbol>) -> ViewDef {
        self.elements
            .push(ViewElement::Hide(Hide::Class(class.into())));
        self
    }

    /// Adds a virtual class declaration.
    pub fn virtual_class(mut self, name: impl Into<Symbol>, includes: Vec<IncludeSpec>) -> ViewDef {
        self.elements
            .push(ViewElement::VirtualClass(VirtualClassDef {
                name: name.into(),
                params: Vec::new(),
                includes,
            }));
        self
    }

    /// `attribute name in class class has value body` (type inferred).
    pub fn virtual_attr(
        mut self,
        class: impl Into<Symbol>,
        name: impl Into<Symbol>,
        body: Expr,
    ) -> ViewDef {
        self.elements.push(ViewElement::Attribute(AttrDecl {
            name: name.into(),
            params: Vec::new(),
            ty: None,
            class: class.into(),
            body: Some(body),
        }));
        self
    }

    /// Adds a full attribute declaration.
    pub fn attribute(mut self, decl: AttrDecl) -> ViewDef {
        self.elements.push(ViewElement::Attribute(decl));
        self
    }

    /// Parses a complete view-definition script — the paper's general
    /// structure of §3 — into a `ViewDef`. The script must begin with
    /// `create view Name;`.
    pub fn from_script(src: &str) -> Result<ViewDef> {
        let stmts = parse_program(src).map_err(ViewError::from)?;
        Self::from_stmts(&stmts)
    }

    /// Renders the definition back to DDL text; `from_script ∘ to_script`
    /// is the identity (tested below), so view definitions are persistable
    /// artifacts just like database dumps.
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "create view {};", self.name);
        for import in &self.imports {
            match &import.what {
                ImportWhat::AllClasses => {
                    let _ = writeln!(out, "import all classes from database {};", import.db);
                }
                ImportWhat::Class { name, alias } => {
                    let _ = write!(out, "import class {name} from database {}", import.db);
                    if let Some(a) = alias {
                        let _ = write!(out, " as {a}");
                    }
                    let _ = writeln!(out, ";");
                }
            }
        }
        for element in &self.elements {
            match element {
                ViewElement::Hide(Hide::Attrs { attrs, class }) => {
                    let _ = write!(
                        out,
                        "hide {} ",
                        if attrs.len() == 1 {
                            "attribute"
                        } else {
                            "attributes"
                        }
                    );
                    for (i, a) in attrs.iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, ", ");
                        }
                        let _ = write!(out, "{a}");
                    }
                    let _ = writeln!(out, " in class {class};");
                }
                ViewElement::Hide(Hide::Class(c)) => {
                    let _ = writeln!(out, "hide class {c};");
                }
                ViewElement::VirtualClass(vc) => {
                    let _ = write!(out, "class {}", vc.name);
                    if !vc.params.is_empty() {
                        let _ = write!(out, "(");
                        for (i, p) in vc.params.iter().enumerate() {
                            if i > 0 {
                                let _ = write!(out, ", ");
                            }
                            let _ = write!(out, "{p}");
                        }
                        let _ = write!(out, ")");
                    }
                    let _ = write!(out, " includes ");
                    for (i, inc) in vc.includes.iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, ", ");
                        }
                        match inc {
                            IncludeSpec::Class(n) => {
                                let _ = write!(out, "{n}");
                            }
                            IncludeSpec::Like(n) => {
                                let _ = write!(out, "like {n}");
                            }
                            IncludeSpec::Query(q) => {
                                let _ = write!(out, "({q})");
                            }
                            IncludeSpec::Imaginary(q) => {
                                let _ = write!(out, "imaginary ({q})");
                            }
                        }
                    }
                    let _ = writeln!(out, ";");
                }
                ViewElement::Attribute(decl) => {
                    let _ = write!(out, "attribute {}", decl.name);
                    if !decl.params.is_empty() {
                        let _ = write!(out, "(");
                        for (i, (p, t)) in decl.params.iter().enumerate() {
                            if i > 0 {
                                let _ = write!(out, ", ");
                            }
                            let _ = write!(out, "{p}: {t}");
                        }
                        let _ = write!(out, ")");
                    }
                    if let Some(t) = &decl.ty {
                        let _ = write!(out, " of type {t}");
                    }
                    let _ = write!(out, " in class {}", decl.class);
                    if let Some(body) = &decl.body {
                        let _ = write!(out, " has value {body}");
                    }
                    let _ = writeln!(out, ";");
                }
            }
        }
        out
    }

    /// Builds a `ViewDef` from parsed statements.
    pub fn from_stmts(stmts: &[Stmt]) -> Result<ViewDef> {
        let mut it = stmts.iter();
        let name = match it.next() {
            Some(Stmt::CreateView(n)) => *n,
            other => {
                return Err(ViewError::Definition(format!(
                    "a view script must begin with `create view Name;`, found {other:?}"
                )))
            }
        };
        let mut def = ViewDef::new(name);
        for stmt in it {
            match stmt {
                Stmt::Import { what, db } => def.imports.push(Import {
                    db: *db,
                    what: what.clone(),
                }),
                Stmt::HideAttrs { attrs, class } => {
                    def.elements.push(ViewElement::Hide(Hide::Attrs {
                        attrs: attrs.clone(),
                        class: *class,
                    }))
                }
                Stmt::HideClass(c) => def.elements.push(ViewElement::Hide(Hide::Class(*c))),
                Stmt::VirtualClassDecl {
                    name,
                    params,
                    includes,
                } => def
                    .elements
                    .push(ViewElement::VirtualClass(VirtualClassDef {
                        name: *name,
                        params: params.clone(),
                        includes: includes.clone(),
                    })),
                Stmt::AttributeDecl {
                    name,
                    params,
                    ty,
                    class,
                    body,
                } => def.elements.push(ViewElement::Attribute(AttrDecl {
                    name: *name,
                    params: params.clone(),
                    ty: ty.clone(),
                    class: *class,
                    body: body.clone(),
                })),
                Stmt::CreateView(_) => {
                    return Err(ViewError::Definition(
                        "nested `create view` inside a view script".into(),
                    ))
                }
                other => {
                    return Err(ViewError::Definition(format!(
                        "statement not allowed in a view definition: {other:?}"
                    )))
                }
            }
        }
        Ok(def)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    #[test]
    fn parses_the_papers_general_structure() {
        let def = ViewDef::from_script(
            r#"
            create view My_View;
            import all classes from database Chrysler;
            import class Person from database Ford as Ford_Person;
            class Adult includes (select P from Person where P.Age >= 21);
            attribute Address in class Person has value
                [City: self.City, Street: self.Street];
            hide attribute Salary in class Employee;
            "#,
        )
        .unwrap();
        assert_eq!(def.name, sym("My_View"));
        assert_eq!(def.imports.len(), 2);
        assert_eq!(def.elements.len(), 3);
        assert!(matches!(def.elements[0], ViewElement::VirtualClass(_)));
        assert!(matches!(def.elements[1], ViewElement::Attribute(_)));
        assert!(matches!(def.elements[2], ViewElement::Hide(_)));
    }

    #[test]
    fn requires_create_view_header() {
        let err = ViewDef::from_script("import all classes from database D;").unwrap_err();
        assert!(matches!(err, ViewError::Definition(_)));
    }

    #[test]
    fn rejects_database_statements() {
        let err = ViewDef::from_script("create view V; database D;").unwrap_err();
        assert!(matches!(err, ViewError::Definition(_)));
    }

    #[test]
    fn to_script_roundtrips() {
        let scripts = [r#"create view My_View;
               import all classes from database Chrysler;
               import class Person from database Ford as Ford_Person;
               class Adult includes (select P from P in Person where P.Age >= 21);
               class Ship includes Tanker, Cruiser, Trawler;
               class On_Sale includes like On_Sale_Spec;
               class Resident(X) includes (select P from P in Person where P.City = X);
               class Family includes imaginary
                   (select [Husband: H, Wife: H.Spouse] from H in Person);
               attribute Address of type [City: string] in class Person
                   has value [City: self.City];
               attribute Raise(amount: integer) in class Person
                   has value self.Age + amount;
               hide attribute Salary in class Employee;
               hide attributes City, Street in class Person;
               hide class Secret;"#];
        for src in scripts {
            let def = ViewDef::from_script(src).unwrap();
            let rendered = def.to_script();
            let reparsed = ViewDef::from_script(&rendered)
                .unwrap_or_else(|e| panic!("rendered script failed to reparse: {e}\n{rendered}"));
            assert_eq!(def, reparsed, "round-trip mismatch:\n{rendered}");
        }
    }

    #[test]
    fn builder_equivalence() {
        let scripted = ViewDef::from_script(
            "create view V; import all classes from database Navy; \
             class Ship includes Tanker, Cruiser;",
        )
        .unwrap();
        let built = ViewDef::new(sym("V"))
            .import_all(sym("Navy"))
            .virtual_class(
                sym("Ship"),
                vec![
                    IncludeSpec::Class(sym("Tanker")),
                    IncludeSpec::Class(sym("Cruiser")),
                ],
            );
        assert_eq!(scripted, built);
    }
}
