// Virtual attributes, import and hide (paper §2–§3).

#[test]
fn example1_merging_attributes_into_address() {
    // §2 Example 1: merge City/Street/Zip_Code into one Address attribute.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view Addresses;
        import all classes from database Staff;
        attribute Address in class Person has value
            [City: self.City, Street: self.Street, Zip_Code: self.Zip_Code];
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let v = view.query("maggy.Address").unwrap();
    assert_eq!(
        v,
        Value::tuple([
            ("City", Value::str("London")),
            ("Street", Value::str("10 Downing")),
            ("Zip_Code", Value::str("SW1")),
        ])
    );
    // "to access Maggy's city and address, we use the same notation".
    assert_eq!(view.query("maggy.City").unwrap(), Value::str("London"));
}

#[test]
fn virtual_attribute_type_is_inferred() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Address in class Person has value [City: self.City];
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let person = DataSource::class_by_name(&view, sym("Person")).unwrap();
    let sig = DataSource::attr_sig(&view, person, sym("Address")).unwrap();
    assert_eq!(sig.ty, ov_oodb::Type::tuple([("City", ov_oodb::Type::Str)]));
}

#[test]
fn stored_computed_overloading_across_classes() {
    // §2: Address stored in Employee, computed in Manager.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Company type [CAddress: string];
        class Employee type [Name: string, Address: string, Firm: Company];
        class Manager inherits Employee type [];
        object #1 in Company value [CAddress: "HQ Plaza"];
        object #2 in Employee value [Name: "E", Address: "Home St", Firm: #1];
        object #3 in Manager value [Name: "M", Address: "ignored", Firm: #1];
        name e = #2;
        name m = #3;
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database D;
        attribute Address in class Manager has value self.Firm.CAddress;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.query("e.Address").unwrap(), Value::str("Home St"));
    assert_eq!(view.query("m.Address").unwrap(), Value::str("HQ Plaza"));
}

#[test]
fn hide_attribute_hides_in_subclasses_too() {
    // §3: hiding Salary in Employee must also hide it in Manager, while
    // Manager's own Budget stays visible — the paper's correction to the
    // relational SELECT approach.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view No_Salaries;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let err = view.query("tony.Salary").unwrap_err();
    assert!(matches!(
        err,
        ViewError::Oodb(OodbError::UnknownAttr { .. })
    ));
    // Budget (defined in the subclass Manager) survives.
    let budgets = view.query("select M.Budget from M in Manager").unwrap();
    assert_eq!(budgets, Value::set([Value::Int(1_000_000)]));
    // Salary is hidden on managers as well.
    assert!(view.query("select M.Salary from M in Manager").is_err());
}

#[test]
fn hidden_attrs_cannot_be_assigned_through_the_view() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    let err = view
        .update_attr(tony, sym("Salary"), Value::Int(1))
        .unwrap_err();
    assert!(matches!(err, ViewError::HiddenAttr { .. }));
    // Unhidden attributes pass through to the base database.
    view.update_attr(tony, sym("Age"), Value::Int(31)).unwrap();
    assert_eq!(
        sys.database(sym("Staff"))
            .unwrap()
            .read()
            .stored_attr(tony, sym("Age"))
            .unwrap(),
        &Value::Int(31)
    );
}

#[test]
fn hide_class_removes_name_but_objects_present_upward() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        hide class Manager;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(view.query("select M from M in Manager").is_err());
    // The manager object is still visible as an Employee.
    assert_eq!(
        view.query("count((select E from E in Employee))").unwrap(),
        Value::Int(2)
    );
    // And its Budget (defined only in the hidden class) resolves via the
    // object's real class chain — hiding a class hides the *name*, not the
    // object's structure. Its presented class is Employee.
    let manager_oid = {
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        let manager = db.schema.class_by_name(sym("Manager")).unwrap();
        db.deep_extent(manager)[0]
    };
    let c = DataSource::class_of(&view, manager_oid).unwrap();
    assert_eq!(ov_oodb::ClassGraph::class_name(&view, c), sym("Employee"));
}

#[test]
fn a_hidden_class_presents_as_its_first_visible_parent() {
    // `B` has the larger id, but it is `H`'s first parent: breadth-first
    // by the parents' order, an `H` object presents as a `B`.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class A type [X: integer];
        class B type [Y: integer];
        class H inherits B, A type [Z: integer];
        object #1 in H value [X: 1, Y: 2, Z: 3];
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        "create view V; import all classes from database D; hide class H;",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let oid = {
        let db = sys.database(sym("D")).unwrap();
        let db = db.read();
        db.deep_extent(db.schema.class_by_name(sym("H")).unwrap())[0]
    };
    let c = DataSource::class_of(&view, oid).unwrap();
    assert_eq!(ov_oodb::ClassGraph::class_name(&view, c), sym("B"));
}

#[test]
fn import_conflict_requires_alias() {
    let mut sys = people_system();
    execute_script(&mut sys, "database Ford; class Person type [Name: string];").unwrap();
    let bad = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        import class Person from database Ford;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind();
    assert!(matches!(bad, Err(ViewError::ImportConflict { .. })));
    let good = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        import class Person from database Ford as Ford_Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(good.class_names().contains(&sym("Ford_Person")));
}

#[test]
fn partial_import_flattens_inherited_attributes() {
    // Importing only Employee must keep Person-inherited attributes usable.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import class Employee from database Staff;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Person is not visible…
    assert!(DataSource::class_by_name(&view, sym("Person")).is_none());
    // …but Employee (and its subclass Manager) are, with Name flattened in.
    assert_eq!(
        view.query("select E.Name from E in Employee").unwrap(),
        Value::set([Value::str("Tony"), Value::str("Boss")])
    );
    assert!(DataSource::class_by_name(&view, sym("Manager")).is_some());
}
