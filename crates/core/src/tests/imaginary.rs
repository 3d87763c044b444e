// Imaginary objects and their identity (paper §5).

#[test]
fn family_imaginary_objects() {
    // §5: the Family class.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view Families;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        attribute Children in class Family has value
            (select C from C in self.Husband.Children);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // One married male with a spouse: Denis.
    let families = view.extent_of(sym("Family")).unwrap();
    assert_eq!(families.len(), 1);
    let fam = families[0];
    assert!(fam.is_imaginary());
    // Core attributes inferred as Person-typed (§5): Husband/Wife.
    assert_eq!(
        view.core_attrs(sym("Family")).unwrap(),
        vec![sym("Husband"), sym("Wife")]
    );
    // Attribute access on the imaginary object.
    assert_eq!(
        view.query("select F.Husband.Name from F in Family")
            .unwrap(),
        Value::set([Value::str("Denis")])
    );
    assert_eq!(
        view.query("select F.Wife.Name from F in Family").unwrap(),
        Value::set([Value::str("Maggy")])
    );
    // Virtual attribute on the imaginary class.
    assert_eq!(
        view.query("select count(F.Children) from F in Family")
            .unwrap(),
        Value::set([Value::Int(1)])
    );
    // Identity is stable across invocations.
    assert_eq!(view.extent_of(sym("Family")).unwrap(), families);
}

#[test]
fn the_two_seemingly_equivalent_queries() {
    // §5.1: the paper's crucial example. With identity tables the nested
    // query returns the same objects; with fresh oids it returns nothing.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Person type [Name: string, Age: integer, Sex: string, Spouse: Person,
                           Kids: integer];
        object #1 in Person value [Name: "F1", Age: 24, Sex: "male", Spouse: #2, Kids: 6];
        object #2 in Person value [Name: "M1", Age: 24, Sex: "female", Spouse: #1];
        object #3 in Person value [Name: "F2", Age: 50, Sex: "male", Spouse: #4, Kids: 7];
        object #4 in Person value [Name: "M2", Age: 48, Sex: "female", Spouse: #3];
        "#,
    )
    .unwrap();
    let script = r#"
        create view V;
        import all classes from database D;
        class Family includes imaginary
            (select [Father: H, Size: H.Kids]
             from H in Person where H.Sex = "male");
    "#;
    let flat = "select F from F in Family where F.Size > 5 and F.Father.Age < 25";
    let nested = "select F from F in Family where F.Size > 5 \
                  and F in (select G from G in Family where G.Father.Age < 25)";
    // Paper semantics: both return the young large family.
    let stable = ViewDef::from_script(script)
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();
    let a = stable.query(flat).unwrap();
    let b = stable.query(nested).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.as_set().unwrap().len(), 1);
    // Naive fresh-oid semantics: re-evaluating Family yields different
    // oids, so the membership test fails — "we may obtain an empty set".
    let fresh = ViewDef::from_script(script)
        .unwrap()
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .identity_mode(IdentityMode::Fresh)
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
    let c = fresh.query(nested).unwrap();
    assert_eq!(c.as_set().unwrap().len(), 0, "fresh oids diverge");
}

#[test]
fn imaginary_identity_survives_unrelated_updates() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Family")).unwrap();
    // An unrelated update invalidates population caches…
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    view.update_attr(tony, sym("Age"), Value::Int(33)).unwrap();
    // …but the family keeps its oid (same core tuple → same oid, §5.1).
    let after = view.extent_of(sym("Family")).unwrap();
    assert_eq!(before, after);
    assert_eq!(view.identity_table_len(sym("Family")), 1);
}

#[test]
fn example5_value_to_object_addresses() {
    // §5 Example 5: addresses become shared objects.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view Value_to_Object;
        import all classes from database Staff;
        class Address includes imaginary
            (select [City: P.City, Street: P.Street]
             from P in Person);
        attribute Location in class Person has value
            (select the A from A in Address
             where A.City = self.City and A.Street = self.Street);
        hide attributes City, Street, Zip_Code in class Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Maggy, Denis and Mark share one address object; Tony and Boss share
    // another; Julia has her own: 3 address objects.
    assert_eq!(view.extent_of(sym("Address")).unwrap().len(), 3);
    let maggy_loc = view.query("maggy.Location").unwrap();
    let denis_loc = view.query("denis.Location").unwrap();
    assert_eq!(maggy_loc, denis_loc, "addresses are shared objects");
    // The raw components are hidden.
    assert!(view.query("maggy.City").is_err());
    // But reachable through the address object.
    assert_eq!(
        view.query("maggy.Location.City").unwrap(),
        Value::str("London")
    );
    // "When Maggy moves out of 10 Downing Street, the attribute … will
    // point to a different object … the object corresponding to 10 Downing
    // Street may still be used" — Denis still lives there. The move happens
    // in the *base* database (the view hides City from its own users).
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    assert!(matches!(
        view.update_attr(maggy, sym("City"), Value::str("Dulwich")),
        Err(ViewError::HiddenAttr { .. })
    ));
    {
        let staff = sys.database(sym("Staff")).unwrap();
        let mut staff = staff.write();
        staff
            .set_attr(maggy, sym("City"), Value::str("Dulwich"))
            .unwrap();
        staff
            .set_attr(maggy, sym("Street"), Value::str("Hambledon Place"))
            .unwrap();
    }
    let new_maggy_loc = view.query("maggy.Location").unwrap();
    assert_ne!(new_maggy_loc, maggy_loc);
    assert_eq!(view.query("denis.Location").unwrap(), denis_loc);
    assert_eq!(view.extent_of(sym("Address")).unwrap().len(), 4);
}

#[test]
fn example6_poorly_designed_view_churns_identity() {
    // §5.1 Example 6: Address as a *core* attribute of Client makes a move
    // change the client's identity — reproduced, then fixed.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Insurance;
        class Policy type [Policy_Number: integer, Coverage: string, Cost: integer,
                           PName: string, PAddress: string, PAge: integer, SS: integer];
        object #1 in Policy value [Policy_Number: 1, Coverage: "life", Cost: 100,
                                   PName: "Maggy", PAddress: "10 Downing", PAge: 66, SS: 42];
        name policy1 = #1;
        "#,
    )
    .unwrap();
    let poor = ViewDef::from_script(
        r#"
        create view My_Clients;
        import all classes from database Insurance;
        class Client includes imaginary
            (select [CName: P.PName, CAge: P.PAge, SS: P.SS, CAddress: P.PAddress, Policy: P]
             from P in Policy);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = poor.extent_of(sym("Client")).unwrap();
    // Maggy's address is updated…
    let policy = DataSource::named_object(&poor, sym("policy1")).unwrap();
    poor.update_attr(policy, sym("PAddress"), Value::str("Hambledon"))
        .unwrap();
    let after = poor.extent_of(sym("Client")).unwrap();
    // …and "as far as the system is concerned, Maggy before moving and
    // after moving are two different clients."
    assert_ne!(before, after);
    assert_eq!(
        poor.identity_table_len(sym("Client")),
        2,
        "identity churned"
    );

    // The fix: Address as a *virtual* attribute of Client.
    let good = ViewDef::from_script(
        r#"
        create view My_Clients_Fixed;
        import all classes from database Insurance;
        class Client includes imaginary
            (select [CName: P.PName, SS: P.SS, Policy: P] from P in Policy);
        attribute CAddress in class Client has value self.Policy.PAddress;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = good.extent_of(sym("Client")).unwrap();
    good.update_attr(policy, sym("PAddress"), Value::str("Elsewhere"))
        .unwrap();
    let after = good.extent_of(sym("Client")).unwrap();
    assert_eq!(before, after, "identity stable under the fixed design");
    assert_eq!(
        good.query(r#"select C.CAddress from C in Client"#).unwrap(),
        Value::set([Value::str("Elsewhere")])
    );
}

#[test]
fn identity_gc_drops_dead_entries_and_keeps_live_oids() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Address includes imaginary
            (select [City: P.City] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Address")).unwrap();
    assert_eq!(view.identity_table_len(sym("Address")), 3); // London/Paris/Roma
                                                            // Julia leaves Roma: the Roma address becomes dead.
    let julia = view
        .query(r#"select the P from P in Person where P.Name = "Julia""#)
        .unwrap();
    let Value::Oid(julia) = julia else { panic!() };
    view.update_attr(julia, sym("City"), Value::str("Paris"))
        .unwrap();
    view.extent_of(sym("Address")).unwrap();
    assert_eq!(
        view.identity_table_len(sym("Address")),
        3,
        "dead entry retained"
    );
    let removed = view.gc_identity(sym("Address")).unwrap();
    assert_eq!(removed, 1);
    assert_eq!(view.identity_table_len(sym("Address")), 2);
    // Live addresses kept their oids.
    let after = view.extent_of(sym("Address")).unwrap();
    for o in &after {
        assert!(before.contains(o), "live oid changed across gc");
    }
    // But a *collected* tuple that reappears gets a fresh oid — the
    // documented trade-off of collecting.
    view.update_attr(julia, sym("City"), Value::str("Roma"))
        .unwrap();
    let reappeared = view.extent_of(sym("Address")).unwrap();
    assert_eq!(reappeared.len(), 3);
    assert!(reappeared.iter().any(|o| !before.contains(o)));
}

#[test]
fn imaginary_core_attributes_are_immutable_through_the_view() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H] from H in Person where H.Sex = "male");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let fam = view.extent_of(sym("Family")).unwrap()[0];
    let err = view
        .update_attr(fam, sym("Husband"), Value::Null)
        .unwrap_err();
    assert!(matches!(err, ViewError::CoreAttrUpdate { .. }));
    assert!(matches!(
        view.delete(fam),
        Err(ViewError::ImaginaryUpdate(_))
    ));
}

#[test]
fn same_tuple_different_class_different_oid() {
    // §5.1: "a tuple will generate a different oid when used in a
    // different class."
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class CityA includes imaginary (select [City: P.City] from P in Person);
        class CityB includes imaginary (select [City: P.City] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let a = view.extent_of(sym("CityA")).unwrap();
    let b = view.extent_of(sym("CityB")).unwrap();
    assert_eq!(a.len(), b.len());
    assert!(a.iter().all(|o| !b.contains(o)), "disjoint oid sets");
}
