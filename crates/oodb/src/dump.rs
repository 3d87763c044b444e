//! Textual dump of a database in the surface DDL.
//!
//! The dump is valid input for the `ov-query` statement parser, so
//! dump → parse → dump is the crate's serialization round-trip (tested in
//! `ov-query`). Oids print as `#n` literals; the loader re-creates objects
//! preserving relative references.

use std::fmt::Write as _;

use crate::codec::crc32;
use crate::database::Database;
use crate::error::OodbError;
use crate::schema::AttrBody;
use crate::types::Type;
use crate::value::Value;

/// Magic prefix of a checked dump's header line. A `--` comment, so checked
/// dumps remain valid scripts for parsers that skip the header.
pub const DUMP_MAGIC: &str = "-- ovdump";

/// Current checked-dump format version. Bump on incompatible header changes.
pub const DUMP_FORMAT: u32 = 1;

/// Wraps script text in the checked dump format: a single `-- ovdump`
/// comment line carrying the format version, the body's byte length, and a
/// CRC32 of the body. The result is still a valid script (the header is a
/// comment); [`read_checked`] verifies and strips it.
pub fn wrap_checked(body: &str) -> String {
    format!(
        "{DUMP_MAGIC} {DUMP_FORMAT} len={} crc32={:08x}\n{body}",
        body.len(),
        crc32(body.as_bytes())
    )
}

/// Verifies a checked dump produced by [`wrap_checked`] and returns the body.
///
/// Rejections are typed, never panics: a file that does not start with the
/// `-- ovdump` magic, a malformed header, a truncated or padded body, or a
/// checksum mismatch all yield [`OodbError::Corrupt`]; a format version newer
/// than this build understands yields [`OodbError::UnsupportedFormat`].
pub fn read_checked(text: &str) -> Result<&str, OodbError> {
    let Some(rest) = text.strip_prefix(DUMP_MAGIC) else {
        return Err(OodbError::corrupt(
            "dump: missing `-- ovdump` header (not a checked dump)",
        ));
    };
    let (header, body) = match rest.split_once('\n') {
        Some(split) => split,
        None => (rest, ""),
    };
    let mut version = None;
    let mut len = None;
    let mut crc = None;
    for field in header.split_whitespace() {
        if let Some(v) = field.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        } else if let Some(v) = field.strip_prefix("crc32=") {
            crc = u32::from_str_radix(v, 16).ok();
        } else if version.is_none() {
            version = field.parse::<u32>().ok();
        }
    }
    let (Some(version), Some(len), Some(crc)) = (version, len, crc) else {
        return Err(OodbError::corrupt("dump: malformed `-- ovdump` header"));
    };
    if version > DUMP_FORMAT {
        return Err(OodbError::UnsupportedFormat {
            found: version,
            supported: DUMP_FORMAT,
        });
    }
    if body.len() != len {
        return Err(OodbError::corrupt(format!(
            "dump: body is {} bytes, header says {len} (truncated or padded)",
            body.len()
        )));
    }
    let actual = crc32(body.as_bytes());
    if actual != crc {
        return Err(OodbError::corrupt(format!(
            "dump: checksum mismatch (header {crc:08x}, body {actual:08x})"
        )));
    }
    Ok(body)
}

/// Renders `db` as DDL text: class declarations (stored attributes inline),
/// computed-attribute declarations, objects, then names.
pub fn dump_database(db: &Database) -> String {
    dump_database_with_offset(db, 0)
}

/// Like [`dump_database`], but script-local `#k` literals start at
/// `offset`. Concatenating the dumps of several databases into one script
/// (e.g. a whole-session save) requires disjoint literal ranges.
pub fn dump_database_with_offset(db: &Database, offset: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "database {};", db.name);
    // Classes, in creation order (parents always precede children).
    for class in db.schema.classes() {
        let _ = write!(out, "class {}", class.name);
        if !class.parents.is_empty() {
            let _ = write!(out, " inherits ");
            for (i, p) in class.parents.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{}", db.schema.class(*p).name);
            }
        }
        let stored: Vec<_> = class.attrs.iter().filter(|a| a.is_stored()).collect();
        if !stored.is_empty() {
            let _ = write!(out, " type [");
            for (i, a) in stored.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{}: {}", a.sig.name, a.sig.ty.display(&db.schema));
            }
            let _ = write!(out, "]");
        }
        let _ = writeln!(out, ";");
    }
    // Computed attributes, after all classes exist.
    for class in db.schema.classes() {
        for a in &class.attrs {
            if let AttrBody::Computed(body) = &a.body {
                let _ = write!(out, "attribute {}", a.sig.name);
                if !a.sig.params.is_empty() {
                    let _ = write!(out, "(");
                    for (i, (p, t)) in a.sig.params.iter().enumerate() {
                        if i > 0 {
                            let _ = write!(out, ", ");
                        }
                        let _ = write!(out, "{}: {}", p, t.display(&db.schema));
                    }
                    let _ = write!(out, ")");
                }
                if a.sig.ty != Type::Any {
                    let _ = write!(out, " of type {}", a.sig.ty.display(&db.schema));
                }
                let _ = writeln!(out, " in class {} has value {};", class.name, body);
            }
        }
    }
    // Objects in oid order, with oids renumbered 0..n script-locally so that
    // dumps are position-independent (base oids depend on the allocation
    // history of the system that wrote them; the loader remaps `#k`
    // literals anyway).
    // References may be forward; the loader resolves them in a second pass.
    let renumber: std::collections::HashMap<crate::Oid, u64> = db
        .store
        .iter()
        .enumerate()
        .map(|(i, obj)| (obj.oid, offset + i as u64))
        .collect();
    for obj in db.store.iter() {
        let class_name = db.schema.class(obj.class).name;
        let _ = write!(
            out,
            "object #{} in {} value ",
            renumber[&obj.oid], class_name
        );
        fmt_value_renumbered(
            &Value::Tuple(crate::Tuple::from_fields(
                obj.value
                    .iter()
                    .filter(|(_, v)| !v.is_null())
                    .map(|(n, v)| (n, v.clone())),
            )),
            &renumber,
            &mut out,
        );
        let _ = writeln!(out, ";");
    }
    for (name, oid) in db.names() {
        match renumber.get(&oid) {
            Some(k) => {
                let _ = writeln!(out, "name {name} = #{k};");
            }
            None => {
                let _ = writeln!(out, "name {name} = {oid};");
            }
        }
    }
    out
}

/// Prints a value with oid references rewritten through `renumber` (unknown
/// oids — cross-database references — print verbatim).
fn fmt_value_renumbered(
    v: &Value,
    renumber: &std::collections::HashMap<crate::Oid, u64>,
    out: &mut String,
) {
    match v {
        Value::Oid(o) => match renumber.get(o) {
            Some(k) => {
                let _ = write!(out, "#{k}");
            }
            None => {
                let _ = write!(out, "{o}");
            }
        },
        Value::Tuple(t) => {
            let _ = write!(out, "[");
            for (i, (n, fv)) in t.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                let _ = write!(out, "{n}: ");
                fmt_value_renumbered(fv, renumber, out);
            }
            let _ = write!(out, "]");
        }
        Value::Set(s) => {
            let _ = write!(out, "{{");
            for (i, e) in s.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                fmt_value_renumbered(e, renumber, out);
            }
            let _ = write!(out, "}}");
        }
        Value::List(l) => {
            let _ = write!(out, "list(");
            for (i, e) in l.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ", ");
                }
                fmt_value_renumbered(e, renumber, out);
            }
            let _ = write!(out, ")");
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::AttrDef;
    use crate::symbol::sym;

    #[test]
    fn dump_contains_all_sections() {
        let mut db = Database::new(sym("Staff"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        db.create_class(
            sym("Employee"),
            &[person],
            vec![AttrDef::stored(sym("Salary"), Type::Int)],
        )
        .unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(sym("Adultish"), Type::Bool, Expr::self_attr("Age")),
            )
            .unwrap();
        let o = db
            .create_object(person, Value::tuple([("Name", Value::str("Maggy"))]))
            .unwrap();
        db.name_object(sym("maggy"), o).unwrap();

        let text = dump_database(&db);
        assert!(text.contains("database Staff;"));
        // Stored attributes print in declaration order.
        assert!(text.contains("class Person type [Name: string, Age: integer];"));
        assert!(text.contains("class Employee inherits Person type [Salary: integer];"));
        assert!(
            text.contains("attribute Adultish of type boolean in class Person has value self.Age;")
        );
        assert!(text.contains(r#"object #0 in Person value [Name: "Maggy"];"#));
        assert!(text.contains("name maggy = #0;"));
    }

    #[test]
    fn checked_dump_round_trips() {
        let body = "database D;\nclass C;\n";
        let wrapped = wrap_checked(body);
        assert!(wrapped.starts_with(DUMP_MAGIC));
        assert_eq!(read_checked(&wrapped).unwrap(), body);
    }

    #[test]
    fn checked_dump_rejects_foreign_truncated_and_corrupt() {
        // Foreign file: no magic.
        let err = read_checked("#!/bin/sh\nexit 1\n").unwrap_err();
        assert!(matches!(err, OodbError::Corrupt { .. }), "{err}");
        // Truncated body.
        let wrapped = wrap_checked("database D;\nobject #0 in C value [];\n");
        let cut = &wrapped[..wrapped.len() - 10];
        let err = read_checked(cut).unwrap_err();
        assert!(matches!(err, OodbError::Corrupt { .. }), "{err}");
        // Bit flip in the body.
        let flipped = wrapped.replace("database D", "database X");
        let err = read_checked(&flipped).unwrap_err();
        assert!(matches!(err, OodbError::Corrupt { .. }), "{err}");
        // Future format version.
        let future = wrapped.replacen("-- ovdump 1", "-- ovdump 99", 1);
        let err = read_checked(&future).unwrap_err();
        assert!(matches!(err, OodbError::UnsupportedFormat { .. }), "{err}");
    }

    #[test]
    fn null_fields_are_omitted() {
        let mut db = Database::new(sym("D"));
        let c = db
            .create_class(sym("C"), &[], vec![AttrDef::stored(sym("X"), Type::Int)])
            .unwrap();
        db.create_object(c, Value::empty_tuple()).unwrap();
        let text = dump_database(&db);
        assert!(text.contains("object #0 in C value [];"));
    }
}
