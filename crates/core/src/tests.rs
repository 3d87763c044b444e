//! Crate-level tests: every worked example of the paper, end to end.
//!
//! The tests live in one module, so each keeps its `tests::` name, and
//! their text is split by topic into the files under `tests/`, which this
//! module includes after the shared fixtures.

use ov_oodb::{sym, ConflictPolicy, OodbError, System, Value};
use ov_query::{execute_script, DataSource};

use crate::error::ViewError;
use crate::view::{IdentityMode, Materialization, ViewOptions};
use crate::ViewDef;

/// People database used throughout §2/§4/§5 examples.
fn people_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, Sex: string,
                           City: string, Street: string, Zip_Code: string,
                           Income: integer,
                           Spouse: Person, Children: {Person}];
        class Employee inherits Person type [Salary: integer, Company: string];
        class Manager inherits Employee type [Budget: integer];
        object #1 in Person value [Name: "Maggy", Age: 66, Sex: "female",
                                   City: "London", Street: "10 Downing", Zip_Code: "SW1",
                                   Income: 90000, Spouse: #2];
        object #2 in Person value [Name: "Denis", Age: 70, Sex: "male",
                                   City: "London", Street: "10 Downing", Zip_Code: "SW1",
                                   Income: 4000, Spouse: #1, Children: {#3}];
        object #3 in Person value [Name: "Mark", Age: 12, Sex: "male",
                                   City: "London", Street: "10 Downing", Zip_Code: "SW1"];
        object #4 in Employee value [Name: "Tony", Age: 30, Sex: "male",
                                     City: "Paris", Street: "Rivoli", Zip_Code: "75001",
                                     Income: 50000, Salary: 50000, Company: "INRIA"];
        object #5 in Manager value [Name: "Boss", Age: 50, Sex: "female",
                                    City: "Paris", Street: "Rivoli", Zip_Code: "75001",
                                    Income: 120000, Salary: 120000, Company: "INRIA",
                                    Budget: 1000000];
        object #6 in Person value [Name: "Julia", Age: 80, Sex: "female",
                                   City: "Roma", Street: "Via Appia", Zip_Code: "00100",
                                   Income: 3000];
        name maggy = #1;
        name denis = #2;
        name tony = #4;
        "#,
    )
    .unwrap();
    sys
}

/// Navy database of §4 (Example 4 and the Ship variation).
fn navy_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Navy;
        class Ship type [Name: string, Tonnage: integer];
        class Tanker inherits Ship type [Cargo: string];
        class Trawler inherits Ship type [Cargo: string];
        class Frigate inherits Ship type [Armament: string];
        class Cruiser inherits Ship type [Armament: string];
        object #1 in Tanker value [Name: "Erika", Tonnage: 37000, Cargo: "oil"];
        object #2 in Trawler value [Name: "Nellie", Tonnage: 900, Cargo: "fish"];
        object #3 in Frigate value [Name: "Surprise", Tonnage: 1200, Armament: "cannon"];
        object #4 in Cruiser value [Name: "Aurora", Tonnage: 6700, Armament: "guns"];
        "#,
    )
    .unwrap();
    sys
}

include!("tests/attributes.rs");
include!("tests/virtual_classes.rs");
include!("tests/imaginary.rs");
include!("tests/materialization.rs");
include!("tests/language.rs");
include!("tests/explain.rs");
include!("tests/robustness.rs");
