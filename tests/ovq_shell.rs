//! End-to-end round-trips through the `ovq` binary, each process a fresh
//! one: a durable session written by one process is read by a second, and
//! a session `.save`d by one reloads in another. Each test works in a
//! directory of its own under the target's scratch directory and removes
//! it once it passes, so a failed run leaves its files (WAL, snapshot,
//! `views.ovq`, scripts) for inspection.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// An empty working directory for the test `tag`.
fn workdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("ovq_shell")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `ovq` in `dir` with `args`, feeding it `stdin`; fails unless it
/// exits 0, and returns what it printed.
fn ovq(dir: &Path, args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ovq"))
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let Output {
        status,
        stdout,
        stderr,
    } = child.wait_with_output().unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&stdout),
        String::from_utf8_lossy(&stderr),
    );
    assert!(
        status.success(),
        "ovq {args:?} in {}: {status}\n{stdout}\n{stderr}",
        dir.display()
    );
    stdout.into_owned()
}

/// Whether `out` holds `line` as a whole line.
fn has_line(out: &str, line: &str) -> bool {
    out.lines().any(|l| l == line)
}

/// A `walsync` session written by one process is read by a second, which
/// opens the same data directory without a checkpoint between them.
#[test]
fn a_durable_session_is_read_by_a_second_process() {
    let dir = workdir("durable");
    std::fs::write(
        dir.join("build.ovq"),
        "database Staff;\nclass Person type [Name: string, Age: integer];\n\
         insert Person value [Name: \"Ada\", Age: 36];\n",
    )
    .unwrap();
    std::fs::write(dir.join("check.ovq"), "database Staff;\ncount(Person);\n").unwrap();
    let data = ["--batch", "--data-dir", "crash-data"];
    ovq(
        &dir,
        &[&data[..], &["--durability", "walsync", "build.ovq"]].concat(),
        "",
    );
    let out = ovq(&dir, &[&data[..], &["check.ovq"]].concat(), "");
    assert!(has_line(&out, "1"), "the second process read:\n{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A saved session reloads: `.save` writes a spouse pair and a class typed
/// by a class declared after it, which only loads because the shell runs
/// each stretch of base statements through the executor's passes at once.
#[test]
fn a_saved_session_reloads_in_a_second_process() {
    let dir = workdir("save_load");
    let session = r#"database Firm;
class Dept type [Title: string];
class Emp type [Name: string, Spouse: Emp];
attribute Head of type Emp in class Dept;
insert Emp value [Name: "Ann"];
insert Emp value [Name: "Bob"];
set (select the E from E in Emp where E.Name = "Ann").Spouse = (select the E from E in Emp where E.Name = "Bob");
set (select the E from E in Emp where E.Name = "Bob").Spouse = (select the E from E in Emp where E.Name = "Ann");
insert Dept value [Title: "R&D"];
set (select the D from D in Dept).Head = (select the E from E in Emp where E.Name = "Bob");
.save saved.ovq
"#;
    ovq(&dir, &[], session);
    std::fs::write(
        dir.join("check.ovq"),
        "database Firm;\n(select the D from D in Dept).Head.Spouse.Name;\n",
    )
    .unwrap();
    let out = ovq(&dir, &["--batch", "saved.ovq", "check.ovq"], "");
    assert!(
        has_line(&out, "\"Ann\""),
        "the reloaded session read:\n{out}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
