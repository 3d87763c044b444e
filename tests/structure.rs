//! The structure guards. Each consolidation of the design gave one
//! decision one home (one resolution rule, one identity home, one catalog
//! commit, …), and each guard here fails when a second home comes back.
//! A guard reads the source, not the program: it is a function from a set
//! of files (path and text) to the lines that break it, reported as
//! `file:line: text`. The guards read the repository as it is on disk; the
//! `…_reports_its_mutation` tests feed each one a small inline tree, which
//! it must pass, and the same tree with the guard's mutation, which it
//! must report.
//!
//! The patterns are plain text, matched with `std` alone. Three readings
//! recur:
//! - *product code*: the lines above a file's first line that begins with
//!   `#[cfg(test)]` (a test module at the end of the file);
//! - *comment lines*: a line whose first non-blank characters are `//` —
//!   skipped only by the guards that name a function (`one_verdict_home`'s
//!   memo check, `one_script_executor`, `one_catalog_commit`);
//! - *anywhere*: every line of every file under the roots named, tests and
//!   comments included, as a recursive grep reads them.
//!
//! This file names every banned item as a literal, so no guard reads it.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::OnceLock;

/// A file of the repository: its path from the root, `/`-separated, and
/// its text.
struct Source {
    path: String,
    text: String,
}

/// A guard: the lines of `files` that break it, each `file:line: text`.
type Guard = fn(&[Source]) -> Vec<String>;

/// The directories the guards read.
const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// This file: it holds the banned names as literals.
const SELF: &str = "tests/structure.rs";

/// Every file under [`ROOTS`] but [`SELF`], read once per test binary.
fn tree() -> &'static [Source] {
    static TREE: OnceLock<Vec<Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in ROOTS {
            walk(root, dir, &mut files);
        }
        files
    })
}

/// Reads the file or directory tree at `root/rel` into `out`, in name order.
fn walk(root: &Path, rel: &str, out: &mut Vec<Source>) {
    let path = root.join(rel);
    if path.is_dir() {
        let entries = std::fs::read_dir(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let mut names: Vec<String> = entries
            .map(|e| e.unwrap_or_else(|e| panic!("{rel}: {e}")))
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            walk(root, &format!("{rel}/{name}"), out);
        }
    } else if rel != SELF {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        out.push(Source {
            path: rel.to_string(),
            text: String::from_utf8_lossy(&bytes).into_owned(),
        });
    }
}

// ---------------------------------------------------------------------
// Reading helpers
// ---------------------------------------------------------------------

/// The lines of `text`, numbered from 1.
fn numbered(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, l)| (i + 1, l))
}

/// The product code of `text`: its lines above the first that *begins*
/// with `#[cfg(test)]`. An indented one (a test fn in an `impl`) does not
/// cut.
fn product(text: &str) -> impl Iterator<Item = (usize, &str)> {
    numbered(text).take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
}

/// Whether `line` is a `//` comment (`//`, `///`, `//!`) after blanks.
fn is_comment(line: &str) -> bool {
    line.trim_start_matches([' ', '\t']).starts_with("//")
}

/// Whether `path` is one of `roots` or lies under one.
fn under(path: &str, roots: &[&str]) -> bool {
    roots.iter().any(|r| {
        path.strip_prefix(r)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    })
}

/// Whether `path` lies in a package's `src/`: `src/**` or `crates/*/src/**`.
fn in_src(path: &str) -> bool {
    path.starts_with("src/") || path.starts_with("crates/") && path.split('/').nth(2) == Some("src")
}

/// Whether `path` is Rust source of a package's `src/`.
fn src_rs(path: &str) -> bool {
    in_src(path) && path.ends_with(".rs")
}

/// Whether `path` is Rust source of a library crate's `src/`.
fn crate_rs(path: &str) -> bool {
    src_rs(path) && path.starts_with("crates/")
}

/// Whether `path` is non-test Rust source of `ov-views`: what `find
/// crates/core/src -name '*.rs' ! -path 'crates/core/src/tests*'` lists.
fn views_rs(path: &str) -> bool {
    under(path, &["crates/core/src"])
        && path.ends_with(".rs")
        && !path.starts_with("crates/core/src/tests")
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `pat` occurs in `line` with a word boundary before it (when
/// `lead`) and after it (when `trail`), as a regex's `\b` marks them.
fn bounded(line: &str, pat: &str, lead: bool, trail: bool) -> Option<usize> {
    line.match_indices(pat).map(|(i, _)| i).find(|&i| {
        let before = line[..i].chars().next_back();
        let after = line[i + pat.len()..].chars().next();
        (!lead || !before.is_some_and(is_word)) && (!trail || !after.is_some_and(is_word))
    })
}

/// Whether one of the `|`-separated `words` occurs in `line` as a whole
/// word (`grep -wE 'A|B'`).
fn has_word(line: &str, words: &str) -> bool {
    words
        .split('|')
        .any(|w| bounded(line, w, true, true).is_some())
}

/// Whether `line` holds one of the `|`-separated `pats` (`grep -E 'A|B'`
/// of literals).
fn has_any(line: &str, pats: &str) -> bool {
    pats.split('|').any(|p| line.contains(p))
}

/// `line` without a leading `pub ` or `pub(word) `, if it has one.
fn strip_vis(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub")?;
    if let Some(rest) = rest.strip_prefix(' ') {
        return Some(rest);
    }
    let (word, rest) = rest.strip_prefix('(')?.split_once(") ")?;
    (!word.is_empty() && word.bytes().all(|b| b.is_ascii_lowercase())).then_some(rest)
}

/// The length of the run of `[a-z_0-9]` (or `[a-z_]`, without `digits`)
/// that `s` begins with.
fn ident_len(s: &str, digits: bool) -> usize {
    s.find(|c: char| !(c.is_ascii_lowercase() || c == '_' || digits && c.is_ascii_digit()))
        .unwrap_or(s.len())
}

/// The indent and name of the fn `line` heads: blanks, an optional `pub `
/// or `pub(word) `, `fn `, then a name of `[a-z_0-9]`.
fn fn_head(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_start_matches([' ', '\t']);
    let indent = &line[..line.len() - rest.len()];
    let rest = strip_vis(rest).unwrap_or(rest).strip_prefix("fn ")?;
    let len = ident_len(rest, true);
    (len > 0).then(|| (indent, &rest[..len]))
}

/// The lines from the first that holds `fn name(` through the first after
/// it (or it) that `end` accepts — a fn's body when `end` knows its
/// closing line. Empty when there is no such fn.
fn fn_body<'a>(text: &'a str, name: &str, end: fn(&str) -> bool) -> Vec<(usize, &'a str)> {
    let head = format!("fn {name}(");
    let mut body = Vec::new();
    for (n, line) in numbered(text).skip_while(|(_, l)| !l.contains(&head)) {
        body.push((n, line));
        if end(line) {
            break;
        }
    }
    body
}

/// Whether `line` declares a name of type text holding one of the
/// `|`-separated `types`:
/// blanks, an optional `pub `/`pub(word) `, a name of `[a-z_]`, `: `, then
/// the type.
fn declares(line: &str, types: &str) -> bool {
    let line = line.trim_start();
    [Some(line), strip_vis(line)]
        .into_iter()
        .flatten()
        .any(|rest| {
            let len = ident_len(rest, false);
            len > 0
                && rest[len..]
                    .strip_prefix(": ")
                    .is_some_and(|ty| has_any(ty, types))
        })
}

/// `file:line: text`.
fn hit(path: &str, n: usize, line: &str) -> String {
    format!("{path}:{n}: {}", line.trim())
}

/// Every line of the files under `roots` that `bad` accepts: a recursive
/// grep.
fn grep(files: &[Source], roots: &[&str], bad: impl Fn(&str) -> bool) -> Vec<String> {
    lines_of(files, |p| under(p, roots), numbered, bad)
}

/// Every product-code line of the files `pick` keeps that `bad` accepts.
fn grep_product(
    files: &[Source],
    pick: impl Fn(&str) -> bool,
    bad: impl Fn(&str) -> bool,
) -> Vec<String> {
    lines_of(files, pick, product, bad)
}

/// Every line that `read` yields of the files `pick` keeps and `bad`
/// accepts, as hits.
fn lines_of<'a, I: Iterator<Item = (usize, &'a str)>>(
    files: &'a [Source],
    pick: impl Fn(&str) -> bool,
    read: impl Fn(&'a str) -> I,
    bad: impl Fn(&str) -> bool,
) -> Vec<String> {
    files
        .iter()
        .filter(|f| pick(&f.path))
        .flat_map(|f| {
            read(&f.text)
                .filter(|(_, l)| bad(l))
                .map(|(n, l)| hit(&f.path, n, l))
        })
        .collect()
}

/// The file at `path`.
fn file<'a>(files: &'a [Source], path: &str) -> Option<&'a Source> {
    files.iter().find(|f| f.path == path)
}

/// `path: fn name` for each fn of the non-test `ov-views` sources whose
/// product code holds one of the `|`-separated `calls` outside a comment
/// line.
fn callers(files: &[Source], calls: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for f in files.iter().filter(|f| views_rs(&f.path)) {
        let mut name = "";
        for (_, line) in product(&f.text).filter(|(_, l)| !is_comment(l)) {
            if let Some((_, head)) = fn_head(line) {
                name = head;
            }
            if has_any(line, calls) {
                found.insert(format!("{}: fn {name}", f.path));
            }
        }
    }
    found
}

/// Passes when `hits` is empty; otherwise fails listing them.
#[track_caller]
fn clean(hits: Vec<String>) {
    assert!(
        hits.is_empty(),
        "{} hit(s):\n{}",
        hits.len(),
        hits.join("\n")
    );
}

// ---------------------------------------------------------------------
// The guards
// ---------------------------------------------------------------------

/// `ov-query` and `ov-views` keep their per-statement state — settings,
/// budget, collector, and each view's cycle guard and body depth — in one
/// execution context behind one `thread_local!` (crates/query/src/ctx.rs,
/// DESIGN.md §6), and a view's errors cross `DataSource` typed. A second
/// cell — outside a `#[cfg(test)]` module — would be a second answer to
/// "which settings govern this row", with its own restore to get wrong.
#[test]
fn one_thread_local_in_ov_query_and_ov_views() {
    clean(guard::one_thread_local_in_ov_query_and_ov_views(tree()));
}

/// An event closes once, and every surface reads that close
/// (crates/oodb/src/event.rs, DESIGN.md §7): a histogram recorded outside
/// the event table, or a population reported through a protocol of calls
/// paired by hand, would be a second emission site.
#[test]
fn one_event_table() {
    clean(guard::one_event_table(tree()));
}

/// Upward resolution and the conflict choice are one rule
/// (crates/oodb/src/resolve.rs, DESIGN.md §1 item 6) that the type
/// checker, the stored shape and the evaluator all call: a `match` on
/// `ConflictPolicy` anywhere else would be a second copy that can pick a
/// different definition.
#[test]
fn one_resolution_rule() {
    clean(guard::one_resolution_rule(tree()));
}

/// A point read and a compiled scan read one per-(class, attribute)
/// verdict, computed and kept in one place (`View::class_rule`,
/// crates/core/src/view.rs, DESIGN.md §9): a second purity question, a
/// resolution memo kept across statements anywhere else, or a second
/// reader or writer of the view's memo (`View::verdicts`, which only
/// `class_rule`, the binder's constructor and the `#[cfg(test)]` count
/// touch) would be a second answer that goes stale on its own schedule.
#[test]
fn one_verdict_home() {
    clean(guard::one_verdict_home(tree()));
}

/// Every row loop runs bytecode, and a top-level statement's engine is
/// chosen once, by `exec::dispatch`'s rule (crates/query/src/exec.rs,
/// DESIGN.md §12): an interpreted form of a row loop, a compile that can
/// decline, or an engine setting per session would bring back a second
/// executable form per loop.
#[test]
fn one_engine_per_loop() {
    clean(guard::one_engine_per_loop(tree()));
}

/// Every scan runs on the thread that reads (DESIGN.md §6): the split scan
/// lost to one thread wherever it was measured (EXPERIMENTS.md E4b) and
/// was deleted with its breaker, its chunk failpoints and the context fork
/// that fed its workers. Bringing any of it back is a new mechanism that
/// has to show its gain first.
#[test]
fn no_split_scan() {
    clean(guard::no_split_scan(tree()));
}

/// A budget charges what the plan touches (DESIGN.md §8): one step per row
/// a loop binds and per computed body run, one row per value an answer
/// gains. Steps are charged in `eval::{bind_row, enter_body}` and nowhere
/// else. A per-node charge instruction, a charge that replays the walker's
/// sequence, or a plan that runs only when no budget is installed would
/// bring back a second budget contract.
#[test]
fn one_budget_formula() {
    clean(guard::one_budget_formula(tree()));
}

/// A cached population follows its sources one way (DESIGN.md §4):
/// `Materialization::Incremental` patches what a delta decides and
/// recomputes the rest, on the read that needs it. A second caching
/// policy, a second name for the setting, or a session write that
/// refreshes views would bring back what was removed.
#[test]
fn one_cache_policy() {
    clean(guard::one_cache_policy(tree()));
}

/// A stacked view reads each upstream class from the view that declares
/// it: views share the system's identity tables, and a binder is given
/// bound upstream views, not their definitions.
#[test]
fn one_owner_per_population() {
    clean(guard::one_owner_per_population(tree()));
}

/// A stacked view copies each upstream class as the view that declares it
/// bound it (DESIGN.md §10): only the view's own classes and its own
/// template instances are derived from their includes. A
/// `define_virtual_class` that takes the upstream a class comes from would
/// derive it a second time, against a wider schema than its owner's.
#[test]
fn one_owner_per_derived_schema() {
    clean(guard::one_owner_per_derived_schema(tree()));
}

/// A statement shape compiles once (DESIGN.md §14): the plan-cache entry of
/// its fingerprint holds the compiled code beside the plan, and a statement
/// of a cached shape binds its literals to that code. A compile on the
/// statement path outside the code-cache fill (`fill_scan_code`,
/// `fill_program_code`) would bring back a compile per probe.
#[test]
fn one_compile_per_shape() {
    clean(guard::one_compile_per_shape(tree()));
}

/// A population request makes one recompute attempt (DESIGN.md §8): a
/// population is a function of in-memory base state, so an attempt run
/// again over the same state fails again. A retry loop, a transience test
/// to drive it, its counters, or a sleep on the read path would bring back
/// a mechanism that only ever retried injected faults.
#[test]
fn one_population_attempt() {
    clean(guard::one_population_attempt(tree()));
}

/// §5.1 identity lives in the system (DESIGN.md §13): one table per
/// imaginary class, keyed by the view that declares it, which a recovered
/// database seeds once, when it joins, and which each database's
/// checkpoint writes. A table or an allocator held by a bound view, or a
/// durable mirror adopted at bind, would bring back imaginary oids that
/// move on a rebind; a second copy kept by a durable database, one that
/// can drift from the system's.
#[test]
fn one_identity_home() {
    clean(guard::one_identity_home(tree()));
}

/// Oids belong to the system (DESIGN.md §16): a store draws fresh oids
/// from an allocator of its own until its database joins a system, and
/// from the system's after; the join refuses a database whose oids meet a
/// joined database's. A process-wide counter would make oids unique only
/// among the databases one process wrote, and an oid could name two
/// objects once databases from two roots meet.
#[test]
fn one_oid_home() {
    clean(guard::one_oid_home(tree()));
}

/// A script runs through one executor (DESIGN.md §2, "Runs"): the session
/// hands each run of base statements to `ov_query`'s passes from one
/// function, which the catalog's `define_class` shares. A second entry
/// point for data statements or DDL, or a second caller in the session,
/// would bring back the per-statement dispatch that never saw a forward
/// reference.
#[test]
fn one_script_executor() {
    clean(guard::one_script_executor(tree()));
}

/// A catalog change stages every view it touches, then commits them all or
/// none from one function (DESIGN.md §10): view DDL, base DDL and
/// `Session::open` alike. A second function that inserts into the
/// session's views map would install a view outside that rule (the
/// hand-written rollback it replaced); an open that runs statements would
/// replay `views.ovq` through the executor again, where one view that
/// fails fails the whole open.
#[test]
fn one_catalog_commit() {
    clean(guard::one_catalog_commit(tree()));
}

/// A canonical scan, a view population's or a statement's, takes its
/// access path by one rule (`planner::choose_scan`) and runs through one
/// driver (`compile::run_scan`, DESIGN.md §14). A probe choice or an
/// estimate of the view's own, or a view-layer call into the rule's
/// pieces, would bring back two paths that disagree.
#[test]
fn one_scan_access_path() {
    clean(guard::one_scan_access_path(tree()));
}

/// Which classes are above which is decided in one place (DESIGN.md §4,
/// "One class graph"): the schema keeps each class's ancestor list, and
/// `ClassGraph::minimal` and `ClassGraph::ancestors_of` are the set
/// operations on it. An all-pairs filter over `is_subclass` would bring
/// back a minimisation that is cubic in a hierarchy's depth; a forwarding
/// adapter from a query source to the class graph, a second hierarchy
/// answer beside the one every source already is.
#[test]
fn one_class_graph() {
    clean(guard::one_class_graph(tree()));
}

/// The resolution generation moves for one reason (DESIGN.md §11,
/// "Staleness"): a template instantiation grows the schema, and only
/// `View::instantiate` bumps it. A class's rule is a function of the
/// schema, which the population in flight only filters (DESIGN.md §9): a
/// bracket that bumped the generation would empty every thread's verdict
/// memo and compiled-scan slot caches on each recompute, and a reader of
/// "is a population open here" would bring back a second path through
/// `View::class_rule`.
#[test]
fn one_generation_event() {
    clean(guard::one_generation_event(tree()));
}

/// An imported class's subtree is its import's (§3: imported classes
/// "become visible together with their subclasses"; DESIGN.md §14): the
/// imported classes below it are its source class's descendants mapped
/// through the import, read in `View::imported_below` alone. A walk of the
/// view's own schema below an imported class would pass every virtual
/// subclass to keep the imported ones — what made a wide view's bind
/// quadratic. Only the bind reads other subtrees: an import's, and a
/// hidden class's, which holds virtual subclasses too.
#[test]
fn one_import_subtree() {
    clean(guard::one_import_subtree(tree()));
}

/// The guards live here, where `cargo test` runs them: a workflow step
/// that greps or awks the source would be a second copy of a guard, run
/// only where CI runs.
#[test]
fn structure_guards_live_here() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    clean(guard::structure_guards_live_here(&text));
}

/// Each guard's pattern, as a function of the files it reads.
mod guard {
    use super::*;

    pub fn one_thread_local_in_ov_query_and_ov_views(files: &[Source]) -> Vec<String> {
        const CTX: &str = "crates/query/src/ctx.rs";
        let pick = |p: &str| {
            under(p, &["crates/query/src", "crates/core/src"]) && p.ends_with(".rs") && p != CTX
        };
        let mut hits = grep_product(files, pick, |l| l.contains("thread_local!"));
        let cells = file(files, CTX).map_or(0, |f| {
            numbered(&f.text)
                .filter(|(_, l)| l.starts_with("thread_local!"))
                .count()
        });
        if cells != 1 {
            hits.push(format!(
                "{CTX}: {cells} lines begin with thread_local!, not 1"
            ));
        }
        hits.extend(grep(files, &["crates", "src", "tests"], |l| {
            has_word(
                l,
                "EVAL_STATE|DEGRADED_NOTE|with_degradation|adopt_eval_state",
            )
        }));
        hits
    }

    pub fn one_event_table(files: &[Source]) -> Vec<String> {
        let pick = |p: &str| crate_rs(p) && p != "crates/oodb/src/event.rs";
        let mut hits = grep_product(files, pick, |l| l.contains("metric_histogram!"));
        hits.extend(grep(files, &["crates", "src", "tests"], |l| {
            has_word(
                l,
                "begin_population|end_population|abort_population|PopOutcome",
            )
        }));
        hits
    }

    pub fn one_resolution_rule(files: &[Source]) -> Vec<String> {
        let pick = |p: &str| src_rs(p) && p != "crates/oodb/src/resolve.rs";
        grep_product(files, pick, matches_conflict_policy)
    }

    /// `ConflictPolicy::[A-Za-z]+[^,;]*=>|let ConflictPolicy::|matches!\(.*ConflictPolicy::`.
    fn matches_conflict_policy(line: &str) -> bool {
        const POLICY: &str = "ConflictPolicy::";
        let arm = line.match_indices(POLICY).any(|(i, _)| {
            let after = &line[i + POLICY.len()..];
            after.starts_with(|c: char| c.is_ascii_alphabetic()) && {
                let rest = &after[1..];
                match (rest.find("=>"), rest.find([',', ';'])) {
                    (Some(arrow), stop) => stop.is_none_or(|s| arrow < s),
                    (None, _) => false,
                }
            }
        });
        arm || line.contains("let ConflictPolicy::")
            || line
                .find("matches!(")
                .is_some_and(|i| line[i + "matches!(".len()..].contains(POLICY))
    }

    pub fn one_verdict_home(files: &[Source]) -> Vec<String> {
        const VIEW: &str = "crates/core/src/view.rs";
        let mut hits = grep(files, &["crates"], |l| {
            has_word(l, "resolution_is_class_pure")
        });
        let pick = |p: &str| src_rs(p) && p != VIEW;
        hits.extend(grep_product(files, pick, resolution_memo));
        // The memo itself, anywhere in a package's `src/` but view.rs and
        // the binder's constructor line.
        for f in files.iter().filter(|f| in_src(&f.path) && f.path != VIEW) {
            for (n, line) in numbered(&f.text) {
                let named = bounded(line, ".verdicts", false, true).is_some()
                    || bounded(line, "verdicts:", true, false).is_some();
                let constructor = f.path == "crates/core/src/view/bind.rs"
                    && line.starts_with(' ')
                    && line.trim_start_matches(' ') == "verdicts: RwLock::default(),";
                if named && !constructor {
                    hits.push(hit(&f.path, n, line));
                }
            }
        }
        // In view.rs, only `class_rule` and fns marked `#[cfg(test)]` on
        // the line above read or write it.
        if let Some(f) = file(files, VIEW) {
            let (mut name, mut test, mut prev) = ("", false, "");
            for (n, line) in numbered(&f.text) {
                if let Some(("    ", head)) = fn_head(line) {
                    name = head;
                    test = prev.trim_start_matches(' ').starts_with("#[cfg(test)]");
                }
                prev = line;
                if !is_comment(line)
                    && touches_verdicts(line)
                    && line != "    verdicts: RwLock<Verdicts>,"
                    && name != "class_rule"
                    && !test
                {
                    hits.push(format!("{}:{n}: fn {name}: {}", f.path, line.trim()));
                }
            }
        }
        hits
    }

    /// `(Map|Set|Vec|Cell|Lock|Mutex)<[^;]*ResolvedAttr`.
    fn resolution_memo(line: &str) -> bool {
        ["Map<", "Set<", "Vec<", "Cell<", "Lock<", "Mutex<"]
            .iter()
            .any(|open| {
                line.match_indices(open).any(|(i, _)| {
                    let rest = &line[i + open.len()..];
                    rest.find("ResolvedAttr")
                        .is_some_and(|r| !rest[..r].contains(';'))
                })
            })
    }

    /// `\.verdicts[^a-z_0-9]|[^a-z_0-9.]verdicts:`.
    fn touches_verdicts(line: &str) -> bool {
        let lower = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        line.match_indices("verdicts").any(|(i, m)| {
            let before = line[..i].chars().next_back();
            let after = &line[i + m.len()..];
            before == Some('.') && after.chars().next().is_some_and(|c| !lower(c))
                || before.is_some_and(|c| !lower(c) && c != '.') && after.starts_with(':')
        })
    }

    pub fn one_engine_per_loop(files: &[Source]) -> Vec<String> {
        grep_product(files, src_rs, |l| {
            has_any(
                l,
                "Code::Interp|Runner::Interp|Verdict::Interp|compiled_enabled|set_engine",
            )
        })
    }

    pub fn no_split_scan(files: &[Source]) -> Vec<String> {
        grep(files, &["crates", "src", "tests"], |l| {
            has_any(
                l,
                "ParallelConfig|filter_map_chunked|eval_select_parallel|run_query_parallel|PARALLEL_STRIKE_LIMIT|seq_fallbacks|scan_chunk|ScanKind::Parallel|choose_split",
            )
        })
    }

    pub fn one_budget_formula(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &["crates", "src", "tests"], |l| {
            has_any(l, "Inst::Step|Step { rel|eval::charge|fn charge(")
        });
        let pick = |p: &str| {
            src_rs(p) && p != "crates/query/src/eval.rs" && p != "crates/query/src/budget.rs"
        };
        hits.extend(grep_product(files, pick, |l| {
            has_any(l, ".step()|.check_depth(|budget::current().is_none()")
        }));
        hits
    }

    pub fn one_cache_policy(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &ROOTS, |l| {
            has_any(
                l,
                "Materialization::Cached|Population::|fn population(mut self",
            ) || bounded(l, "as Population", false, true).is_some()
        });
        hits.extend(grep(files, &["crates/core/src/session.rs"], |l| {
            l.contains("self.propagate(")
        }));
        hits
    }

    pub fn one_owner_per_population(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &["crates/core/src"], |l| {
            l.contains("next_imaginary: AtomicU64")
        });
        hits.extend(views_at(files, takes_view_def));
        hits
    }

    pub fn one_owner_per_derived_schema(files: &[Source]) -> Vec<String> {
        views_at(files, |text| {
            signature_names(text, "fn define_virtual_class", "upstream")
        })
    }

    /// The lines of the files under `crates/core/src` that hold an offset
    /// `find` returns for their text.
    fn views_at(files: &[Source], find: impl Fn(&str) -> Vec<usize>) -> Vec<String> {
        let mut hits = Vec::new();
        for f in files
            .iter()
            .filter(|f| under(&f.path, &["crates/core/src"]))
        {
            for at in find(&f.text) {
                let n = f.text[..at].matches('\n').count() + 1;
                let line = numbered(&f.text).nth(n - 1).map_or("", |(_, l)| l);
                hits.push(hit(&f.path, n, line));
            }
        }
        hits
    }

    /// Where `head\b[^{]*word` matches `text` as one string: a fn `head`
    /// whose signature, on any number of lines, names `word`.
    fn signature_names(text: &str, head: &str, word: &str) -> Vec<usize> {
        text.match_indices(head)
            .map(|(i, _)| i)
            .filter(|&i| {
                let rest = &text[i + head.len()..];
                !rest.starts_with(is_word)
                    && rest.find(word).is_some_and(|w| !rest[..w].contains('{'))
            })
            .collect()
    }

    /// Where `fn over(_all)?\b[^{]*ViewDef` matches `text` as one string:
    /// an `over` or `over_all` whose signature, on any number of lines,
    /// names `ViewDef`.
    fn takes_view_def(text: &str) -> Vec<usize> {
        text.match_indices("fn over")
            .map(|(i, _)| i)
            .filter(|&i| {
                let rest = &text[i + "fn over".len()..];
                let rest = rest.strip_prefix("_all").unwrap_or(rest);
                !rest.starts_with(is_word)
                    && rest
                        .find("ViewDef")
                        .is_some_and(|d| !rest[..d].contains('{'))
            })
            .collect()
    }

    pub fn one_compile_per_shape(files: &[Source]) -> Vec<String> {
        const COMPILE: &str = "crates/query/src/compile.rs";
        let text = file(files, COMPILE).map_or("", |f| &f.text);
        let mut hits = Vec::new();
        for name in [
            "run_compiled",
            "run_program",
            "statement_scan",
            "statement_program",
        ] {
            let body = fn_body(text, name, |l| l.starts_with('}'));
            if body.is_empty() {
                hits.push(format!("{COMPILE}: fn {name} not found"));
            }
            for (n, line) in body {
                if has_any(line, "compile_select_scan(|compile_predicate(") {
                    hits.push(format!("{COMPILE}:{n}: fn {name}: {}", line.trim()));
                }
            }
        }
        hits
    }

    pub fn one_population_attempt(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &ROOTS, |l| {
            has_any(
                l,
                "is_transient|MAX_POPULATION_ATTEMPTS|FaultRetry|fault_retries|population_retry|ViewHealth",
            )
        });
        let pick = |p: &str| under(p, &["crates/core/src"]) && p.ends_with(".rs");
        hits.extend(grep_product(files, pick, |l| l.contains("thread::sleep")));
        hits
    }

    pub fn one_identity_home(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &ROOTS, |l| {
            has_any(
                l,
                "adopt_durable_identity|identity_for_view|entries_for_view|imaginary_oids|identity_adopted|IdentityMirror",
            )
        });
        hits.extend(grep(files, &["crates/core/src"], |l| {
            declares(l, "HashMap<Tuple, Oid>|HashMap<Oid, ImaginaryObject>")
        }));
        let pick = |p: &str| {
            under(p, &["crates/oodb/src"])
                && p.ends_with(".rs")
                && p != "crates/oodb/src/identity.rs"
        };
        hits.extend(grep_product(files, pick, |l| {
            declares(l, "HashMap<Tuple, Oid>")
        }));
        hits
    }

    pub fn one_oid_home(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &ROOTS, |l| {
            has_any(l, "NEXT_OID|fresh_oid|ensure_oid_floor")
        });
        hits.extend(grep(files, &["crates/oodb/src/store.rs"], |l| {
            bounded(l, "static", true, true).is_some_and(|i| l[i..].contains("Atomic"))
        }));
        hits
    }

    pub fn one_script_executor(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &ROOTS, |l| {
            has_any(
                l,
                "execute_data_stmt|apply_ddl|DeleteMode|delete_object_with",
            )
        });
        let calls = callers(
            files,
            "execute_stmts_with_map(|execute_stmts(|execute_script(",
        );
        if calls.len() > 1 {
            hits.push(format!(
                "crates/core/src calls the script executor from more than one function: {}",
                calls.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        hits
    }

    pub fn one_catalog_commit(files: &[Source]) -> Vec<String> {
        let mut hits = Vec::new();
        let inserters = callers(files, "views.insert(");
        if inserters.len() != 1 {
            hits.push(format!(
                "crates/core/src inserts into the views map from {} functions, not one: {}",
                inserters.len(),
                inserters.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        const SESSION: &str = "crates/core/src/session.rs";
        let text = file(files, SESSION).map_or("", |f| &f.text);
        for (n, line) in fn_body(text, "open_with_options", |l| l == "    }") {
            if line != "    }" && line.contains("execute(") {
                hits.push(hit(SESSION, n, line));
            }
        }
        hits
    }

    pub fn one_class_graph(files: &[Source]) -> Vec<String> {
        let mut hits = grep_product(files, crate_rs, |l| {
            l.contains("is_subclass(") && l.contains("!=") && l.contains("&&")
        });
        hits.extend(grep(files, &ROOTS, |l| l.contains("struct SourceGraph")));
        hits
    }

    pub fn one_generation_event(files: &[Source]) -> Vec<String> {
        const ONE: &str = "crates/core/src/view/bind.rs: fn instantiate";
        let mut hits = grep(files, &ROOTS, |l| l.contains("view_populating"));
        let bumps = callers(files, "res_gen.fetch_add(");
        if bumps.len() != 1 || !bumps.contains(ONE) {
            hits.push(format!(
                "crates/core/src moves the resolution generation in [{}], not in {ONE} alone",
                bumps.into_iter().collect::<Vec<_>>().join(", ")
            ));
        }
        hits
    }

    pub fn one_import_subtree(files: &[Source]) -> Vec<String> {
        const ONLY: [&str; 3] = [
            "crates/core/src/view.rs: fn imported_below",
            "crates/core/src/view/bind.rs: fn add_hide",
            "crates/core/src/view/bind.rs: fn do_import",
        ];
        let walks = callers(files, "strict_descendants(");
        if walks.iter().ne(ONLY) {
            let walks: Vec<_> = walks.into_iter().collect();
            return vec![format!(
                "crates/core/src walks a subtree in [{}], not in [{}]",
                walks.join(", "),
                ONLY.join(", ")
            )];
        }
        Vec::new()
    }

    pub fn one_scan_access_path(files: &[Source]) -> Vec<String> {
        let mut hits = grep(files, &ROOTS, |l| {
            has_any(l, "index_candidates|scan_estimate")
        });
        hits.extend(grep_product(files, views_rs, |l| {
            has_any(
                l,
                "index_worthwhile|eq_conjunct|planner::conjuncts|estimate_select",
            )
        }));
        hits
    }

    /// The lines of a workflow that run `awk` or a recursive `grep`.
    pub fn structure_guards_live_here(ci: &str) -> Vec<String> {
        numbered(ci)
            .filter(|(_, l)| has_word(l, "awk") || l.contains("grep -r"))
            .map(|(n, l)| hit(".github/workflows/ci.yml", n, l))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Each guard reports its mutation and passes the clean form
// ---------------------------------------------------------------------

/// The hits of `guard` on the files `(path, text)`.
fn run(guard: Guard, files: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<Source> = files
        .iter()
        .map(|(path, text)| Source {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect();
    guard(&files)
}

/// Asserts that `guard` passes `clean` and reports exactly `expected` on
/// `mutated`.
#[track_caller]
fn mutation(guard: Guard, clean: &[(&str, &str)], mutated: &[(&str, &str)], expected: &[&str]) {
    assert_eq!(run(guard, clean), Vec::<String>::new(), "the clean form");
    assert_eq!(run(guard, mutated), expected, "the mutation");
}

const CTX: (&str, &str) = (
    "crates/query/src/ctx.rs",
    "thread_local! {\n    static CTX: Ctx;\n}\n",
);

#[test]
fn one_thread_local_reports_its_mutation() {
    let view = "\
use std::cell::Cell;

fn depth() -> u32 {
    0
}
";
    let cell = "\
use std::cell::Cell;

thread_local! { static DEPTH: Cell<u32> = Cell::new(0); }
";
    mutation(
        guard::one_thread_local_in_ov_query_and_ov_views,
        &[CTX, ("crates/core/src/view.rs", view)],
        &[CTX, ("crates/core/src/view.rs", cell)],
        &["crates/core/src/view.rs:3: thread_local! { static DEPTH: Cell<u32> = Cell::new(0); }"],
    );
    let old = "\
pub fn f() {
    with_degradation(|| run());
}
";
    mutation(
        guard::one_thread_local_in_ov_query_and_ov_views,
        &[CTX],
        &[CTX, ("tests/robustness.rs", old)],
        &["tests/robustness.rs:2: with_degradation(|| run());"],
    );
    // The one cell is required, not only allowed.
    assert_eq!(
        run(guard::one_thread_local_in_ov_query_and_ov_views, &[]),
        ["crates/query/src/ctx.rs: 0 lines begin with thread_local!, not 1"]
    );
}

#[test]
fn one_event_table_reports_its_mutation() {
    let clean = "\
fn populate() {
    let open = Event::ViewPopulation.open();
}
";
    let mutated = "\
fn populate() {
    metric_histogram!(\"views.population_ns\").record(ns);
}
";
    mutation(
        guard::one_event_table,
        &[("crates/core/src/view.rs", clean)],
        &[("crates/core/src/view.rs", mutated)],
        &["crates/core/src/view.rs:2: metric_histogram!(\"views.population_ns\").record(ns);"],
    );
    // The event table itself records them.
    assert!(run(
        guard::one_event_table,
        &[("crates/oodb/src/event.rs", mutated)]
    )
    .is_empty());
}

#[test]
fn one_resolution_rule_reports_its_mutation() {
    let clean = "\
fn pick(p: &ConflictPolicy) -> Choice {
    resolve::choose(p, defs)
}
";
    let mutated = "\
fn pick(p: &ConflictPolicy) -> Choice {
    match p {
        ConflictPolicy::CreationOrder => defs[0],
        _ => resolve::choose(p, defs),
    }
}
";
    mutation(
        guard::one_resolution_rule,
        &[("crates/query/src/typecheck.rs", clean)],
        &[("crates/query/src/typecheck.rs", mutated)],
        &["crates/query/src/typecheck.rs:3: ConflictPolicy::CreationOrder => defs[0],"],
    );
    // A policy passed as an argument is not a match on it.
    let arg = "let p = ConflictPolicy::Error, x => y;\n";
    assert!(run(guard::one_resolution_rule, &[("src/lib.rs", arg)]).is_empty());
    for line in [
        "if matches!(p, ConflictPolicy::Error) {",
        "let ConflictPolicy::Priority(l) = p else {",
    ] {
        assert_eq!(
            run(guard::one_resolution_rule, &[("src/lib.rs", line)]).len(),
            1,
            "{line}"
        );
    }
}

#[test]
fn one_verdict_home_reports_its_mutation() {
    let view = "\
impl View {
    verdicts: RwLock<Verdicts>,
    pub(crate) fn class_rule(&self) {
        let memo = self.verdicts.read();
    }

    #[cfg(test)]
    pub(crate) fn served_verdicts(&self) {
        let memo = self.verdicts.read();
    }

    fn invalidate(&self) {
        self.bump();
    }
}
";
    let bind = "\
fn bind() -> View {
    View {
        verdicts: RwLock::default(),
    }
}
";
    let mutated = view.replace("self.bump();", "self.verdicts.write().clear();");
    mutation(
        guard::one_verdict_home,
        &[
            ("crates/core/src/view.rs", view),
            ("crates/core/src/view/bind.rs", bind),
        ],
        &[
            ("crates/core/src/view.rs", &mutated),
            ("crates/core/src/view/bind.rs", bind),
        ],
        &["crates/core/src/view.rs:13: fn invalidate: self.verdicts.write().clear();"],
    );
    let memo = "\
struct Memo {
    cache: RwLock<HashMap<(ClassId, Symbol), ResolvedAttr>>,
}
";
    assert_eq!(
        run(
            guard::one_verdict_home,
            &[("crates/query/src/eval.rs", memo)]
        ),
        ["crates/query/src/eval.rs:2: cache: RwLock<HashMap<(ClassId, Symbol), ResolvedAttr>>,"]
    );
    let reader = "fn peek(v: &View) {\n    v.verdicts.read();\n}\n";
    assert_eq!(
        run(
            guard::one_verdict_home,
            &[("crates/core/src/view/scan.rs", reader)]
        ),
        ["crates/core/src/view/scan.rs:2: v.verdicts.read();"]
    );
}

#[test]
fn one_engine_per_loop_reports_its_mutation() {
    let clean = "pub enum Code {\n    Compiled(Program),\n}\n";
    let mutated = "\
pub enum Code {
    Compiled(Program),
}
fn run(c: Code) {
    if let Code::Interp(e) = c {}
}
";
    mutation(
        guard::one_engine_per_loop,
        &[("crates/query/src/compile.rs", clean)],
        &[("crates/query/src/compile.rs", mutated)],
        &["crates/query/src/compile.rs:5: if let Code::Interp(e) = c {}"],
    );
}

#[test]
fn no_split_scan_reports_its_mutation() {
    let clean = "\
pub struct ViewOptions {
    pub materialization: Materialization,
}
";
    let mutated = "\
pub struct ViewOptions {
    pub materialization: Materialization,
    pub parallel: ParallelConfig,
}
";
    mutation(
        guard::no_split_scan,
        &[("crates/core/src/view.rs", clean)],
        &[("crates/core/src/view.rs", mutated)],
        &["crates/core/src/view.rs:3: pub parallel: ParallelConfig,"],
    );
}

#[test]
fn one_budget_formula_reports_its_mutation() {
    let clean = "\
fn run_row(b: &Budget) -> Result<()> {
    eval::bind_row(b)?;
    Ok(())
}
";
    let mutated = "\
fn run_row(b: &Budget) -> Result<()> {
    b.step()?;
    Ok(())
}
";
    mutation(
        guard::one_budget_formula,
        &[("crates/query/src/compile.rs", clean)],
        &[("crates/query/src/compile.rs", mutated)],
        &["crates/query/src/compile.rs:2: b.step()?;"],
    );
    // `eval.rs` charges steps.
    assert!(run(
        guard::one_budget_formula,
        &[("crates/query/src/eval.rs", mutated)]
    )
    .is_empty());
}

#[test]
fn one_cache_policy_reports_its_mutation() {
    let clean = "\
impl Session {
    pub fn execute(&mut self, src: &str) -> Result<Output> {
        let out = self.run(src)?;
        Ok(out)
    }
}
";
    let mutated = clean.replace("Ok(out)", "self.propagate()?;\n        Ok(out)");
    mutation(
        guard::one_cache_policy,
        &[("crates/core/src/session.rs", clean)],
        &[("crates/core/src/session.rs", mutated.as_str())],
        &["crates/core/src/session.rs:4: self.propagate()?;"],
    );
    let alias = "pub use Materialization as Population;\n";
    assert_eq!(
        run(guard::one_cache_policy, &[("src/lib.rs", alias)]).len(),
        1
    );
    let longer = "pub use Materialization as PopulationMode;\n";
    assert!(run(guard::one_cache_policy, &[("src/lib.rs", longer)]).is_empty());
}

#[test]
fn one_owner_per_population_reports_its_mutation() {
    let clean = "\
impl Binder {
    pub fn over_all<'v>(
        mut self,
        views: impl IntoIterator<Item = &'v Arc<View>>,
    ) -> Self {
        let d: ViewDef = todo!();
    }
}
";
    let mutated = clean.replace("&'v Arc<View>", "&'v ViewDef");
    mutation(
        guard::one_owner_per_population,
        &[("crates/core/src/view/bind.rs", clean)],
        &[("crates/core/src/view/bind.rs", mutated.as_str())],
        &["crates/core/src/view/bind.rs:2: pub fn over_all<'v>("],
    );
    let field = "\
pub struct View {
    next_imaginary: AtomicU64,
}
";
    assert_eq!(
        run(
            guard::one_owner_per_population,
            &[("crates/core/src/view.rs", field)]
        )
        .len(),
        1
    );
    let overlap = "fn overlap(d: &ViewDef) {}\n";
    assert!(run(
        guard::one_owner_per_population,
        &[("crates/core/src/graph.rs", overlap)]
    )
    .is_empty());
}

#[test]
fn one_owner_per_derived_schema_reports_its_mutation() {
    let clean = "\
impl View {
    fn define_virtual_class(&self, name: Symbol, includes: &[IncludeSpec]) -> Result<ClassId> {
        let upstream = self.upstreams.first();
    }
}
";
    let mutated = "\
impl View {
    fn define_virtual_class(
        &self,
        name: Symbol,
        includes: &[IncludeSpec],
        upstream: Option<(usize, ClassId)>,
    ) -> Result<ClassId> {
        let upstream = self.upstreams.first();
    }
}
";
    mutation(
        guard::one_owner_per_derived_schema,
        &[("crates/core/src/view/bind.rs", clean)],
        &[("crates/core/src/view/bind.rs", mutated)],
        &["crates/core/src/view/bind.rs:2: fn define_virtual_class("],
    );
    // Another fn's signature may name it.
    let other = "fn define_virtual_classes(upstream: usize) {}\n";
    assert!(run(
        guard::one_owner_per_derived_schema,
        &[("crates/core/src/view.rs", other)]
    )
    .is_empty());
}

const COMPILE_CLEAN: &str = "\
pub(crate) fn run_compiled(src: &dyn DataSource, expr: &Expr) -> Result<Value> {
    let code = fill_scan_code(expr);
    run_scan(src, &code)
}

fn statement_scan(fp: u64) -> Scan {
    cached(fp)
}

fn statement_program(fp: u64) -> Program {
    cached(fp)
}

pub(crate) fn run_program(src: &dyn DataSource, prog: &Program) -> Result<Value> {
    exec(src, prog)
}

fn fill_scan_code(expr: &Expr) -> Scan {
    compile_select_scan(expr)
}
";

#[test]
fn one_compile_per_shape_reports_its_mutation() {
    let mutated = COMPILE_CLEAN.replace(
        "fill_scan_code(expr);\n    run",
        "compile_select_scan(expr);\n    run",
    );
    mutation(
        guard::one_compile_per_shape,
        &[("crates/query/src/compile.rs", COMPILE_CLEAN)],
        &[("crates/query/src/compile.rs", mutated.as_str())],
        &["crates/query/src/compile.rs:2: fn run_compiled: let code = compile_select_scan(expr);"],
    );
    let missing = COMPILE_CLEAN.replace("fn statement_program(", "fn statement_prog(");
    assert_eq!(
        run(
            guard::one_compile_per_shape,
            &[("crates/query/src/compile.rs", missing.as_str())]
        ),
        ["crates/query/src/compile.rs: fn statement_program not found"]
    );
}

#[test]
fn one_population_attempt_reports_its_mutation() {
    let clean = "\
fn recompute(&self) -> Result<Extent> {
    self.attempt()
}
";
    let mutated = "\
fn recompute(&self) -> Result<Extent> {
    std::thread::sleep(Duration::from_millis(1));
    self.attempt()
}
";
    mutation(
        guard::one_population_attempt,
        &[("crates/core/src/view/degrade.rs", clean)],
        &[("crates/core/src/view/degrade.rs", mutated)],
        &["crates/core/src/view/degrade.rs:2: std::thread::sleep(Duration::from_millis(1));"],
    );
    let retry = "const MAX_POPULATION_ATTEMPTS: u32 = 3;\n";
    assert_eq!(
        run(
            guard::one_population_attempt,
            &[("examples/navy.rs", retry)]
        )
        .len(),
        1
    );
}

#[test]
fn one_identity_home_reports_its_mutation() {
    let clean = "\
pub struct DurableCore {
    dir: PathBuf,
    log: Mutex<Log>,
}
";
    let mutated = "\
pub struct DurableCore {
    dir: PathBuf,
    identity: HashMap<Tuple, Oid>,
    log: Mutex<Log>,
}
";
    mutation(
        guard::one_identity_home,
        &[("crates/oodb/src/durable.rs", clean)],
        &[("crates/oodb/src/durable.rs", mutated)],
        &["crates/oodb/src/durable.rs:3: identity: HashMap<Tuple, Oid>,"],
    );
    // identity.rs is the table's home; a view holds no table at all.
    assert!(run(
        guard::one_identity_home,
        &[("crates/oodb/src/identity.rs", mutated)]
    )
    .is_empty());
    let view = "\
pub struct View {
    pub(crate) objects: RwLock<HashMap<Oid, ImaginaryObject>>,
}
";
    assert_eq!(
        run(
            guard::one_identity_home,
            &[("crates/core/src/view.rs", view)]
        )
        .len(),
        1
    );
}

#[test]
fn one_oid_home_reports_its_mutation() {
    let clean = "\
pub struct Store {
    oids: Arc<OidAllocator>,
}
";
    let mutated = "\
static NEXT: AtomicU64 = AtomicU64::new(0);
pub struct Store {
    oids: Arc<OidAllocator>,
}
";
    mutation(
        guard::one_oid_home,
        &[("crates/oodb/src/store.rs", clean)],
        &[("crates/oodb/src/store.rs", mutated)],
        &["crates/oodb/src/store.rs:1: static NEXT: AtomicU64 = AtomicU64::new(0);"],
    );
    let counter = "fn next() -> Oid {\n    fresh_oid()\n}\n";
    assert_eq!(
        run(
            guard::one_oid_home,
            &[("crates/oodb/src/database.rs", counter)]
        )
        .len(),
        1
    );
}

const SESSION: &str = "\
impl Session {
    fn run_on_database(&mut self) {
        execute_stmts_with_map(&mut self.system);
    }
}
";

#[test]
fn one_script_executor_reports_its_mutation() {
    let catalog = "\
pub fn define_class(sys: &mut System) {
    run_on(sys)
}
";
    let mutated = "\
pub fn define_class(sys: &mut System) {
    execute_stmts(sys, &stmts)
}
";
    mutation(
        guard::one_script_executor,
        &[("crates/core/src/session.rs", SESSION), ("crates/core/src/catalog.rs", catalog)],
        &[("crates/core/src/session.rs", SESSION), ("crates/core/src/catalog.rs", mutated)],
        &["crates/core/src calls the script executor from more than one function: crates/core/src/catalog.rs: fn define_class, crates/core/src/session.rs: fn run_on_database"],
    );
    let entry = "fn execute_data_stmt() {}\n";
    assert_eq!(
        run(guard::one_script_executor, &[("tests/catalog.rs", entry)]).len(),
        1
    );
}

const OPEN: &str = "\
impl Session {
    pub fn open_with_options(dir: &Path) -> Result<Session> {
        let staged = Self::stage(&sys, defs);
        s.commit(staged);
    }

    fn commit(&mut self, staged: Vec<Arc<View>>) {
        self.views.insert(name, view);
    }

    pub fn execute(&mut self) {}
}
";

#[test]
fn one_catalog_commit_reports_its_mutation() {
    let put = OPEN.replace(
        "pub fn execute(&mut self) {}",
        "fn put_view(&mut self, v: View) {\n        self.views.insert(v.name, v);\n    }",
    );
    mutation(
        guard::one_catalog_commit,
        &[("crates/core/src/session.rs", OPEN)],
        &[("crates/core/src/session.rs", put.as_str())],
        &["crates/core/src inserts into the views map from 2 functions, not one: crates/core/src/session.rs: fn commit, crates/core/src/session.rs: fn put_view"],
    );
    let replay = OPEN.replace("s.commit(staged);", "s.execute(&views_ovq)?;");
    assert_eq!(
        run(
            guard::one_catalog_commit,
            &[("crates/core/src/session.rs", replay.as_str())]
        ),
        ["crates/core/src/session.rs:4: s.execute(&views_ovq)?;"]
    );
}

#[test]
fn one_class_graph_reports_its_mutation() {
    let clean = "\
fn among(schema: &Schema, defining: &[ClassId]) -> Vec<ClassId> {
    schema.minimal(defining)
}
";
    let mutated = "\
fn among(schema: &Schema, defining: &[ClassId]) -> Vec<ClassId> {
    defining
        .iter()
        .copied()
        .filter(|&c| !defining.iter().any(|&d| d != c && schema.is_subclass(d, c)))
        .collect()
}
";
    mutation(
        guard::one_class_graph,
        &[("crates/oodb/src/resolve.rs", clean)],
        &[("crates/oodb/src/resolve.rs", mutated)],
        &["crates/oodb/src/resolve.rs:5: .filter(|&c| !defining.iter().any(|&d| d != c && schema.is_subclass(d, c)))"],
    );
    // A test module below the first `#[cfg(test)]` may keep the filter as
    // a reference.
    let reference = format!("{clean}#[cfg(test)]\n{mutated}");
    assert!(run(
        guard::one_class_graph,
        &[("crates/oodb/src/resolve.rs", reference.as_str())]
    )
    .is_empty());
    let adapter = "pub struct SourceGraph<'a>(pub &'a dyn DataSource);\n";
    assert_eq!(
        run(guard::one_class_graph, &[("tests/helpers.rs", adapter)]),
        ["tests/helpers.rs:1: pub struct SourceGraph<'a>(pub &'a dyn DataSource);"]
    );
}

#[test]
fn one_generation_event_reports_its_mutation() {
    let view = "\
impl View {
    fn in_population<R>(&self, c: ClassId, f: impl FnOnce() -> R) -> R {
        ov_query::in_view(self.token, Some(c), f)
    }
}
";
    let bind = "\
impl View {
    pub fn instantiate(&self, name: Symbol, args: &[Value]) -> Result<ClassId> {
        self.res_gen.fetch_add(1, Ordering::Release);
        Ok(class)
    }
}
";
    let bracket_bump = view.replace(
        "        ov_query::in_view(self.token, Some(c), f)\n",
        "        self.res_gen.fetch_add(1, Ordering::Release);\n        ov_query::in_view(self.token, Some(c), f)\n",
    );
    mutation(
        guard::one_generation_event,
        &[
            ("crates/core/src/view.rs", view),
            ("crates/core/src/view/bind.rs", bind),
        ],
        &[
            ("crates/core/src/view.rs", &bracket_bump),
            ("crates/core/src/view/bind.rs", bind),
        ],
        &["crates/core/src moves the resolution generation in [crates/core/src/view.rs: fn in_population, crates/core/src/view/bind.rs: fn instantiate], not in crates/core/src/view/bind.rs: fn instantiate alone"],
    );
    // The one bump is required, not only allowed.
    assert_eq!(
        run(guard::one_generation_event, &[("crates/core/src/view.rs", view)]),
        ["crates/core/src moves the resolution generation in [], not in crates/core/src/view/bind.rs: fn instantiate alone"]
    );
    let reader = "if ov_query::view_populating(self.token) {\n";
    assert_eq!(
        run(
            guard::one_generation_event,
            &[
                ("crates/core/src/view/bind.rs", bind),
                ("crates/core/src/view.rs", reader)
            ]
        ),
        ["crates/core/src/view.rs:1: if ov_query::view_populating(self.token) {"]
    );
}

#[test]
fn one_import_subtree_reports_its_mutation() {
    let view = "\
impl View {
    fn imported_below(&self, class: ClassId) -> Vec<(ClassId, usize, ClassId)> {
        let below = self.sources[source].read().schema.strict_descendants(orig);
    }
}
impl DataSource for View {
    fn extent(&self, class: ClassId) -> ov_query::Result<Vec<Oid>> {
        for (_, source, orig) in self.imported_below(class) {
            out.extend(self.sources[source].read().store.extent(orig));
        }
    }
}
";
    let bind = "\
impl View {
    fn do_import(&mut self, system: &System, import: &Import) -> Result<Vec<Symbol>> {
        ids.extend(db.schema.strict_descendants(root));
    }
    fn add_hide(&mut self, hide: &Hide) -> Result<()> {
        for d in schema.strict_descendants(c) {
    }
}
";
    let walk = view.replace(
        "        for (_, source, orig) in self.imported_below(class) {\n",
        "        let schema = self.schema.read();\n        \
         for d in std::iter::once(class).chain(schema.strict_descendants(class)) {\n",
    );
    mutation(
        guard::one_import_subtree,
        &[
            ("crates/core/src/view.rs", view),
            ("crates/core/src/view/bind.rs", bind),
        ],
        &[
            ("crates/core/src/view.rs", &walk),
            ("crates/core/src/view/bind.rs", bind),
        ],
        &[
            "crates/core/src walks a subtree in [crates/core/src/view.rs: fn extent, \
           crates/core/src/view.rs: fn imported_below, crates/core/src/view/bind.rs: fn add_hide, \
           crates/core/src/view/bind.rs: fn do_import], not in [crates/core/src/view.rs: fn \
           imported_below, crates/core/src/view/bind.rs: fn add_hide, \
           crates/core/src/view/bind.rs: fn do_import]",
        ],
    );
    // The helper is required, not only allowed.
    let inline = view.replace("strict_descendants(orig)", "subtree(orig)");
    assert_eq!(
        run(
            guard::one_import_subtree,
            &[
                ("crates/core/src/view.rs", &inline),
                ("crates/core/src/view/bind.rs", bind)
            ]
        ),
        [
            "crates/core/src walks a subtree in [crates/core/src/view/bind.rs: fn add_hide, \
          crates/core/src/view/bind.rs: fn do_import], not in [crates/core/src/view.rs: fn \
          imported_below, crates/core/src/view/bind.rs: fn add_hide, \
          crates/core/src/view/bind.rs: fn do_import]"
        ]
    );
}

#[test]
fn one_scan_access_path_reports_its_mutation() {
    let clean = "\
fn populate(&self) {
    let scan = planner::choose_scan(&q);
}
";
    let mutated = "\
fn populate(&self) {
    let keys = planner::conjuncts(&q);
    let scan = planner::choose_scan(&q);
}
";
    mutation(
        guard::one_scan_access_path,
        &[("crates/core/src/materialize.rs", clean)],
        &[("crates/core/src/materialize.rs", mutated)],
        &["crates/core/src/materialize.rs:2: let keys = planner::conjuncts(&q);"],
    );
    // The view layer's own tests may call the rule's pieces.
    assert!(run(
        guard::one_scan_access_path,
        &[("crates/core/src/tests/plans.rs", mutated)]
    )
    .is_empty());
}

#[test]
fn structure_guards_live_here_reports_its_mutation() {
    let clean = "\
jobs:
  test:
    steps:
      - name: Test
        run: cargo test --workspace
      - name: Canary
        run: grep -q 'x' out.txt
";
    let mutated = "\
jobs:
  test:
    steps:
      - name: Test
        run: cargo test --workspace
      - name: One guard
        run: |
          if grep -rn 'Bad' crates; then exit 1; fi
          awk '/^x/' f.rs
      - name: Canary
        run: grep -q 'x' out.txt
";
    assert!(guard::structure_guards_live_here(clean).is_empty());
    assert_eq!(
        guard::structure_guards_live_here(mutated),
        [
            ".github/workflows/ci.yml:8: if grep -rn 'Bad' crates; then exit 1; fi",
            ".github/workflows/ci.yml:9: awk '/^x/' f.rs",
        ]
    );
}

// ---------------------------------------------------------------------
// Walker edge cases
// ---------------------------------------------------------------------

/// A banned name below the first line that begins `#[cfg(test)]` is test
/// code, which the product-code guards do not read.
#[test]
fn a_name_below_the_first_cfg_test_is_not_seen() {
    let tail = "\
fn run() {}

#[cfg(test)]
mod tests {
    fn old() {
        let _ = Code::Interp;
    }
}
";
    assert!(run(
        guard::one_engine_per_loop,
        &[("crates/query/src/exec.rs", tail)]
    )
    .is_empty());
    let above = tail.replace("fn run() {}", "fn run() {\n    let _ = Code::Interp;\n}");
    assert_eq!(
        run(
            guard::one_engine_per_loop,
            &[("crates/query/src/exec.rs", above.as_str())]
        ),
        ["crates/query/src/exec.rs:2: let _ = Code::Interp;"]
    );
    // A guard that reads whole files sees it there too.
    let mirror = "\
#[cfg(test)]
mod tests {
    struct IdentityMirror;
}
";
    assert_eq!(
        run(
            guard::one_identity_home,
            &[("crates/oodb/src/durable.rs", mirror)]
        )
        .len(),
        1
    );
}

/// Only a `#[cfg(test)]` at the start of a line ends product code: an
/// indented one marks a single test item inside an `impl`.
#[test]
fn an_indented_cfg_test_does_not_cut() {
    let text = "\
impl View {
    #[cfg(test)]
    fn count(&self) {}

    fn run(&self) {
        let _ = Code::Interp;
    }
}
";
    assert_eq!(
        run(
            guard::one_engine_per_loop,
            &[("crates/core/src/view.rs", text)]
        ),
        ["crates/core/src/view.rs:6: let _ = Code::Interp;"]
    );
}

/// The guards that name the fn a line sits in skip `//` lines (a doc
/// example calls the executor); the others read comments too.
#[test]
fn a_comment_line_is_skipped_only_where_the_step_skipped_it() {
    let doc = "\
//! ```
//! execute_script(&mut sys, SRC).unwrap();
//! ```
pub fn helper() {}
";
    let files = [
        ("crates/core/src/session.rs", SESSION),
        ("crates/core/src/lib.rs", doc),
    ];
    assert!(run(guard::one_script_executor, &files).is_empty());
    let said = "\
/// Unlike a thread_local! cell, the context is passed.
fn f() {}
";
    assert_eq!(
        run(
            guard::one_thread_local_in_ov_query_and_ov_views,
            &[CTX, ("crates/core/src/lib.rs", said)]
        ),
        ["crates/core/src/lib.rs:1: /// Unlike a thread_local! cell, the context is passed."]
    );
}

/// The walker reads the tree the guards need: every guard has files to
/// read, and this file, which names every banned item, is not among them.
#[test]
fn the_walker_reads_the_tree_but_not_this_file() {
    let paths: Vec<&str> = tree().iter().map(|f| f.path.as_str()).collect();
    for path in [
        "crates/query/src/ctx.rs",
        "crates/query/src/compile.rs",
        "crates/core/src/session.rs",
        "crates/core/src/view.rs",
        "crates/core/src/view/bind.rs",
        "crates/oodb/src/store.rs",
        "src/lib.rs",
        "tests/catalog.rs",
        "examples/navy.rs",
    ] {
        assert!(paths.contains(&path), "{path} not read");
    }
    assert!(!paths.contains(&SELF));
}
