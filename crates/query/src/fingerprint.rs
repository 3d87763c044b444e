//! Query fingerprinting: literal-normalized identity for workload grouping.
//!
//! Two queries that differ only in their literals — `Age > 21` vs
//! `Age > 65`, `Name = "a"` vs `Name = "b"` — are the same *shape* and
//! should aggregate under one workload entry. The fingerprint of an
//! expression is the FNV-1a 64 hash of its normalized rendering: the
//! expression printed with every literal as the placeholder `?`
//! ([`normalize_expr`] is the definition). It is a pure function of that
//! text: no pointers, no interner indices, no process state — the same
//! query text produces the same fingerprint in every session, which is what
//! lets workload files from different runs be compared line-by-line.
//!
//! [`fingerprint_hash`] computes it by *streaming*: the printer writes the
//! normalized text straight into the hash, so neither a normalized tree nor
//! a string is built. The plan cache is keyed by that `u64`.
//! [`fingerprint_expr`] returns the forms people read — 16 hex digits and
//! the normalized text — for the workload registry, EXPLAIN and the slow
//! log.
//!
//! Names are deliberately *not* normalized: `select P from P in Person` and
//! `select E from E in Employee` are different shapes (different classes,
//! different costs). Only `Expr::Lit` nodes are folded.

use std::fmt;

use ov_oodb::{sym, Expr};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 state; text written into it is hashed.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a 64 over `bytes`. Stable across platforms and sessions — the
/// algorithm has no seed and no pointer-derived state.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// Replaces every literal in `e` with the placeholder name `?`, preserving
/// all structure, names, and operators. The definition of normalization:
/// `fingerprint_hash(e) == fnv1a(normalize_expr(e).to_string())`
/// (property-tested), though no fingerprint is computed this way.
pub fn normalize_expr(e: &Expr) -> Expr {
    crate::exec::rewrite_expr(e, &mut |expr| {
        if matches!(expr, Expr::Lit(_)) {
            Some(Expr::Name(sym("?")))
        } else {
            None
        }
    })
}

/// The fingerprint of a parsed query as a number: FNV-1a 64 of its
/// normalized rendering, computed without building that rendering.
pub fn fingerprint_hash(e: &Expr) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    // Unreachable expect: the sink never fails and the printer has no
    // failure of its own.
    e.write_normalized(&mut h)
        .expect("hashing sink is infallible");
    h.0
}

/// Fingerprints a parsed query for display: returns `(fingerprint,
/// normalized_text)` where `normalized_text` is the literal-normalized
/// rendering of `e` and `fingerprint` is [`fingerprint_hash`] as 16
/// lowercase hex digits.
pub fn fingerprint_expr(e: &Expr) -> (String, String) {
    let mut normalized = String::new();
    e.write_normalized(&mut normalized)
        .expect("writing to a String is infallible");
    let fp = format!("{:016x}", fnv1a(normalized.as_bytes()));
    (fp, normalized)
}

/// Fingerprints a query string. Returns `None` when the text does not
/// parse (unparseable queries have no shape to aggregate under).
pub fn fingerprint_query(query: &str) -> Option<(String, String)> {
    let e = crate::parser::parse_expr(query).ok()?;
    Some(fingerprint_expr(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_fold_but_names_do_not() {
        let (fp_a, norm_a) =
            fingerprint_query("select P from P in Person where P.Age > 21").unwrap();
        let (fp_b, norm_b) =
            fingerprint_query("select P from P in Person where P.Age > 65").unwrap();
        assert_eq!(fp_a, fp_b);
        assert_eq!(norm_a, norm_b);
        assert!(norm_a.contains('?'), "literal should fold: {norm_a}");

        let (fp_c, _) = fingerprint_query("select E from E in Employee where E.Age > 21").unwrap();
        assert_ne!(fp_a, fp_c, "different class = different shape");
    }

    #[test]
    fn string_and_int_literals_collapse_to_the_same_shape() {
        let (fp_a, _) =
            fingerprint_query("select P from P in Person where P.Name = \"x\"").unwrap();
        let (fp_b, _) = fingerprint_query("select P from P in Person where P.Name = 7").unwrap();
        assert_eq!(fp_a, fp_b);
    }

    #[test]
    fn fingerprints_are_stable_across_sessions() {
        // Hard-coded expectations: if these change, every workload file
        // ever written becomes incomparable with new runs. The values are
        // a pure FNV-1a 64 of the normalized rendering below — nothing
        // session- or process-dependent feeds the hash.
        let (fp, norm) = fingerprint_query("select P from P in Person where P.Age > 21").unwrap();
        assert_eq!(norm, "(select P from P in Person where P.Age > ?)");
        assert_eq!(fp, format!("{:016x}", fnv1a(norm.as_bytes())));
        assert_eq!(fp, "dac72a2eff38dcb7");
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn unparseable_queries_have_no_fingerprint() {
        assert!(fingerprint_query("select where from").is_none());
    }
}
