//! Interned identifiers.
//!
//! Schema and attribute names appear in every tuple and every expression, so
//! they are interned once into a process-global table and carried around as a
//! copyable [`Symbol`]. Interning is global (rather than per-database) so that
//! symbols remain meaningful across databases and views — a view imports
//! classes from several databases and must compare their attribute names
//! directly.
//!
//! `Symbol` ordering is **by string**, not by intern index, so that any
//! ordered container keyed by symbols (tuples, dumps, error listings) is
//! deterministic regardless of interning order. Equality and hashing are by
//! intern index: there is one interner per process, so equal text means equal
//! index.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use parking_lot::RwLock;

/// An interned string. Cheap to copy, compare and hash; resolves back to its
/// text via [`Symbol::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// Capacity of the first text segment; segment `k` holds `FIRST_SEG << k`
/// texts, so 27 segments cover every `u32` id.
const FIRST_SEG: usize = 64;
const SEGMENTS: usize = 27;

/// Id → text, append-only. Readers ([`Symbol::as_str`], and through it every
/// symbol comparison inside a tuple lookup) take no lock: a segment and each
/// of its cells are published exactly once, by `Symbol::new`, before the id
/// that addresses them escapes.
static TEXTS: [OnceLock<Box<[OnceLock<&'static str>]>>; SEGMENTS] =
    [const { OnceLock::new() }; SEGMENTS];

/// The (segment, offset) cell that holds the text of symbol `id`.
fn locate(id: u32) -> (usize, usize) {
    let n = id as usize + FIRST_SEG;
    let seg = (n / FIRST_SEG).ilog2() as usize;
    (seg, n - (FIRST_SEG << seg))
}

/// Text → id. Only interning takes this lock.
fn interner() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

impl Symbol {
    /// Interns `text` and returns its symbol. Repeated calls with equal text
    /// return equal symbols.
    pub fn new(text: &str) -> Symbol {
        let lock = interner();
        if let Some(&id) = lock.read().get(text) {
            return Symbol(id);
        }
        let mut map = lock.write();
        if let Some(&id) = map.get(text) {
            return Symbol(id);
        }
        // Names are schema-level identifiers: a small, bounded set per
        // process, so leaking the backing string is the right trade.
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        // Unreachable expect: 2^32 distinct symbols would exhaust memory
        // first (each one leaks its backing string by design).
        let id = u32::try_from(map.len()).expect("interner overflow");
        let (seg, off) = locate(id);
        let cells = TEXTS[seg].get_or_init(|| {
            std::iter::repeat_with(OnceLock::new)
                .take(FIRST_SEG << seg)
                .collect()
        });
        // Ids are handed out under the write lock, one per new text, so
        // this cell has never been set.
        cells[off]
            .set(leaked)
            .expect("symbol ids are assigned exactly once");
        map.insert(leaked, id);
        Symbol(id)
    }

    /// The interned text.
    pub fn as_str(self) -> &'static str {
        let (seg, off) = locate(self.0);
        TEXTS[seg]
            .get()
            .and_then(|cells| cells[off].get())
            .expect("a Symbol exists only after its text was published")
    }
}

/// Shorthand for [`Symbol::new`].
pub fn sym(text: &str) -> Symbol {
    Symbol::new(text)
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        assert_eq!(sym("Person"), sym("Person"));
        assert_ne!(sym("Person"), sym("Employee"));
    }

    #[test]
    fn resolves_to_text() {
        assert_eq!(sym("Address").as_str(), "Address");
    }

    #[test]
    fn orders_by_string() {
        // Intern in reverse lexicographic order; comparison must still be
        // lexicographic.
        let z = sym("zzz-order-test");
        let a = sym("aaa-order-test");
        assert!(a < z);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(sym("City").to_string(), "City");
        assert_eq!(format!("{:?}", sym("City")), "`City`");
    }

    #[test]
    fn concurrent_interning_keeps_string_order_and_hash_eq_coherence() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        use std::sync::Barrier;
        let h = |s: Symbol| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        // Enough distinct names to cross several segment boundaries while
        // other threads are reading.
        const THREADS: usize = 8;
        const NAMES: usize = 600;
        let name = |i: usize| format!("conc-sym-{i:04}");
        let barrier = Barrier::new(THREADS);
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        // Every thread interns every name, each starting at
                        // a different offset, so first interning of a name
                        // races with lookups and comparisons of it.
                        let mut mine = vec![None; NAMES];
                        let mut prev: Option<Symbol> = None;
                        for k in 0..NAMES {
                            let i = (k + t * NAMES / THREADS) % NAMES;
                            let s = sym(&name(i));
                            assert_eq!(s.as_str(), name(i));
                            if let Some(p) = prev {
                                assert_eq!(p.cmp(&s), p.as_str().cmp(s.as_str()));
                                assert_eq!(p == s, p.as_str() == s.as_str());
                            }
                            prev = Some(s);
                            mine[i] = Some(s);
                        }
                        mine.into_iter().map(|s| s.expect("visited")).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread panicked"))
                .collect()
        });
        for syms in &per_thread {
            for (i, s) in syms.iter().enumerate() {
                // One id per text, whichever thread won the race…
                assert_eq!(*s, per_thread[0][i]);
                assert_eq!(h(*s), h(per_thread[0][i]));
            }
            // …and ordering is the text's, not the race's.
            assert!(syms.windows(2).all(|w| w[0] < w[1]));
        }
        let distinct: std::collections::HashSet<Symbol> = per_thread[0].iter().copied().collect();
        assert_eq!(distinct.len(), NAMES);
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        assert_eq!(sym("").as_str(), "");
    }
}
