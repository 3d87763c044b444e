//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans live in memory during the run and are written out as
//! JSON lines when it ends; a layer's number is its span's *self time*:
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// At most this many spans are kept for the trace file (the first ones);
/// self-time samples are kept for every span regardless.
const MAX_STORED_SPANS: usize = 200_000;

struct Stored {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    stored: Option<u32>,
}

/// A single-threaded span recorder.
pub struct Tracer {
    t0: Instant,
    op: u64,
    stack: Vec<Open>,
    spans: Vec<Stored>,
    self_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            self_ns: BTreeMap::new(),
        }
    }

    /// Starts the next operation: spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, a child of whichever span is
    /// open. Returns `f`'s result and the span's duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let stored = (self.spans.len() < MAX_STORED_SPANS).then(|| {
            let parent = self.stack.last().and_then(|o| o.stored);
            self.spans.push(Stored {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
            });
            (self.spans.len() - 1) as u32
        });
        let start_ns = self.now();
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            stored,
        });
        let r = f(self);
        let end_ns = self.now();
        let open = self.stack.pop().expect("span stack is balanced");
        debug_assert_eq!(open.name, name);
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.stored {
            let s = &mut self.spans[i as usize];
            s.start_ns = open.start_ns;
            s.end_ns = end_ns;
        }
        self.self_ns
            .entry(name)
            .or_default()
            .push(dur.saturating_sub(open.child_ns));
        (r, dur)
    }

    /// Self-time samples of every span called `name`.
    pub fn self_times(&self, name: &str) -> &[u64] {
        self.self_ns.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the self times of every span called `name`.
    pub fn self_total(&self, name: &str) -> u64 {
        self.self_times(name).iter().sum()
    }

    /// Writes the stored spans, one JSON object per line:
    /// `{"name", "start_ns", "end_ns", "parent", "op"}`, where `parent` is
    /// the line index (0-based) of the enclosing span or `null`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::new();
        t.next_op();
        let spin = |ns: u64| {
            let t0 = Instant::now();
            while (t0.elapsed().as_nanos() as u64) < ns {}
        };
        let (_, outer) = t.span("outer", |t| {
            spin(200_000);
            t.span("inner", |_| spin(300_000));
        });
        let inner = t.self_times("inner")[0];
        let outer_self = t.self_times("outer")[0];
        assert!(inner >= 300_000);
        assert!(outer >= inner + 200_000);
        assert_eq!(outer_self, outer - inner);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].op, 1);
        assert_eq!(t.self_total("missing"), 0);
    }
}
