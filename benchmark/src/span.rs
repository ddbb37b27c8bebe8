//! In-memory spans recorded from the benchmark's own files, around each
//! call into a layer. A span has a name (the layer), a start, an end,
//! the span that caused it, and the id of the op it belongs to. Spans
//! stay in memory while the benchmark runs and are written out at exit.
//!
//! A layer's **self time** is its span's duration minus the part of it
//! its child spans cover; [`aggregate`] sums calls, busy time and self
//! time per name.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent" / "no label" / "no op".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer measured, e.g. `fx_core.executor.run`.
    pub name: &'static str,
    /// Index into [`Recorder::labels`] (a node name), or [`NONE`].
    pub label: u32,
    /// Index of the causing span in the same recorder, or [`NONE`].
    pub parent: u32,
    /// The op this span belongs to, or [`NONE`] for set-up work.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span buffer. Client threads each own one, sharing the
/// epoch, and are merged with [`Recorder::absorb`] after they join.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub labels: Vec<String>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            labels: Vec::new(),
            open: Vec::new(),
            op: NONE,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to op `op` ([`NONE`] = set-up).
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            label: NONE,
            parent: self.open.last().copied().unwrap_or(NONE),
            op: self.op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one; returns
    /// its duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.seconds()
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn label(&mut self, text: &str) -> u32 {
        self.labels.push(text.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Attach an already-measured child (a `RunProfile` node time) to
    /// `parent`.
    pub fn child(
        &mut self,
        parent: u32,
        name: &'static str,
        label: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            label,
            parent,
            op: self.spans[parent as usize].op,
            start_ns,
            end_ns,
        });
    }

    /// Append another thread's spans, re-basing their indices.
    pub fn absorb(&mut self, other: Recorder) {
        let span_base = self.spans.len() as u32;
        let label_base = self.labels.len() as u32;
        self.labels.extend(other.labels);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += span_base;
            }
            if s.label != NONE {
                s.label += label_base;
            }
            s
        }));
    }

    /// Write spans as JSON lines: a header, then one span per line.
    /// Spans of ops past `max_ops` are left out (the header says how
    /// many), so a 30 000-op run does not write a 100 MB file; set-up
    /// spans are always kept.
    pub fn write_jsonl(&self, path: &Path, max_ops: u32) -> std::io::Result<()> {
        let kept = |s: &Span| s.op == NONE || s.op < max_ops;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let header = Json::obj([
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            (
                "spans_written",
                Json::Num(self.spans.iter().filter(|s| kept(s)).count() as f64),
            ),
            ("ops_written_below", Json::Num(max_ops as f64)),
            ("time_unit", Json::str("ns since the child's epoch")),
        ]);
        writeln!(out, "{}", header.render())?;
        let opt = |v: u32| {
            if v == NONE {
                Json::Null
            } else {
                Json::Num(v as f64)
            }
        };
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| kept(s)) {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                (
                    "label",
                    self.labels
                        .get(s.label as usize)
                        .map_or(Json::Null, |l| Json::str(l.as_str())),
                ),
                ("parent", opt(s.parent)),
                ("op", opt(s.op)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    /// Σ span durations, seconds.
    pub busy_s: f64,
    /// Σ (span duration − its children's durations), seconds.
    pub self_s: f64,
}

impl Agg {
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_s / self.calls as f64
        }
    }
}

/// Calls, busy time and self time per span name over the spans `keep`
/// selects. Children are subtracted from their parent whether or not
/// they are themselves kept.
pub fn aggregate(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let dur = s.end_ns - s.start_ns;
        let agg = out.entry(s.name).or_default();
        agg.calls += 1;
        agg.busy_s += dur as f64 * 1e-9;
        agg.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, op: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            label: NONE,
            parent,
            op,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("run", NONE, 0, 0, 1000),
            span("conv", 0, 0, 100, 500),
            span("conv", 0, 0, 500, 700),
            span("relu", 0, 0, 700, 750),
            span("run", NONE, 1, 2000, 2400),
            span("conv", 4, 1, 2000, 2400),
        ];
        let agg = aggregate(&spans, |_| true);
        let run = agg["run"];
        assert_eq!(run.calls, 2);
        assert!((run.busy_s - 1400e-9).abs() < 1e-15);
        // 1000 - (400 + 200 + 50) = 350; 400 - 400 = 0.
        assert!((run.self_s - 350e-9).abs() < 1e-15);
        let conv = agg["conv"];
        assert_eq!(conv.calls, 3);
        assert!((conv.busy_s - 1000e-9).abs() < 1e-15);
        assert_eq!(conv.busy_s, conv.self_s);
        // Filtering by op keeps the subtraction of unkept children.
        let op0 = aggregate(&spans, |s| s.op == 0 && s.name == "run");
        assert!((op0["run"].self_s - 350e-9).abs() < 1e-15);
        assert!(!op0.contains_key("conv"));
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.set_op(7);
        let outer = a.begin("outer");
        a.time("inner", || std::hint::black_box(1 + 1));
        let l = a.label("node");
        let (s, e) = (a.spans[outer as usize].start_ns, a.now_ns());
        a.child(outer, "kid", l, s, e);
        a.end(outer);
        assert_eq!(a.spans[1].parent, outer);
        assert_eq!(a.spans[2].op, 7);

        let mut b = Recorder::new(epoch);
        let root = b.begin("root");
        let l = b.label("other");
        b.child(root, "kid", l, 0, 1);
        b.end(root);
        a.absorb(b);
        assert_eq!(a.spans.len(), 5);
        assert_eq!(a.spans[3].parent, NONE);
        assert_eq!(a.spans[4].parent, 3);
        assert_eq!(a.labels[a.spans[4].label as usize], "other");
    }
}
