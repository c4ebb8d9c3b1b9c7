//! The ledger's own span recorder.
//!
//! Spans are recorded from outside the program, around each call the
//! ledger makes into a layer's public functions.  They stay in memory
//! during the run and are written out as JSON lines when the child
//! ends.  A layer's *self time* is its span's duration minus the part of
//! that interval its child spans cover — children of one parent may
//! overlap (two shard workers under one fork-join span), so the covered
//! part is the union of the child intervals, not their sum.

use prorp_server::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    /// The layer call this interval covers (`sim.step`, `sim.register`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The interval's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
///
/// Worker threads record into their own tracer over the same origin and
/// are [`adopt`](Tracer::adopt)ed by the parent afterwards, so nothing
/// is shared while the measured code runs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        // Stamp last, so the recorder's own bookkeeping stays outside.
        self.spans[id].start_ns = self.ns(Instant::now());
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an already-measured interval as a child of `parent`;
    /// returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append a finished worker's spans; its root spans hang under the
    /// innermost open span of `self`.
    pub fn adopt(&mut self, worker: Tracer) {
        assert!(worker.open.is_empty(), "worker left spans open");
        let base = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(worker.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base).or(under),
            ..s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).iter().sum()
    }

    /// Write one JSON object per span: `name`, `start_ns`, `end_ns`,
    /// `self_ns`, `parent` (line number of the causing span, or null) and
    /// the `workload` the trace belongs to.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self_ns) {
            let line = Json::object(vec![
                ("name", Json::Str(span.name.into())),
                ("start_ns", Json::Int(span.start_ns as i64)),
                ("end_ns", Json::Int(span.end_ns as i64)),
                ("self_ns", Json::Int(own as i64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("workload", Json::Str(workload.into())),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span itself).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        match totals.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, t)) => *t += own,
            None => totals.push((span.name, own)),
        }
    }
    totals.sort_by_key(|&(_, t)| std::cmp::Reverse(t));
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("root", 0, 100, None),
            // Two workers overlapping on [30, 50): they cover [10, 70).
            span("worker", 10, 50, Some(0)),
            span("worker", 30, 70, Some(0)),
            // A grandchild only shortens its own parent.
            span("step", 35, 60, Some(2)),
            // A child fully inside already-covered time adds nothing.
            span("noise", 40, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 15, 25, 5]);
    }

    #[test]
    fn sequential_self_times_sum_to_the_root() {
        let spans = [
            span("root", 0, 1_000, None),
            span("a", 0, 400, Some(0)),
            span("b", 400, 900, Some(0)),
            span("c", 450, 500, Some(2)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own.iter().sum::<u64>(), 1_000);
        assert_eq!(
            self_time_by_name(&spans),
            vec![("b", 450), ("a", 400), ("root", 100), ("c", 50)]
        );
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span("root", 100, 200, None),
            span("late", 150, 260, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn tracer_nests_and_adopts_worker_spans() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let root = main.enter("root");
        main.scope("inner", || ());
        let mut worker = Tracer::new(origin);
        let w = worker.enter("shard");
        worker.scope("step", || ());
        worker.exit(w);
        main.adopt(worker);
        main.exit(root);
        let names: Vec<_> = main.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("inner", Some(0)),
                ("shard", Some(0)),
                ("step", Some(2)),
            ]
        );
        assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(main.durations_ns("step").len(), 1);
    }
}
