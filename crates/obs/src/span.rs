//! The span/event model and deterministic trace buffers.
//!
//! A *span* is one unit of control-plane work with a start and end in
//! **simulated** time: a lifecycle transition of the Algorithm 1 FSM, one
//! stage (or the whole) of an Algorithm 5 staged resume workflow, one
//! predictor invocation of Algorithm 4, or a history-page
//! checkpoint/recover during a rebalance move.  An *event* is a zero-width span
//! (`start == end`), used for points such as logins or breaker trips.
//!
//! Because spans are stamped with simulated timestamps only — never wall
//! clocks — and ordered by the canonical key
//! `(start, database id, per-database sequence number)`, a merged trace is
//! **bit-identical at any shard count**: every database lives on exactly
//! one shard, so its per-database emission order (the sequence number) is
//! independent of how databases are partitioned across workers.  This
//! extends the deterministic-merge discipline of `TelemetryLog::merge` to
//! trace streams.
//!
//! Nothing on that path sorts a whole trace: a [`TraceBuffer`] is written
//! in the order it will be read, and [`TraceBuffer::merge`] copies
//! stretches between heads.

use prorp_types::{DatabaseId, DbMap, DbState, Timestamp, WorkflowStage};

/// How one predictor invocation (Algorithm 4) ended.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredictOutcome {
    /// The forecaster produced a usable next-activity prediction.
    Predicted,
    /// The forecaster failed; the engine recorded a forecast failure.
    Failed,
    /// The circuit breaker was open, so the engine skipped the forecaster
    /// and fell back to the reactive policy.
    BreakerFallback,
}

impl PredictOutcome {
    /// Every value, in declaration order.
    pub const ALL: [Self; 3] = [Self::Predicted, Self::Failed, Self::BreakerFallback];

    /// Stable lowercase label used by the exporters.
    pub const fn label(self) -> &'static str {
        match self {
            PredictOutcome::Predicted => "predicted",
            PredictOutcome::Failed => "failed",
            PredictOutcome::BreakerFallback => "breaker-fallback",
        }
    }
}

/// A circuit-breaker state change observed on one database.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BreakerTransition {
    /// Repeated forecast failures tripped the breaker open.
    Opened,
    /// A successful re-probe closed the breaker again.
    Closed,
}

impl BreakerTransition {
    /// Every value, in declaration order.
    pub const ALL: [Self; 2] = [Self::Opened, Self::Closed];

    /// Stable lowercase label used by the exporters.
    pub const fn label(self) -> &'static str {
        match self {
            BreakerTransition::Opened => "opened",
            BreakerTransition::Closed => "closed",
        }
    }
}

/// How one attempt of a resume-workflow stage ended.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StageResult {
    /// The attempt completed and the workflow advanced.
    Ok,
    /// The attempt failed; a retry is scheduled with backoff.
    Retry,
    /// The attempt failed and the retry budget is exhausted; the workflow
    /// is escalated to the diagnostics runner.
    Exhausted,
}

impl StageResult {
    /// Every value, in declaration order.
    pub const ALL: [Self; 3] = [Self::Ok, Self::Retry, Self::Exhausted];

    /// Stable lowercase label used by the exporters.
    pub const fn label(self) -> &'static str {
        match self {
            StageResult::Ok => "ok",
            StageResult::Retry => "retry",
            StageResult::Exhausted => "exhausted",
        }
    }
}

/// How a whole staged resume workflow ended.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkflowOutcome {
    /// All four stages completed and the database reached `Resumed`.
    Completed,
    /// A stage exhausted its retries and the workflow gave up.
    GaveUp,
}

impl WorkflowOutcome {
    /// Every value, in declaration order.
    pub const ALL: [Self; 2] = [Self::Completed, Self::GaveUp];

    /// Stable lowercase label used by the exporters.
    pub const fn label(self) -> &'static str {
        match self {
            WorkflowOutcome::Completed => "completed",
            WorkflowOutcome::GaveUp => "gave-up",
        }
    }
}

/// Which proactive control-plane decision a provenance record explains.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DecisionAction {
    /// The engine committed to a pause-ahead: the database went
    /// physically paused on the strength of the forecast.
    PhysicalPause,
    /// The engine re-checked the pause condition and deferred: the
    /// database stayed logically paused awaiting predicted activity.
    DeferPause,
    /// A scheduled proactive resume fired and the database was
    /// re-allocated ahead of its predicted login.
    ProactiveResume,
}

impl DecisionAction {
    /// Every value, in declaration order.
    pub const ALL: [Self; 3] = [Self::PhysicalPause, Self::DeferPause, Self::ProactiveResume];

    /// Stable lowercase label used by the exporters.
    pub const fn label(self) -> &'static str {
        match self {
            DecisionAction::PhysicalPause => "physical-pause",
            DecisionAction::DeferPause => "defer-pause",
            DecisionAction::ProactiveResume => "proactive-resume",
        }
    }
}

/// The compact provenance of one proactive decision: every input the
/// engine acted on, in integers only (the confidence basis is kept as a
/// hit/total count pair, not a float), so records stay `Eq` and merge
/// deterministically.
///
/// Replayable: feeding the database's Login spans at or before the
/// decision instant through [`crate::timetravel::replay_as_of`] must
/// reproduce `predicted` — the check behind `prorp-trace why`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DecisionExplain {
    /// What the engine decided.
    pub action: DecisionAction,
    /// The predicted next login the decision used (`None` = no usable
    /// forecast; the engine was running reactively).
    pub predicted: Option<Timestamp>,
    /// Login events in the trimmed history window the forecast saw.
    pub history_len: u32,
    /// Pattern hits backing the winning prediction (confidence
    /// numerator); 0 without a forecast.
    pub confidence_hits: u32,
    /// Windows examined by the pattern search (confidence denominator);
    /// 0 without a forecast.
    pub confidence_total: u32,
    /// Whether the circuit breaker was open at decision time.
    pub breaker_open: bool,
}

/// What a trace span describes.
///
/// One variant per observable control-plane action; the taxonomy mirrors
/// the paper's algorithms so an operator reading a trace can map every
/// record back to a pseudocode line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// A lifecycle transition of the Algorithm 1 FSM (Figure 4).
    Lifecycle {
        /// State before the transition.
        from: DbState,
        /// State after the transition.
        to: DbState,
    },
    /// A customer login event; `available` is the QoS outcome.
    Login {
        /// Whether the database could serve the login immediately.
        available: bool,
    },
    /// One predictor invocation (Algorithm 4 / `repredict`).
    Predict {
        /// How the invocation ended.
        outcome: PredictOutcome,
    },
    /// A circuit-breaker state change.
    Breaker {
        /// Which way the breaker moved.
        transition: BreakerTransition,
    },
    /// One attempt of one resume-workflow stage (Algorithm 5 control
    /// plane).  The span covers the simulated stage latency; retries are
    /// zero-width events at the failure point.
    WorkflowStage {
        /// The stage attempted.
        stage: WorkflowStage,
        /// 1-based attempt number.
        attempt: u32,
        /// How the attempt ended.
        result: StageResult,
    },
    /// A whole staged resume workflow, from start to completion/give-up.
    Workflow {
        /// How the workflow ended.
        outcome: WorkflowOutcome,
    },
    /// A database selected by the proactive resume scan (Algorithm 5).
    ProactiveResume,
    /// A diagnostics-runner mitigation of a stuck workflow (§7).
    Mitigation {
        /// Whether the mitigation escalated (repeat offender).
        escalated: bool,
    },
    /// A history page-image checkpoint taken during a rebalance move.
    Checkpoint {
        /// Size of the checkpoint image in bytes.
        bytes: u64,
    },
    /// A history recovery from a checkpoint page image.
    Recover {
        /// Size of the recovered image in bytes.
        bytes: u64,
    },
    /// Decision provenance: the inputs behind one proactive
    /// resume/pause/defer decision (recorded when `ObsConfig::explain`
    /// is on; queried by `prorp-trace why`).
    Decision {
        /// The recorded inputs and the action they produced.
        explain: DecisionExplain,
    },
}

impl SpanKind {
    /// Stable lowercase label naming the variant, used as the `kind` field
    /// of the JSONL export and by the query layer.
    pub const fn label(&self) -> &'static str {
        match self {
            SpanKind::Lifecycle { .. } => "lifecycle",
            SpanKind::Login { .. } => "login",
            SpanKind::Predict { .. } => "predict",
            SpanKind::Breaker { .. } => "breaker",
            SpanKind::WorkflowStage { .. } => "workflow-stage",
            SpanKind::Workflow { .. } => "workflow",
            SpanKind::ProactiveResume => "proactive-resume",
            SpanKind::Mitigation { .. } => "mitigation",
            SpanKind::Checkpoint { .. } => "checkpoint",
            SpanKind::Recover { .. } => "recover",
            SpanKind::Decision { .. } => "decision",
        }
    }
}

/// One record of a trace: a span plus its canonical-order key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Simulated start of the span.
    pub start: Timestamp,
    /// Simulated end of the span (`== start` for point events).
    pub end: Timestamp,
    /// The database the span belongs to.
    pub db: DatabaseId,
    /// Per-database emission sequence number (0-based).  Unique within a
    /// database, so `(start, db, seq)` totally orders any merged trace.
    pub seq: u64,
    /// What happened.
    pub kind: SpanKind,
}

impl TraceRecord {
    /// The canonical merge-order key.
    #[inline]
    pub fn sort_key(&self) -> (i64, u64, u64) {
        (self.start.as_secs(), self.db.raw(), self.seq)
    }

    /// Span duration in simulated time (zero for point events).
    #[inline]
    pub fn duration(&self) -> prorp_types::Seconds {
        self.end.since(self.start)
    }
}

/// Where a [`TraceBuffer`] keeps one record: which of its two lanes, and
/// the record's index in that lane.
///
/// A position holds until the buffer is consumed
/// ([`into_lanes`](TraceBuffer::into_lanes) puts the lanes in order in
/// place); until then [`TraceBuffer::get`] reads the record back.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TracePos {
    /// Whether the record went to the backdated lane (its `start` was
    /// before the in-order lane's last `start`).
    pub backdated: bool,
    /// The record's index in its lane.
    pub index: usize,
}

/// Destination for spans emitted by instrumented components.
///
/// Implementations must not look at wall clocks: everything needed to
/// reproduce a trace bit-for-bit is in the arguments.
pub trait TraceSink {
    /// Record a span covering `[start, end]` in simulated time.
    fn span(&mut self, start: Timestamp, end: Timestamp, db: DatabaseId, kind: SpanKind);

    /// Record a zero-width point event.
    fn event(&mut self, at: Timestamp, db: DatabaseId, kind: SpanKind) {
        self.span(at, at, db, kind);
    }
}

/// A sink that drops everything — the disabled-observability fast path.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn span(&mut self, _: Timestamp, _: Timestamp, _: DatabaseId, _: SpanKind) {}
}

/// An in-memory sink that assigns per-database sequence numbers as spans
/// arrive (so each database's emission order survives shard merges) and
/// writes them in the order they will be read.
///
/// The event loop emits spans at non-decreasing simulated time and
/// nearly all start at that time; the exceptions are *backdated* — a
/// workflow or one of its stages is reported when it ends and starts
/// earlier.  So there are two lanes: a span whose `start` is not before
/// the in-order lane's last `start` appends to that lane, anything else
/// goes to the (small) backdated lane.  Canonical `(start, db, seq)`
/// order then costs a sort of the equal-`start` groups seen to arrive out
/// of database order plus a sort of the backdated lane — never a sort
/// of, or even a pass over, the buffer.
#[derive(Clone, Default, Debug)]
pub struct TraceBuffer {
    /// `start` never decreases along this lane.
    in_order: Vec<TraceRecord>,
    /// Ascending positions in `in_order` of the records that sort before
    /// their predecessor (same `start`, smaller database): the only
    /// places where the lane is not yet canonical.
    misplaced: Vec<usize>,
    /// Spans that started before the in-order lane's last `start`.
    backdated: Vec<TraceRecord>,
    next_seq: DbMap<u64>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.in_order.len() + self.backdated.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a span covering `[start, end]`, as [`TraceSink::span`]
    /// does, and say where the buffer keeps it.
    pub fn push(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        db: DatabaseId,
        kind: SpanKind,
    ) -> TracePos {
        let seq = self.next_seq.entry(db).or_insert(0);
        let record = TraceRecord {
            start,
            end,
            db,
            seq: *seq,
            kind,
        };
        *seq += 1;
        let backdated = match self.in_order.last() {
            Some(last) if start < last.start => true,
            Some(last) if start == last.start && db < last.db => {
                self.misplaced.push(self.in_order.len());
                false
            }
            _ => false,
        };
        let lane = if backdated {
            &mut self.backdated
        } else {
            &mut self.in_order
        };
        lane.push(record);
        TracePos {
            backdated,
            index: lane.len() - 1,
        }
    }

    /// The record kept at `pos`, as [`push`](Self::push) reported it.
    pub fn get(&self, pos: TracePos) -> Option<&TraceRecord> {
        let lane = if pos.backdated {
            &self.backdated
        } else {
            &self.in_order
        };
        lane.get(pos.index)
    }

    /// Consume the buffer into its two lanes — in-order, then backdated
    /// — each in canonical [`TraceRecord::sort_key`] order.  A shard
    /// hands both to the fleet-wide [`merge`](Self::merge) as they are.
    pub fn into_lanes(mut self) -> [Vec<TraceRecord>; 2] {
        // `start` ascends along the in-order lane and a database's `seq`
        // ascends with emission: only databases sharing one `start` can
        // sit out of order, and `span` noted each place where two do.
        let lane = &mut self.in_order;
        let mut sorted_to = 0;
        for at in self.misplaced {
            if at < sorted_to {
                continue; // inside the group the previous entry sorted
            }
            let same_start = |r: &&TraceRecord| r.start == lane[at].start;
            let from = at - lane[..at].iter().rev().take_while(same_start).count();
            sorted_to = at + lane[at..].iter().take_while(same_start).count();
            lane[from..sorted_to].sort_unstable_by_key(|r| (r.db, r.seq));
        }
        self.backdated.sort_unstable_by_key(TraceRecord::sort_key);
        [self.in_order, self.backdated]
    }

    /// Consume the buffer, yielding its records in canonical
    /// [`TraceRecord::sort_key`] order (the two lanes merged).
    pub fn into_records(self) -> Vec<TraceRecord> {
        Self::merge(self.into_lanes().into())
    }

    /// Merge record streams — the lanes of every shard's buffer — into
    /// one canonical trace.
    ///
    /// The output is ordered by [`TraceRecord::sort_key`].  Each database
    /// lives on exactly one shard, so its sequence numbers came from a
    /// single buffer and the result is independent of the shard layout.
    ///
    /// Parts are expected in canonical order, as
    /// [`into_lanes`](Self::into_lanes) leaves them.  The merge takes the
    /// part with the smallest head and copies its whole stretch up to the
    /// next-smallest head in one `extend_from_slice`; a single non-empty
    /// part is returned as it is, without a copy.  The same pass checks
    /// the order it relies on, and a part found out of order turns the
    /// call into flatten-and-sort — what ad-hoc callers always got
    /// (equal keys keep part order either way).
    pub fn merge(parts: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
        let mut parts: Vec<Vec<TraceRecord>> =
            parts.into_iter().filter(|part| !part.is_empty()).collect();
        if parts.len() <= 1 {
            let mut only = parts.pop().unwrap_or_default();
            if !only.windows(2).all(|w| w[0].sort_key() <= w[1].sort_key()) {
                only.sort_by_key(TraceRecord::sort_key);
            }
            return only;
        }
        let mut merged = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        let mut canonical = true;
        let mut rest: Vec<&[TraceRecord]> = parts.iter().map(Vec::as_slice).collect();
        let head_of = |part: &[TraceRecord]| part.first().map(TraceRecord::sort_key);
        let mut heads: Vec<_> = rest.iter().map(|part| head_of(part)).collect();
        loop {
            // The smallest and second-smallest heads; the part index
            // breaks ties between equal keys, which a sharded run never
            // produces (a database's records sit in one buffer).
            let (mut first, mut second) = (None, None);
            for (i, head) in heads.iter().enumerate() {
                let Some(head) = *head else { continue };
                let key = (head, i);
                if first.map_or(true, |smallest| key < smallest) {
                    (first, second) = (Some(key), first);
                } else if second.map_or(true, |runner_up| key < runner_up) {
                    second = Some(key);
                }
            }
            let Some((mut last, i)) = first else { break };
            // The stretch ends before the first record past the runner-up
            // (compared, so that record's order is checked too).
            let mut stretch = 1;
            for record in &rest[i][1..] {
                let key = record.sort_key();
                canonical &= last <= key;
                if second.is_some_and(|bound| (key, i) > bound) {
                    break;
                }
                (last, stretch) = (key, stretch + 1);
            }
            let (taken, left) = rest[i].split_at(stretch);
            merged.extend_from_slice(taken);
            (rest[i], heads[i]) = (left, head_of(left));
        }
        if !canonical {
            merged = parts.concat();
            merged.sort_by_key(TraceRecord::sort_key);
        }
        merged
    }
}

impl TraceSink for TraceBuffer {
    #[inline]
    fn span(&mut self, start: Timestamp, end: Timestamp, db: DatabaseId, kind: SpanKind) {
        self.push(start, end, db, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(buf: &mut TraceBuffer, start: i64, db: u64) {
        buf.event(
            Timestamp(start),
            DatabaseId(db),
            SpanKind::Login { available: true },
        );
    }

    #[test]
    fn sequence_numbers_are_per_database() {
        let mut buf = TraceBuffer::new();
        rec(&mut buf, 10, 1);
        rec(&mut buf, 20, 2);
        rec(&mut buf, 30, 1);
        let records = buf.into_records();
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 0, "db-2 starts its own sequence");
        assert_eq!(records[2].seq, 1);
    }

    #[test]
    fn merge_is_shard_layout_invariant() {
        // Same per-database streams, partitioned two different ways.
        let mut a1 = TraceBuffer::new();
        rec(&mut a1, 10, 1);
        rec(&mut a1, 10, 2);
        rec(&mut a1, 30, 1);
        let merged_one = TraceBuffer::merge(vec![a1.into_records()]);

        let mut b1 = TraceBuffer::new();
        rec(&mut b1, 10, 1);
        rec(&mut b1, 30, 1);
        let mut b2 = TraceBuffer::new();
        rec(&mut b2, 10, 2);
        let merged_two = TraceBuffer::merge(vec![b2.into_records(), b1.into_records()]);

        assert_eq!(merged_one, merged_two);
    }

    #[test]
    fn backdated_spans_take_the_second_lane() {
        let mut buf = TraceBuffer::new();
        rec(&mut buf, 50, 2);
        rec(&mut buf, 50, 1);
        // Backdated: starts before the in-order lane's last `start`.
        buf.span(
            Timestamp(10),
            Timestamp(50),
            DatabaseId(1),
            SpanKind::Workflow {
                outcome: WorkflowOutcome::Completed,
            },
        );
        // Not before it, though behind the backdated span's emission.
        rec(&mut buf, 50, 1);
        rec(&mut buf, 60, 2);
        assert_eq!(buf.len(), 5);

        let key = |r: &TraceRecord| (r.start.as_secs(), r.db.raw(), r.seq);
        let [in_order, backdated] = buf.clone().into_lanes();
        let keys: Vec<_> = in_order.iter().map(key).collect();
        assert_eq!(keys, [(50, 1, 0), (50, 1, 2), (50, 2, 0), (60, 2, 1)]);
        assert_eq!(backdated.iter().map(key).collect::<Vec<_>>(), [(10, 1, 1)]);
        let all: Vec<_> = buf.into_records().iter().map(key).collect();
        assert_eq!(all[0], (10, 1, 1));
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_sorts_backdated_parts_before_k_way_merging() {
        // A part handed over out of canonical order (here: as a sink
        // without lanes would have left a backdated span) must still come
        // out flatten-and-sorted.
        let mut a = TraceBuffer::new();
        rec(&mut a, 50, 1);
        a.span(
            Timestamp(10),
            Timestamp(50),
            DatabaseId(1),
            SpanKind::Workflow {
                outcome: WorkflowOutcome::Completed,
            },
        );
        let mut a = a.into_records();
        a.reverse();
        assert!(a[0].start > a[1].start, "deliberately unsorted");
        let mut b = TraceBuffer::new();
        rec(&mut b, 20, 2);
        rec(&mut b, 60, 2);
        let b = b.into_records();

        let mut want: Vec<TraceRecord> = a.iter().chain(b.iter()).copied().collect();
        want.sort_by_key(TraceRecord::sort_key);
        assert_eq!(TraceBuffer::merge(vec![a, b]), want);
    }

    /// The path the lanes replaced, kept as their oracle: one buffer in
    /// emission order, sorted whole.
    #[derive(Default)]
    struct SortedWhole {
        records: Vec<TraceRecord>,
        next_seq: std::collections::HashMap<DatabaseId, u64>,
    }

    impl TraceSink for SortedWhole {
        fn span(&mut self, start: Timestamp, end: Timestamp, db: DatabaseId, kind: SpanKind) {
            let seq = self.next_seq.entry(db).or_insert(0);
            self.records.push(TraceRecord {
                start,
                end,
                db,
                seq: *seq,
                kind,
            });
            *seq += 1;
        }
    }

    impl SortedWhole {
        fn into_records(mut self) -> Vec<TraceRecord> {
            self.records.sort_by_key(TraceRecord::sort_key);
            self.records
        }
    }

    use proptest::prelude::*;

    /// `(start, length, db)` of one span.  Few instants and few
    /// databases, so ties at one `start` across databases are the rule;
    /// `start`s are drawn freely, so a span may be backdated by any
    /// amount, also against the in-order lane's own last `start`.
    fn spans(max: usize) -> impl Strategy<Value = Vec<(i64, i64, u64)>> {
        prop::collection::vec((0i64..8, 0i64..3, 0u64..4), 0..max)
    }

    fn emit(sink: &mut impl TraceSink, spans: &[(i64, i64, u64)]) {
        for &(start, len, db) in spans {
            let kind = SpanKind::Checkpoint { bytes: len as u64 };
            sink.span(
                Timestamp(start),
                Timestamp(start + len),
                DatabaseId(db),
                kind,
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lanes + merge ≡ emission order stably sorted by `sort_key`,
        /// for zero, one and many records.
        #[test]
        fn lanes_are_the_sorted_buffer(spans in spans(60)) {
            let (mut lanes, mut whole) = (TraceBuffer::new(), SortedWhole::default());
            emit(&mut lanes, &spans);
            emit(&mut whole, &spans);
            prop_assert_eq!(lanes.len(), spans.len());
            prop_assert_eq!(lanes.is_empty(), spans.is_empty());
            for lane in lanes.clone().into_lanes() {
                prop_assert!(lane.windows(2).all(|w| w[0].sort_key() < w[1].sort_key()));
            }
            prop_assert_eq!(lanes.into_records(), whole.into_records());
        }

        /// Every position `push` reports reads back the record it took,
        /// in either lane, however many records came after it.
        #[test]
        fn every_position_reads_back_its_record(spans in spans(60)) {
            let mut buf = TraceBuffer::new();
            let mut taken = Vec::new();
            for &(start, len, db) in &spans {
                let kind = SpanKind::Checkpoint { bytes: len as u64 };
                let (start, end, db) = (Timestamp(start), Timestamp(start + len), DatabaseId(db));
                let pos = buf.push(start, end, db, kind);
                let backdated = buf.in_order.last().is_some_and(|last| start < last.start);
                prop_assert_eq!(pos.backdated, backdated);
                taken.push((pos, (start, end, db, kind)));
            }
            for (pos, want) in taken {
                let got = buf.get(pos).map(|r| (r.start, r.end, r.db, r.kind));
                prop_assert_eq!(got, Some(want));
            }
            let past = TracePos { backdated: false, index: buf.in_order.len() };
            prop_assert!(buf.get(past).is_none());
        }

        /// `merge` ≡ flatten-and-sort over 0–8 parts: empty ones, a
        /// single one, equal keys in different parts (every part numbers
        /// its databases from 0) and one part left deliberately unsorted.
        #[test]
        fn merge_is_flatten_and_sort(
            parts in prop::collection::vec(spans(20), 0..9),
            unsorted in 0usize..8,
        ) {
            let mut parts: Vec<Vec<TraceRecord>> = parts
                .iter()
                .map(|spans| {
                    let mut buf = TraceBuffer::new();
                    emit(&mut buf, spans);
                    buf.into_records()
                })
                .collect();
            if let Some(part) = parts.get_mut(unsorted) {
                part.reverse();
            }
            let mut want: Vec<TraceRecord> = parts.iter().flatten().copied().collect();
            want.sort_by_key(TraceRecord::sort_key);
            prop_assert_eq!(TraceBuffer::merge(parts), want);
        }
    }

    #[test]
    fn merging_a_single_part_returns_it_without_a_copy() {
        let mut buf = TraceBuffer::new();
        emit(&mut buf, &[(1, 0, 0), (2, 0, 1), (3, 1, 0)]);
        let part = buf.into_records();
        let at = part.as_ptr();
        let merged = TraceBuffer::merge(vec![Vec::new(), part, Vec::new()]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.as_ptr(), at, "the part itself, not a copy of it");
        assert!(TraceBuffer::merge(Vec::new()).is_empty());
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut sink = NullSink;
        sink.event(Timestamp(0), DatabaseId(0), SpanKind::ProactiveResume);
        sink.span(
            Timestamp(0),
            Timestamp(5),
            DatabaseId(0),
            SpanKind::Checkpoint { bytes: 64 },
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            SpanKind::Lifecycle {
                from: DbState::Resumed,
                to: DbState::LogicallyPaused
            }
            .label(),
            "lifecycle"
        );
        assert_eq!(PredictOutcome::BreakerFallback.label(), "breaker-fallback");
        assert_eq!(WorkflowOutcome::GaveUp.label(), "gave-up");
        assert_eq!(StageResult::Exhausted.label(), "exhausted");
        assert_eq!(BreakerTransition::Opened.label(), "opened");
    }
}
