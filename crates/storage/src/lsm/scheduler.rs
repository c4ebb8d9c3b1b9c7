//! The off-hot-path compaction scheduler.
//!
//! In [`CompactionMode::Deterministic`] (the default) every flush runs
//! its compaction work inline, exactly where the mutation happened — no
//! threads, and the run hierarchy is always fully maintained.  In
//! [`CompactionMode::Background`] the event-loop path only *enqueues*:
//! a flush sends its freshly built run to a [`CompactionScheduler`]
//! worker thread, which owns the authoritative [`Levels`] for every
//! registered store, applies the same `push_flush` maintenance the
//! inline mode would, and publishes an immutable image (cheap `Arc`
//! clones of the runs) after every step.  The foreground keeps the
//! not-yet-applied runs readable in a pending list, so reads never wait
//! on the worker and never miss data.
//!
//! # Registration is at a store's first flush
//!
//! Attaching a store only hands it the way to the worker.  The shared
//! slot, the `Register` message (which brings that first run with it)
//! and the worker's map entry come into being when the store first
//! flushes a memtable — the first moment there is anything to compact.
//! Most databases are written rarely and never fill one ("Serverless in
//! the Wild": most functions are invoked rarely, a few carry the
//! traffic); such a store costs an `Arc` clone to attach and detaches
//! without a lock or a message.  A registered store detaches with a
//! barrier and no message either: the worker notices that a slot's
//! handle is gone when its map has next doubled.
//!
//! # The determinism argument
//!
//! The worker consumes one FIFO inbox per scheduler.  A store's
//! messages (its registration, carrying the hierarchy and the range
//! tombstones recorded so far, then flushes and trims) arrive in exactly
//! its mutation order, and the worker applies exactly the maintenance the
//! deterministic mode applies inline, with exactly the tombstone set
//! that mode would have seen at the same flush — so after a barrier the
//! physical run hierarchy, the compaction effort ledger, and the GC
//! floor are *bit-identical* across the two modes.  Timing moves;
//! state does not.  The conformance suite holds both modes to the same
//! `btree ≡ lsm` oracle, and `storage_bench` records the stall removed
//! from the event loop (`compaction_stall_ns == 0` in background mode).

use super::compaction::{CompactionEffort, Levels};
use super::run::Run;
use super::tombstone::RangeTombstone;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Where compaction work runs — the `SimConfig` / `storage_bench` knob.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CompactionMode {
    /// Compaction runs inline at each flush (no threads; the
    /// conformance suite's explicit-barrier mode).
    #[default]
    Deterministic,
    /// Flushes enqueue; a per-scheduler worker thread compacts.
    Background,
}

impl CompactionMode {
    /// Stable lowercase label for experiment tables and JSON output.
    pub const fn label(self) -> &'static str {
        match self {
            CompactionMode::Deterministic => "deterministic",
            CompactionMode::Background => "background",
        }
    }
}

/// The worker-published view of one store's run hierarchy.
#[derive(Clone, Debug)]
pub(crate) struct Published {
    /// Flush messages incorporated so far.
    pub applied: u64,
    /// The maintained hierarchy (immutable image; runs are shared).
    pub levels: Levels,
    /// Cumulative compaction effort performed by the worker.
    pub effort: CompactionEffort,
    /// Wall-clock nanoseconds the worker spent compacting this store.
    pub compaction_ns: u64,
    /// Set when the scheduler shut down with this store still attached;
    /// the store then falls back to finishing its compaction inline.
    pub dead: bool,
    /// Threads inside [`StoreHandle::wait_applied`]: the worker signals
    /// the condition variable (a system call) for them, not per flush.
    pub waiters: u32,
}

/// Shared slot between one store's foreground handle and the worker.
#[derive(Debug)]
pub(crate) struct StoreShared {
    pub state: Mutex<Published>,
    pub cv: Condvar,
}

#[derive(Debug)]
enum Msg {
    Register {
        id: u64,
        levels: Levels,
        trims: Vec<RangeTombstone>,
        shared: Arc<StoreShared>,
        /// The flush that made the store register.
        run: Arc<Run>,
    },
    Flush {
        id: u64,
        run: Arc<Run>,
    },
    Trim {
        id: u64,
        tomb: RangeTombstone,
    },
    Shutdown,
}

/// The way to a scheduler's worker — all an attached store holds, and
/// all it costs, until its first flush registers it.
#[derive(Debug, Default)]
pub(crate) struct SchedulerLink {
    inbox: Mutex<Inbox>,
    /// Signalled when a message arrives for a sleeping worker.
    arrived: Condvar,
}

/// The worker's FIFO.  A queue under one lock rather than an `mpsc`
/// channel, for what shares that lock — registration and shutdown are
/// ordered with the messages — and for the wake-up: one per message to
/// a sleeping worker, after the sender let go of the lock (a channel
/// wakes its receiver into the lock it still holds, two context
/// switches where one will do: 5 700 → 2 100 a run on the ledger's
/// `des_sharded_full`, one per flush).
#[derive(Debug, Default)]
struct Inbox {
    queue: VecDeque<Msg>,
    /// Stores registered so far.
    registered: u64,
    /// Set, under this lock, as `Shutdown` is queued: a registration the
    /// worker is sent always precedes the shutdown, so the worker either
    /// adopts a store or the store is told it never will.
    closed: bool,
    /// The worker waits on `arrived`.
    asleep: bool,
}

impl SchedulerLink {
    /// Queue `msg` and wake a sleeping worker — once the lock is
    /// released, so that it does not wake into it.
    fn push(&self, mut inbox: MutexGuard<'_, Inbox>, msg: Msg) {
        inbox.queue.push_back(msg);
        let wake = std::mem::take(&mut inbox.asleep);
        drop(inbox);
        if wake {
            self.arrived.notify_one();
        }
    }

    /// Queue `msg` for a worker that still accepts messages (one that
    /// shut down has marked its stores dead; they finish inline).
    fn send(&self, msg: Msg) {
        let inbox = self.inbox.lock().expect("scheduler inbox poisoned");
        if !inbox.closed {
            self.push(inbox, msg);
        }
    }

    /// The worker thread: apply messages in arrival order until
    /// `Shutdown`, sleeping whenever the inbox is empty.
    fn serve(&self) {
        let mut stores: HashMap<u64, WorkerStore> = HashMap::new();
        let mut sweep_at = 64;
        let mut batch = VecDeque::new();
        'serve: loop {
            {
                let mut inbox = self.inbox.lock().expect("scheduler inbox poisoned");
                while inbox.queue.is_empty() {
                    inbox.asleep = true;
                    inbox = self.arrived.wait(inbox).expect("scheduler inbox poisoned");
                }
                std::mem::swap(&mut inbox.queue, &mut batch);
            }
            for msg in batch.drain(..) {
                match msg {
                    Msg::Register {
                        id,
                        levels,
                        trims,
                        shared,
                        run,
                    } => {
                        // A store whose handle is gone (detached, or dropped
                        // attached) can send nothing more.  Sweeping those
                        // when the map has doubled is amortised O(1), keeps
                        // it within 2× the live stores, and spares a detach
                        // its message.
                        if stores.len() >= sweep_at {
                            stores.retain(|_, s| Arc::strong_count(&s.shared) > 1);
                            sweep_at = 2 * stores.len().max(32);
                        }
                        let store = WorkerStore {
                            levels,
                            trims,
                            shared,
                        };
                        stores.entry(id).or_insert(store).apply_flush(run);
                    }
                    Msg::Flush { id, run } => {
                        if let Some(s) = stores.get_mut(&id) {
                            s.apply_flush(run);
                        }
                    }
                    Msg::Trim { id, tomb } => {
                        if let Some(s) = stores.get_mut(&id) {
                            s.trims.push(tomb);
                        }
                    }
                    Msg::Shutdown => break 'serve,
                }
            }
        }
        // Anything still attached falls back to inline finishing.
        for s in stores.values() {
            let mut st = s.shared.state.lock().expect("state poisoned");
            st.dead = true;
            s.shared.cv.notify_all();
        }
    }

    /// Register a store with its first flush, in one message: the worker
    /// adopts `levels` as the authoritative hierarchy and `trims` as the
    /// GC input seen so far, then applies `run`.  A scheduler that
    /// already shut down hands `levels` back: there is no worker to wait
    /// for, and the store goes on compacting inline.
    pub fn register(
        self: &Arc<Self>,
        levels: Levels,
        trims: Vec<RangeTombstone>,
        run: Arc<Run>,
    ) -> Result<StoreHandle, Levels> {
        let shared = Arc::new(StoreShared {
            state: Mutex::new(Published {
                applied: 0,
                levels: levels.clone(),
                effort: CompactionEffort::default(),
                compaction_ns: 0,
                dead: false,
                waiters: 0,
            }),
            cv: Condvar::new(),
        });
        let mut inbox = self.inbox.lock().expect("scheduler inbox poisoned");
        if inbox.closed {
            return Err(levels);
        }
        let id = inbox.registered;
        inbox.registered += 1;
        let register = Msg::Register {
            id,
            levels,
            trims,
            shared: Arc::clone(&shared),
            run,
        };
        self.push(inbox, register);
        Ok(StoreHandle {
            link: Arc::clone(self),
            shared,
            id,
        })
    }
}

/// One registered store's channel to the scheduler (held inside the
/// store from its first flush in background mode on).
#[derive(Debug)]
pub(crate) struct StoreHandle {
    link: Arc<SchedulerLink>,
    shared: Arc<StoreShared>,
    id: u64,
}

impl StoreHandle {
    /// Enqueue a flushed run (never blocks on compaction work).
    pub fn send_flush(&self, run: Arc<Run>) {
        self.link.send(Msg::Flush { id: self.id, run });
    }

    /// Enqueue a range-tombstone trim (GC input for later merges).
    pub fn send_trim(&self, tomb: RangeTombstone) {
        self.link.send(Msg::Trim { id: self.id, tomb });
    }

    /// Read from the published state under its lock, copying out only
    /// what `f` asks for (a counter, a depth — not the run image).
    pub fn read<R>(&self, f: impl FnOnce(&Published) -> R) -> R {
        f(&self.shared.state.lock().expect("scheduler state poisoned"))
    }

    /// Block until the worker has applied `sent` flushes (or died).
    /// Returns the final published state.
    pub fn wait_applied(&self, sent: u64) -> Published {
        let mut s = self.shared.state.lock().expect("scheduler state poisoned");
        s.waiters += 1;
        while s.applied < sent && !s.dead {
            s = self
                .shared
                .cv
                .wait(s)
                .expect("scheduler state poisoned while waiting");
        }
        s.waiters -= 1;
        s.clone()
    }
}

/// A background compaction worker shared by every LSM store on one
/// simulation shard (or one live driver).
///
/// Create one per shard, attach stores with
/// [`LsmHistory::attach_scheduler`](super::LsmHistory::attach_scheduler),
/// and detach them (barrier + fold) before collecting final stats.
/// A store is registered — its shared slot allocated, the worker told —
/// by its first flush, so the many that never fill a memtable cost the
/// scheduler nothing.  Dropping the scheduler joins the worker; stores
/// still attached at that point finish their pending compaction inline.
#[derive(Debug)]
pub struct CompactionScheduler {
    link: Arc<SchedulerLink>,
    worker: Option<JoinHandle<()>>,
}

impl Default for CompactionScheduler {
    fn default() -> Self {
        CompactionScheduler::new()
    }
}

impl CompactionScheduler {
    /// Spawn the worker thread and return the scheduler.
    pub fn new() -> Self {
        let link = Arc::new(SchedulerLink::default());
        let inbox_of = Arc::clone(&link);
        let worker = std::thread::Builder::new()
            .name("prorp-compaction".into())
            .spawn(move || inbox_of.serve())
            .expect("spawning the compaction worker cannot fail");
        CompactionScheduler {
            link,
            worker: Some(worker),
        }
    }

    /// The way to this scheduler's worker, for a store to remember.
    pub(crate) fn link(&self) -> Arc<SchedulerLink> {
        Arc::clone(&self.link)
    }

    /// Stores that have registered with the worker so far — those that
    /// flushed at least once while attached.
    pub fn registered(&self) -> u64 {
        let inbox = self.link.inbox.lock().expect("scheduler inbox poisoned");
        inbox.registered
    }
}

impl Drop for CompactionScheduler {
    fn drop(&mut self) {
        // The queue and its flags are valid whatever a panicking holder
        // was doing, and `Drop` must reach the join either way.
        let inbox = self.link.inbox.lock();
        let mut inbox = inbox.unwrap_or_else(PoisonError::into_inner);
        inbox.closed = true;
        self.link.push(inbox, Msg::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Worker-side state for one registered store.
struct WorkerStore {
    levels: Levels,
    trims: Vec<RangeTombstone>,
    shared: Arc<StoreShared>,
}

impl WorkerStore {
    fn apply_flush(&mut self, run: Arc<Run>) {
        let t0 = Instant::now();
        let effort = self
            .levels
            .push_flush(run, &self.trims)
            .expect("page encoding of a sorted run cannot fail");
        let ns = t0.elapsed().as_nanos() as u64;
        let mut st = self.shared.state.lock().expect("state poisoned");
        st.applied += 1;
        st.levels = self.levels.clone();
        st.effort.absorb(effort);
        st.compaction_ns += ns;
        if st.waiters > 0 {
            self.shared.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::run::Entry;

    fn run_of(keys: std::ops::Range<i64>, seqno_base: u64) -> Arc<Run> {
        let entries: Vec<Entry> = keys
            .clone()
            .map(|k| Entry {
                key: k,
                seqno: seqno_base + (k - keys.start) as u64,
                value: 1,
                tombstone: false,
            })
            .collect();
        Arc::new(Run::build(entries).unwrap().0)
    }

    #[test]
    fn worker_matches_inline_maintenance() {
        let sched = CompactionScheduler::new();
        let first = run_of(0..4, 1);
        let handle = sched
            .link()
            .register(Levels::new(4), Vec::new(), Arc::clone(&first))
            .unwrap();
        let mut inline = Levels::new(4);
        inline.push_flush(first, &[]).unwrap();
        let mut seqno = 5;
        for i in 1..12 {
            let run = run_of(i * 4..i * 4 + 4, seqno);
            seqno += 4;
            handle.send_flush(Arc::clone(&run));
            inline.push_flush(run, &[]).unwrap();
        }
        let Published {
            applied,
            levels,
            effort,
            dead,
            ..
        } = handle.wait_applied(12);
        assert!(!dead);
        assert_eq!(applied, 12);
        assert_eq!(levels.entry_count(), inline.entry_count());
        assert_eq!(levels.run_count(), inline.run_count());
        assert_eq!(levels.depth(), inline.depth());
        assert!(effort.merges > 0);
        levels.check_invariants();
    }

    #[test]
    fn shutdown_marks_attached_stores_dead() {
        let sched = CompactionScheduler::new();
        let link = sched.link();
        let register = || link.register(Levels::new(4), Vec::new(), run_of(0..4, 1));
        let handle = register().unwrap();
        drop(sched);
        assert!(
            handle.wait_applied(u64::MAX).dead,
            "worker must flag attached stores on shutdown"
        );
        // A registration after the shutdown is refused, not left waiting
        // for a worker that will never answer.
        assert!(register().is_err());
    }

    #[test]
    fn worker_forgets_stores_whose_handle_is_gone() {
        let sched = CompactionScheduler::new();
        let link = sched.link();
        let register = || {
            let first = run_of(0..4, 1);
            link.register(Levels::new(4), Vec::new(), first).unwrap()
        };
        // Sixty-four stores come and go without a word to the worker.
        let gone: Vec<_> = (0..64)
            .map(|_| Arc::downgrade(&register().shared))
            .collect();
        assert!(gone.iter().all(|slot| slot.upgrade().is_some()));
        // The next registration finds the map at its sweep mark; once its
        // first flush is applied the worker has been through the sweep.
        let live = register();
        assert_eq!(live.wait_applied(1).applied, 1);
        assert!(gone.iter().all(|slot| slot.upgrade().is_none()));
        assert_eq!(sched.registered(), 65);
    }

    use crate::lsm::{LsmConfig, LsmHistory};
    use crate::store::{HistoryRead, HistoryStore};
    use prorp_types::{EventKind, Seconds, Timestamp};

    const CAP: usize = 8;

    fn store() -> LsmHistory {
        LsmHistory::with_config(LsmConfig { memtable_cap: CAP })
    }

    /// `inserts` logins a minute apart; with `trim_every`, a retention
    /// pass after every that-many inserts (so tombstones exist before
    /// the first flush when it is below the memtable cap).
    fn mutate(h: &mut LsmHistory, inserts: i64, trim_every: Option<i64>) {
        for i in 0..inserts {
            h.insert_history(Timestamp(i * 60), EventKind::Start);
            if trim_every.is_some_and(|n| (i + 1) % n == 0) {
                h.delete_old_history(Seconds(150), Timestamp(i * 60));
            }
        }
    }

    #[test]
    fn stores_that_never_flush_register_nothing() {
        let sched = CompactionScheduler::new();
        let mut stores: Vec<LsmHistory> = (0..1_000).map(|_| store()).collect();
        for h in &mut stores {
            h.attach_scheduler(&sched);
            assert_eq!(h.compaction_mode(), CompactionMode::Background);
            mutate(h, CAP as i64 - 1, Some(3));
        }
        assert_eq!(sched.registered(), 0, "nothing flushed, nothing to compact");

        // One more insert fills a memtable: that store registers, once,
        // however many flushes follow.
        mutate(&mut stores[7], 10 * CAP as i64, None);
        assert!(stores[7].metrics().flushes > 1);
        assert_eq!(sched.registered(), 1);

        for h in &mut stores {
            h.detach_compaction();
            assert_eq!(h.compaction_mode(), CompactionMode::Deterministic);
            h.check_invariants();
        }
        assert_eq!(sched.registered(), 1);
    }

    #[test]
    fn attach_mutate_detach_equals_inline() {
        // Below the cap (never registers), at it, and far past it; with
        // and without range tombstones recorded before the first flush;
        // and with the scheduler gone before the store detaches.
        for inserts in [CAP as i64 - 1, CAP as i64, 20 * CAP as i64] {
            for trim_every in [None, Some(3)] {
                for drop_first in [false, true] {
                    let case = format!("{inserts} inserts, trims {trim_every:?}, {drop_first}");
                    let sched = CompactionScheduler::new();
                    let mut bg = store();
                    bg.attach_scheduler(&sched);
                    mutate(&mut bg, inserts, trim_every);
                    assert_eq!(sched.registered(), u64::from(inserts >= CAP as i64));
                    assert_eq!(bg.compaction_stall_ns(), 0, "{case}");
                    let clone = bg.clone();
                    assert_eq!(clone.compaction_mode(), CompactionMode::Deterministic);
                    if drop_first {
                        drop(sched);
                    }
                    bg.detach_compaction();

                    let mut inline = store();
                    mutate(&mut inline, inserts, trim_every);
                    for (who, h) in [("detached", &bg), ("clone", &clone)] {
                        assert_eq!(h.metrics(), inline.metrics(), "{case}: {who}");
                        assert_eq!(h.run_count(), inline.run_count(), "{case}: {who}");
                        assert_eq!(h.stats(), inline.stats(), "{case}: {who}");
                        assert_eq!(h.gc_floor(), inline.gc_floor(), "{case}: {who}");
                        assert_eq!(h.events(), inline.events(), "{case}: {who}");
                        h.check_invariants();
                    }
                }
            }
        }
    }

    #[test]
    fn a_first_flush_after_shutdown_compacts_inline() {
        let sched = CompactionScheduler::new();
        let mut bg = store();
        bg.attach_scheduler(&sched);
        drop(sched);
        assert_eq!(bg.compaction_mode(), CompactionMode::Background);
        mutate(&mut bg, 20 * CAP as i64, Some(5));
        // Nobody to hand the first flush to: the store went inline.
        assert_eq!(bg.compaction_mode(), CompactionMode::Deterministic);
        assert!(bg.compaction_stall_ns() > 0);
        let mut inline = store();
        mutate(&mut inline, 20 * CAP as i64, Some(5));
        assert_eq!(bg.metrics(), inline.metrics());
        assert_eq!(bg.run_count(), inline.run_count());
        assert_eq!(bg.gc_floor(), inline.gc_floor());
        assert_eq!(bg.events(), inline.events());
        bg.check_invariants();
    }
}
