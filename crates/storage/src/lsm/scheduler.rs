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
//! # The determinism argument
//!
//! The worker consumes one FIFO channel per scheduler.  A store's
//! messages (flushes, range-tombstone trims) arrive in exactly its
//! mutation order, and the worker applies exactly the maintenance the
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
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
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
#[derive(Debug)]
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
}

/// Shared slot between one store's foreground handle and the worker.
#[derive(Debug)]
pub(crate) struct StoreShared {
    pub state: Mutex<Published>,
    pub cv: Condvar,
}

enum Msg {
    Register {
        id: u64,
        levels: Levels,
        trims: Vec<RangeTombstone>,
        shared: Arc<StoreShared>,
    },
    Flush {
        id: u64,
        run: Arc<Run>,
    },
    Trim {
        id: u64,
        tomb: RangeTombstone,
    },
    Retire {
        id: u64,
    },
    Shutdown,
}

/// One store's channel to the scheduler (held inside the store while it
/// runs in background mode).
#[derive(Debug)]
pub(crate) struct StoreHandle {
    tx: Sender<Msg>,
    shared: Arc<StoreShared>,
    id: u64,
}

impl StoreHandle {
    /// Enqueue a flushed run (never blocks on compaction work).
    pub fn send_flush(&self, run: Arc<Run>) {
        // A send error means the scheduler shut down; the worker marked
        // the store dead and the detach path finishes inline.
        let _ = self.tx.send(Msg::Flush { id: self.id, run });
    }

    /// Enqueue a range-tombstone trim (GC input for later merges).
    pub fn send_trim(&self, tomb: RangeTombstone) {
        let _ = self.tx.send(Msg::Trim { id: self.id, tomb });
    }

    /// Snapshot the published state (applied count, image, effort).
    pub fn published(&self) -> (u64, Levels, CompactionEffort, u64, bool) {
        let s = self.shared.state.lock().expect("scheduler state poisoned");
        (
            s.applied,
            s.levels.clone(),
            s.effort,
            s.compaction_ns,
            s.dead,
        )
    }

    /// Block until the worker has applied `sent` flushes (or died).
    /// Returns the final published state.
    pub fn wait_applied(&self, sent: u64) -> (Levels, CompactionEffort, u64, bool) {
        let mut s = self.shared.state.lock().expect("scheduler state poisoned");
        while s.applied < sent && !s.dead {
            s = self
                .shared
                .cv
                .wait(s)
                .expect("scheduler state poisoned while waiting");
        }
        (s.levels.clone(), s.effort, s.compaction_ns, s.dead)
    }

    /// How many flushes the worker has incorporated into the image.
    pub fn applied(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("scheduler state poisoned")
            .applied
    }

    /// Tell the worker to forget this store (detach/drop path).
    pub fn retire(&self) {
        let _ = self.tx.send(Msg::Retire { id: self.id });
    }
}

/// A background compaction worker shared by every LSM store on one
/// simulation shard (or one live driver).
///
/// Create one per shard, attach stores with
/// [`LsmHistory::attach_scheduler`](super::LsmHistory::attach_scheduler),
/// and detach them (barrier + fold) before collecting final stats.
/// Dropping the scheduler joins the worker; stores still attached at
/// that point finish their pending compaction inline on next access.
#[derive(Debug)]
pub struct CompactionScheduler {
    tx: Sender<Msg>,
    worker: Option<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Default for CompactionScheduler {
    fn default() -> Self {
        CompactionScheduler::new()
    }
}

impl CompactionScheduler {
    /// Spawn the worker thread and return the scheduler.
    pub fn new() -> Self {
        let (tx, rx) = channel::<Msg>();
        let worker = std::thread::Builder::new()
            .name("prorp-compaction".into())
            .spawn(move || {
                let mut stores: HashMap<u64, WorkerStore> = HashMap::new();
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Register {
                            id,
                            levels,
                            trims,
                            shared,
                        } => {
                            stores.insert(
                                id,
                                WorkerStore {
                                    levels,
                                    trims,
                                    shared,
                                },
                            );
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
                        Msg::Retire { id } => {
                            stores.remove(&id);
                        }
                        Msg::Shutdown => break,
                    }
                }
                // Anything still attached falls back to inline finishing.
                for s in stores.values() {
                    let mut st = s.shared.state.lock().expect("state poisoned");
                    st.dead = true;
                    s.shared.cv.notify_all();
                }
            })
            .expect("spawning the compaction worker cannot fail");
        CompactionScheduler {
            tx,
            worker: Some(worker),
            next_id: AtomicU64::new(0),
        }
    }

    /// Register a store: the worker adopts `levels` as the authoritative
    /// hierarchy and `trims` as the GC input seen so far.
    pub(crate) fn register(&self, levels: Levels, trims: Vec<RangeTombstone>) -> StoreHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(StoreShared {
            state: Mutex::new(Published {
                applied: 0,
                levels: levels.clone(),
                effort: CompactionEffort::default(),
                compaction_ns: 0,
                dead: false,
            }),
            cv: Condvar::new(),
        });
        let _ = self.tx.send(Msg::Register {
            id,
            levels,
            trims,
            shared: Arc::clone(&shared),
        });
        StoreHandle {
            tx: self.tx.clone(),
            shared,
            id,
        }
    }
}

impl Drop for CompactionScheduler {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
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
        self.shared.cv.notify_all();
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
        let handle = sched.register(Levels::new(4), Vec::new());
        let mut inline = Levels::new(4);
        let mut seqno = 1;
        for i in 0..12 {
            let run = run_of(i * 4..i * 4 + 4, seqno);
            seqno += 4;
            handle.send_flush(Arc::clone(&run));
            inline.push_flush(run, &[]).unwrap();
        }
        let (levels, effort, _ns, dead) = handle.wait_applied(12);
        assert!(!dead);
        assert_eq!(levels.entry_count(), inline.entry_count());
        assert_eq!(levels.run_count(), inline.run_count());
        assert_eq!(levels.depth(), inline.depth());
        assert!(effort.merges > 0);
        levels.check_invariants();
        handle.retire();
    }

    #[test]
    fn shutdown_marks_attached_stores_dead() {
        let sched = CompactionScheduler::new();
        let handle = sched.register(Levels::new(4), Vec::new());
        drop(sched);
        let (_levels, _effort, _ns, dead) = handle.wait_applied(u64::MAX);
        assert!(dead, "worker must flag attached stores on shutdown");
    }
}
