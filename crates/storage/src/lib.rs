//! Embedded storage engine for the per-database activity history.
//!
//! §5 of the paper persists each database's activity history in an internal
//! table `sys.pause_resume_history(time_snapshot BIGINT, event_type INT)`
//! with a **clustered B-tree index** on `time_snapshot`, and keeps the
//! control-plane metadata (`sys.databases`) that the proactive resume
//! operation scans (Algorithm 5).  This crate reproduces those substrates:
//!
//! * [`btree`] — an order-configurable B+Tree over `i64` keys giving the
//!   `O(log n)` point operations and `O(log n + m)` range operations the
//!   paper's complexity analysis assumes; `prorp-sqlmini`'s clustered
//!   tables, the executable §5 specification, store their rows in it;
//! * [`page`] — slotted 8-KiB pages (over [`bytes`]) used to serialise a
//!   history for backups and to account its size in bytes (Figure 10b);
//! * [`view`] — the one live-read layer: the visible tuple set with the
//!   exact semantics of Algorithm 2 (`InsertHistory`) and Algorithm 3
//!   (`DeleteOldHistory`), including the paper's "keep the oldest tuple to
//!   determine lifespan" rule, and every read Algorithm 4 performs;
//! * [`history`] — the `sys.pause_resume_history` table: that view,
//!   written once per mutation and backed up as its page image;
//! * [`metadata`] — the `sys.databases` metadata store with a secondary
//!   index on `start_of_pred_activity` so the Algorithm 5 scan is a range
//!   lookup rather than a full scan;
//! * [`backup`] — page-image backup and restore, exercised by the
//!   load-balancing *database move* in the simulator (§3.3: "history must
//!   move with it");
//! * [`wal`] — a write-ahead log bridging the gap between backups: every
//!   Algorithm 2/3 mutation is logged before it is applied, and crash
//!   recovery replays the log tail over the last backup image.
//!
//! # Pluggable storage
//!
//! The [`store`] module is the trait seam over this machinery:
//! [`HistoryRead`] (the object-safe read surface predictors consume —
//! an implementor supplies its [`LiveView`], the reads are provided)
//! and [`HistoryStore`] (the Algorithm 2/3 mutation surface), with
//! [`HistoryBackend`] as the enum-dispatch wrapper engines hold and
//! [`StorageBackend`] as the fleet-wide knob.  Two engines implement
//! the seam: the §5 [`HistoryTable`] (default) and the [`lsm`]
//! module's [`LsmHistory`] — an LSM/MVCC tree whose monotonic seqnos
//! power [`snapshot`](lsm::LsmHistory::snapshot) frozen views and the
//! [`TimeTravel`] timestamp → seqno mapping for "as of T" post-mortems.
//! Both hold one [`LiveView`], so what the visible set *is* and how it
//! is read exist once.  The table is that view and nothing else, and
//! its `check_invariants` audits it against its own page image; the LSM
//! keeps a mutation log, runs and range tombstones beneath it, from
//! which its audit re-derives the visible set independently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod btree;
pub mod history;
pub mod lsm;
pub mod metadata;
pub mod page;
pub mod store;
pub mod view;
pub mod wal;

pub use backup::{backup_history, restore_backend, restore_history};
pub use btree::BTree;
pub use history::{ClockIndex, DeleteOutcome, HistoryTable, StorageStats};
pub use lsm::{
    CompactionMode, CompactionScheduler, LsmConfig, LsmHistory, LsmMetrics, LsmSnapshot,
    RangeTombstone, TimeTravel,
};
pub use metadata::{DbMeta, MetadataStore};
pub use store::{HistoryBackend, HistoryRead, HistoryStore, StorageBackend};
pub use view::LiveView;
pub use wal::{DurableHistory, WalRecord, WriteAheadLog};
