//! The diagnostics-and-mitigation runner (§7) and its queue: the shard's
//! one book of in-flight reactive resumes.
//!
//! "The diagnostics and mitigation runner monitors the number of
//! databases in the proactive resume and physical pause queues and the
//! resource allocation and reclamation progress.  The runner makes sure
//! that these queues drain and mitigates databases that get stuck during
//! resume or pause.  In rare cases, this automatic mitigation process
//! times out or fails, incidents are triggered and resolved by an
//! on-call engineer."
//!
//! `Resumes` holds one entry per reactive resume, from the login that
//! starts it to its `WorkflowComplete` event: its start time, whether it
//! is staged or hung, and whether its login still waits.  Each event
//! handler that moves a resume makes one call on it.  A *hung* resume
//! schedules nothing: the periodic sweep force-completes every resume
//! older than the timeout (a *mitigation*), and a database mitigated
//! before escalates to an *incident*.  A staged one that *exhausts* its
//! retry budget is an incident at once (the backoff schedule was the
//! mitigation) and marks its database, so a later stuck one escalates.
//! The book counts mitigations only; give-ups and incidents are counted
//! by the shard's `WorkflowStats` and `IncidentLog`.
//!
//! **A hung resume outlives its customer's logout.**  A logout
//! supersedes a staged resume, which leaves the book, but a hung one
//! stays, is still swept and still escalates; only its completion then
//! leaves the segment book alone.

use prorp_core::ResumeWorkflow;
use prorp_types::{DatabaseId, DbSet, Seconds, Timestamp};

/// One force-completion issued by the diagnostics sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mitigation {
    /// The database whose workflow was force-completed.
    pub db: DatabaseId,
    /// Whether this mitigation escalated to an incident (the database
    /// was already mitigated once before).
    pub escalated: bool,
}

/// A staged resume's workflow and the instant its one outstanding stage
/// event is due: a stale event of a superseded resume fails the check.
pub(crate) struct Staged {
    pub(crate) wf: ResumeWorkflow,
    pub(crate) expected_at: Timestamp,
}

/// Where a resume stands.
enum Progress {
    /// Its stages are scheduled.
    Staged(Staged),
    /// Injected to hang: schedules nothing; only the sweep ends it.
    Hung,
    /// Finished, given up on or mitigated: its `WorkflowComplete` is
    /// queued at this very instant and outranks every other event that
    /// reads the book there, so nothing but that event sees the entry.
    Done,
}

/// One in-flight reactive resume.
struct Resume {
    db: DatabaseId,
    started: Timestamp,
    /// Whether its login still waits: cleared by a logout or forced pause.
    waiting: bool,
    progress: Progress,
}

/// The shard's in-flight reactive resumes, addressed by database slot —
/// a four-byte column entry per database pointing into a dense slab of
/// the few resumes actually in flight — and the §7 runner's policy.
pub(crate) struct Resumes {
    /// Per slot: where in `slab` its resume sits, or [`Self::NONE`].
    at: Vec<u32>,
    /// `(slot, resume)`, dense — removal swaps the last entry into the
    /// hole and re-points its slot.
    slab: Vec<(u32, Resume)>,
    timeout: Seconds,
    /// Databases mitigated or given up on before: the next sweep escalates.
    mitigated: DbSet,
    /// Hung resumes force-completed.
    pub(crate) mitigations: u64,
}

impl Resumes {
    const NONE: u32 = u32::MAX;

    /// An empty book for about `dbs` databases, sweeping at `timeout`.
    pub(crate) fn new(timeout: Seconds, dbs: usize) -> Self {
        Resumes {
            at: Vec::with_capacity(dbs),
            slab: Vec::new(),
            timeout,
            mitigated: DbSet::default(),
            mitigations: 0,
        }
    }

    /// Append the next database's (empty) column entry.
    pub(crate) fn push_slot(&mut self) {
        self.at.push(Self::NONE);
    }

    /// Resumes in flight — the monitored queue depth.
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Resume> {
        let at = self.at[slot];
        (at != Self::NONE).then(|| &mut self.slab[at as usize].1)
    }

    fn remove(&mut self, slot: usize) -> Option<Resume> {
        let at = std::mem::replace(&mut self.at[slot], Self::NONE);
        if at == Self::NONE {
            return None;
        }
        let (_, resume) = self.slab.swap_remove(at as usize);
        if let Some((moved, _)) = self.slab.get(at as usize) {
            self.at[*moved as usize] = at;
        }
        Some(resume)
    }

    /// `db`'s login at `now` started a resume in `slot`, hung if `staged`
    /// is `None`, replacing what the slot held (a hung resume left behind).
    pub(crate) fn start(
        &mut self,
        slot: usize,
        db: DatabaseId,
        now: Timestamp,
        staged: Option<Staged>,
    ) {
        self.remove(slot);
        let progress = staged.map_or(Progress::Hung, Progress::Staged);
        self.at[slot] = u32::try_from(self.slab.len()).expect("slab is smaller than the fleet");
        self.slab.push((
            slot as u32,
            Resume {
                db,
                started: now,
                waiting: true,
                progress,
            },
        ));
    }

    /// The login waiting on `slot`'s resume is gone: a staged resume leaves
    /// the book, a hung one stays for the sweep.
    pub(crate) fn supersede(&mut self, slot: usize) {
        match self.get_mut(slot) {
            Some(Resume {
                progress: Progress::Staged(_),
                ..
            }) => {
                self.remove(slot);
            }
            Some(resume) => resume.waiting = false,
            None => {}
        }
    }

    /// `slot`'s staged workflow, if its resume is staged.
    pub(crate) fn staged_mut(&mut self, slot: usize) -> Option<&mut Staged> {
        match &mut self.get_mut(slot)?.progress {
            Progress::Staged(staged) => Some(staged),
            _ => None,
        }
    }

    /// `slot`'s staged workflow ran its last stage.
    pub(crate) fn finish(&mut self, slot: usize) {
        if let Some(resume) = self.get_mut(slot) {
            resume.progress = Progress::Done;
        }
    }

    /// `slot`'s staged workflow exhausted its retry budget: finished, and
    /// its database marked so that a later stuck resume escalates.
    pub(crate) fn give_up(&mut self, slot: usize) {
        if let Some(resume) = self.get_mut(slot) {
            resume.progress = Progress::Done;
            let db = resume.db;
            self.mitigated.insert(db);
        }
    }

    /// `slot`'s `WorkflowComplete`: the resume leaves the book.  Returns
    /// whether its login still waited.
    pub(crate) fn complete(&mut self, slot: usize) -> bool {
        self.remove(slot).is_some_and(|resume| resume.waiting)
    }

    /// One periodic sweep at `now`: every resume older than the timeout
    /// is finished, in database-id order (its `WorkflowComplete` is the
    /// caller's to queue).
    pub(crate) fn sweep(&mut self, now: Timestamp) -> Vec<Mitigation> {
        let mut stuck: Vec<(DatabaseId, usize)> = self
            .slab
            .iter()
            .filter(|(_, r)| now - r.started >= self.timeout)
            .map(|(slot, r)| (r.db, *slot as usize))
            .collect();
        stuck.sort_unstable();
        stuck
            .into_iter()
            .map(|(db, slot)| {
                self.finish(slot);
                self.mitigations += 1;
                let escalated = !self.mitigated.insert(db);
                Mitigation { db, escalated }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(id: u64) -> DatabaseId {
        DatabaseId(id)
    }

    /// A book of `slots` databases, slot `s` holding database `s`.
    fn book(timeout: i64, slots: usize) -> Resumes {
        let mut book = Resumes::new(Seconds(timeout), slots);
        for _ in 0..slots {
            book.push_slot();
        }
        book
    }

    /// Start a hung resume of database `slot` at `at`.
    fn hang(book: &mut Resumes, slot: u64, at: i64) {
        book.start(slot as usize, db(slot), Timestamp(at), None);
    }

    /// Start a staged resume of database `slot` at `at`.
    fn stage(book: &mut Resumes, slot: u64, at: i64) {
        let wf = ResumeWorkflow::new(db(slot), Timestamp(at), Seconds::ZERO);
        let expected_at = wf.first_ready_at();
        let staged = Staged { wf, expected_at };
        book.start(slot as usize, db(slot), Timestamp(at), Some(staged));
    }

    fn sweep(book: &mut Resumes, at: i64) -> Vec<Mitigation> {
        book.sweep(Timestamp(at))
    }

    fn dbs(sweep: &[Mitigation]) -> Vec<DatabaseId> {
        sweep.iter().map(|m| m.db).collect()
    }

    /// Every swept resume's `WorkflowComplete`, as the shard queues it.
    fn complete_all(book: &mut Resumes, sweep: &[Mitigation]) {
        for m in sweep {
            book.complete(m.db.raw() as usize);
        }
    }

    #[test]
    fn completed_workflows_are_not_mitigated() {
        let mut d = book(100, 2);
        stage(&mut d, 1, 0);
        assert!(d.staged_mut(1).is_some());
        d.finish(1);
        assert!(d.staged_mut(1).is_none());
        assert!(d.complete(1), "its login still waited");
        // A staged resume its logout superseded leaves the book at once.
        stage(&mut d, 0, 0);
        d.supersede(0);
        assert_eq!(d.len(), 0);
        assert!(sweep(&mut d, 1_000).is_empty());
        assert_eq!(d.mitigations, 0);
    }

    #[test]
    fn hung_workflows_are_mitigated_after_timeout() {
        let mut d = book(100, 3);
        hang(&mut d, 1, 0);
        hang(&mut d, 2, 50);
        // A hung resume outlives its logout: still swept, but its
        // completion no longer finds a waiting login.
        d.supersede(1);
        assert!(sweep(&mut d, 99).is_empty(), "not yet due");
        let first = sweep(&mut d, 100);
        assert_eq!(dbs(&first), vec![db(1)]);
        assert!(!d.complete(1));
        assert_eq!(d.mitigations, 1);
        assert_eq!(d.len(), 1);
        let second = sweep(&mut d, 150);
        assert_eq!(dbs(&second), vec![db(2)]);
        assert!(!second[0].escalated, "a first mitigation does not escalate");
        assert_eq!(d.mitigations, 2);
    }

    #[test]
    fn queue_drains_after_mitigation() {
        let mut d = book(10, 5);
        for id in 0..5 {
            hang(&mut d, id, 0);
        }
        assert_eq!(d.len(), 5);
        for slot in [0, 1] {
            d.finish(slot);
            d.complete(slot);
        }
        let swept = sweep(&mut d, 10);
        assert_eq!(swept.len(), 3, "the rest are swept");
        complete_all(&mut d, &swept);
        assert_eq!(d.len(), 0, "queue fully drained");
        assert!(sweep(&mut d, 1_000).is_empty(), "nothing left");
    }

    #[test]
    fn second_stuck_workflow_escalates() {
        let mut d = book(10, 8);
        hang(&mut d, 7, 0);
        let first = sweep(&mut d, 10);
        assert_eq!(
            first,
            vec![Mitigation {
                db: db(7),
                escalated: false
            }]
        );
        complete_all(&mut d, &first);
        hang(&mut d, 7, 100);
        let second = sweep(&mut d, 110);
        assert_eq!(
            second,
            vec![Mitigation {
                db: db(7),
                escalated: true
            }]
        );
        assert_eq!(d.mitigations, 2);
    }

    #[test]
    fn retry_exhaustion_is_an_immediate_incident() {
        let mut d = book(10, 4);
        stage(&mut d, 3, 0);
        d.give_up(3);
        // Its `WorkflowComplete` runs at once, before any sweep.
        assert!(d.complete(3));
        assert_eq!(d.len(), 0);
        assert!(sweep(&mut d, 50).is_empty(), "a give-up is not swept");
        assert_eq!(d.mitigations, 0, "give-ups are not sweep mitigations");
        // The database is marked: a later stuck workflow escalates too.
        hang(&mut d, 3, 100);
        let swept = sweep(&mut d, 200);
        assert!(swept[0].escalated);
    }

    #[test]
    fn sweep_output_is_deterministic() {
        let mut d = book(1, 10);
        for id in [5, 3, 9, 1] {
            hang(&mut d, id, 0);
        }
        assert_eq!(dbs(&sweep(&mut d, 10)), vec![db(1), db(3), db(5), db(9)]);
    }
}
