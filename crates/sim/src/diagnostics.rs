//! The diagnostics-and-mitigation runner (§7).
//!
//! "The diagnostics and mitigation runner monitors the number of
//! databases in the proactive resume and physical pause queues and the
//! resource allocation and reclamation progress.  The runner makes sure
//! that these queues drain and mitigates databases that get stuck during
//! resume or pause.  In rare cases, this automatic mitigation process
//! times out or fails, incidents are triggered and resolved by an
//! on-call engineer."
//!
//! Two fault paths feed the runner:
//!
//! * *hangs* — a workflow injected to hang schedules no further events;
//!   the periodic [`sweep`](DiagnosticsRunner::sweep) detects workflows
//!   older than the timeout and force-completes them (a *mitigation*).
//!   A database mitigated a second time escalates to an *incident*;
//! * *retry exhaustion* — a staged workflow that burned its whole retry
//!   budget reports through
//!   [`retry_exhausted`](DiagnosticsRunner::retry_exhausted); every
//!   give-up escalates to an incident immediately (the backoff schedule
//!   already was the mitigation).
//!
//! The runner counts mitigations only.  Each give-up is counted once, by
//! the shard's `WorkflowStats`, and each incident once, as an entry of
//! the shard's `IncidentLog`.

use prorp_types::{DatabaseId, DbMap, DbSet, Seconds, Timestamp};

/// One force-completion issued by a [`sweep`](DiagnosticsRunner::sweep).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mitigation {
    /// The database whose workflow was force-completed.
    pub db: DatabaseId,
    /// Whether this mitigation escalated to an incident (the database
    /// was already mitigated once before).
    pub escalated: bool,
}

/// Tracks in-flight resume workflows and mitigates hung ones.
#[derive(Clone, Debug)]
pub struct DiagnosticsRunner {
    timeout: Seconds,
    /// Start time of every in-flight resume — only the few that are in
    /// flight, iterated whole by `sweep`, so a small id-hashed map rather
    /// than a column per database.  The ids are the shard's own.
    in_flight: DbMap<Timestamp>,
    previously_mitigated: DbSet,
    /// Hung workflows force-completed.
    pub mitigations: u64,
}

impl DiagnosticsRunner {
    /// A runner that mitigates workflows older than `timeout`.
    pub fn new(timeout: Seconds) -> Self {
        DiagnosticsRunner {
            timeout,
            in_flight: DbMap::default(),
            previously_mitigated: DbSet::default(),
            mitigations: 0,
        }
    }

    /// A resume workflow started for `db`.
    pub fn workflow_started(&mut self, db: DatabaseId, now: Timestamp) {
        self.in_flight.insert(db, now);
    }

    /// A resume workflow completed normally.
    pub fn workflow_completed(&mut self, db: DatabaseId) {
        self.in_flight.remove(&db);
    }

    /// A staged workflow for `db` exhausted its retry budget: remove it
    /// from the queue and mark the database, so a later stuck workflow
    /// escalates.
    pub fn retry_exhausted(&mut self, db: DatabaseId) {
        self.in_flight.remove(&db);
        self.previously_mitigated.insert(db);
    }

    /// Current queue depth (monitored quantity).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// One periodic sweep: returns a [`Mitigation`] for every workflow
    /// that exceeded the timeout, removing it from the in-flight set.
    /// A database mitigated (or given up on) before escalates.
    pub fn sweep(&mut self, now: Timestamp) -> Vec<Mitigation> {
        let mut stuck: Vec<DatabaseId> = self
            .in_flight
            .iter()
            .filter(|(_, started)| now - **started >= self.timeout)
            .map(|(db, _)| *db)
            .collect();
        stuck.sort_unstable();
        stuck
            .into_iter()
            .map(|db| {
                self.in_flight.remove(&db);
                self.mitigations += 1;
                let escalated = !self.previously_mitigated.insert(db);
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

    fn dbs(sweep: &[Mitigation]) -> Vec<DatabaseId> {
        sweep.iter().map(|m| m.db).collect()
    }

    #[test]
    fn completed_workflows_are_not_mitigated() {
        let mut d = DiagnosticsRunner::new(Seconds(100));
        d.workflow_started(db(1), Timestamp(0));
        d.workflow_completed(db(1));
        assert!(d.sweep(Timestamp(1_000)).is_empty());
        assert_eq!(d.mitigations, 0);
    }

    #[test]
    fn hung_workflows_are_mitigated_after_timeout() {
        let mut d = DiagnosticsRunner::new(Seconds(100));
        d.workflow_started(db(1), Timestamp(0));
        d.workflow_started(db(2), Timestamp(50));
        assert!(d.sweep(Timestamp(99)).is_empty(), "not yet due");
        assert_eq!(dbs(&d.sweep(Timestamp(100))), vec![db(1)]);
        assert_eq!(d.mitigations, 1);
        assert_eq!(d.in_flight_count(), 1);
        let second = d.sweep(Timestamp(150));
        assert_eq!(dbs(&second), vec![db(2)]);
        assert!(!second[0].escalated, "a first mitigation does not escalate");
        assert_eq!(d.mitigations, 2);
    }

    #[test]
    fn queue_drains_after_mitigation() {
        let mut d = DiagnosticsRunner::new(Seconds(10));
        for id in 0..5 {
            d.workflow_started(db(id), Timestamp(0));
        }
        assert_eq!(d.in_flight_count(), 5);
        d.workflow_completed(db(0));
        d.workflow_completed(db(1));
        assert_eq!(d.sweep(Timestamp(10)).len(), 3, "the rest are swept");
        assert_eq!(d.in_flight_count(), 0, "queue fully drained");
        assert!(d.sweep(Timestamp(1_000)).is_empty(), "nothing left");
    }

    #[test]
    fn second_stuck_workflow_escalates() {
        let mut d = DiagnosticsRunner::new(Seconds(10));
        d.workflow_started(db(7), Timestamp(0));
        let first = d.sweep(Timestamp(10));
        assert_eq!(
            first,
            vec![Mitigation {
                db: db(7),
                escalated: false
            }]
        );
        d.workflow_started(db(7), Timestamp(100));
        let second = d.sweep(Timestamp(110));
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
        let mut d = DiagnosticsRunner::new(Seconds(10));
        d.workflow_started(db(3), Timestamp(0));
        d.retry_exhausted(db(3));
        assert_eq!(d.in_flight_count(), 0);
        assert!(d.sweep(Timestamp(50)).is_empty(), "a give-up is not swept");
        assert_eq!(d.mitigations, 0, "give-ups are not sweep mitigations");
        // The database is marked: a later stuck workflow escalates too.
        d.workflow_started(db(3), Timestamp(100));
        let swept = d.sweep(Timestamp(200));
        assert!(swept[0].escalated);
    }

    #[test]
    fn sweep_output_is_deterministic() {
        let mut d = DiagnosticsRunner::new(Seconds(1));
        for id in [5, 3, 9, 1] {
            d.workflow_started(db(id), Timestamp(0));
        }
        assert_eq!(
            dbs(&d.sweep(Timestamp(10))),
            vec![db(1), db(3), db(5), db(9)]
        );
    }
}
