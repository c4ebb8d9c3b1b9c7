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
    peak_in_flight: usize,
    /// Hung workflows force-completed.
    pub mitigations: u64,
    /// Escalations to the on-call engineer: repeat-stuck databases plus
    /// every retry-budget exhaustion.
    pub incidents: u64,
    /// Staged workflows that exhausted their retry budget.
    pub giveups: u64,
}

impl DiagnosticsRunner {
    /// A runner that mitigates workflows older than `timeout`.
    pub fn new(timeout: Seconds) -> Self {
        DiagnosticsRunner {
            timeout,
            in_flight: DbMap::default(),
            previously_mitigated: DbSet::default(),
            peak_in_flight: 0,
            mitigations: 0,
            incidents: 0,
            giveups: 0,
        }
    }

    /// A resume workflow started for `db`.
    pub fn workflow_started(&mut self, db: DatabaseId, now: Timestamp) {
        self.in_flight.insert(db, now);
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight.len());
    }

    /// A resume workflow completed normally.
    pub fn workflow_completed(&mut self, db: DatabaseId) {
        self.in_flight.remove(&db);
    }

    /// A staged workflow for `db` exhausted its retry budget: remove it
    /// from the queue, count the give-up, and escalate an incident.
    pub fn retry_exhausted(&mut self, db: DatabaseId) {
        self.in_flight.remove(&db);
        self.previously_mitigated.insert(db);
        self.giveups += 1;
        self.incidents += 1;
    }

    /// Current queue depth (monitored quantity).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Deepest the in-flight queue ever got (monitored quantity: the §7
    /// runner watches that these queues drain).
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Register the runner's observability handles
    /// ([`DiagnosticsMetrics`](crate::obs::DiagnosticsMetrics)) against a
    /// shard-local metrics registry.
    pub fn register_metrics(reg: &prorp_obs::MetricsRegistry) -> crate::obs::DiagnosticsMetrics {
        crate::obs::DiagnosticsMetrics::register(reg)
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
                if escalated {
                    self.incidents += 1;
                }
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
        assert_eq!(dbs(&d.sweep(Timestamp(150))), vec![db(2)]);
        assert_eq!(d.mitigations, 2);
        assert_eq!(d.incidents, 0);
    }

    #[test]
    fn queue_drains_after_mitigation_and_peak_is_tracked() {
        let mut d = DiagnosticsRunner::new(Seconds(10));
        for id in 0..5 {
            d.workflow_started(db(id), Timestamp(0));
        }
        assert_eq!(d.in_flight_count(), 5);
        assert_eq!(d.peak_in_flight(), 5);
        d.workflow_completed(db(0));
        d.workflow_completed(db(1));
        assert_eq!(d.sweep(Timestamp(10)).len(), 3, "the rest are swept");
        assert_eq!(d.in_flight_count(), 0, "queue fully drained");
        assert!(d.sweep(Timestamp(1_000)).is_empty(), "nothing left");
        // Peak is a high-water mark, not the current depth.
        d.workflow_started(db(9), Timestamp(20));
        assert_eq!(d.peak_in_flight(), 5);
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
        assert_eq!(d.incidents, 1);
    }

    #[test]
    fn retry_exhaustion_is_an_immediate_incident() {
        let mut d = DiagnosticsRunner::new(Seconds(10));
        d.workflow_started(db(3), Timestamp(0));
        d.retry_exhausted(db(3));
        assert_eq!(d.in_flight_count(), 0);
        assert_eq!(d.giveups, 1);
        assert_eq!(d.incidents, 1);
        assert_eq!(d.mitigations, 0, "give-ups are not sweep mitigations");
        // The database is marked: a later stuck workflow escalates too.
        d.workflow_started(db(3), Timestamp(100));
        let swept = d.sweep(Timestamp(200));
        assert!(swept[0].escalated);
        assert_eq!(d.incidents, 2);
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
