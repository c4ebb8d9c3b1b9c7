//! Database lifecycle states (Figure 4) and allocation correctness classes
//! (Definition 2.2).

use std::fmt;

/// The proactive resume-and-pause lifecycle of a serverless database,
/// modelled as the Finite State Automaton of Figure 4.
///
/// * `Resumed` — resources allocated, workload (possibly) running, customer
///   billed while active.
/// * `LogicallyPaused` — resources still allocated but the customer is not
///   billed; absorbs short idle intervals to avoid churn (§2.2).
/// * `PhysicallyPaused` — resources reclaimed; a resume (reactive or
///   proactive) must run a resource-allocation workflow before logins can be
///   served.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DbState {
    /// Resources allocated and serving (or ready to serve) the workload.
    Resumed,
    /// Resources allocated but idle; billing stopped.
    LogicallyPaused,
    /// Resources reclaimed.
    PhysicallyPaused,
}

impl DbState {
    /// Every state, in declaration order.
    pub const ALL: [Self; 3] = [Self::Resumed, Self::LogicallyPaused, Self::PhysicallyPaused];

    /// Whether compute resources are currently allocated
    /// (`A(d,t) = 1` in Definition 2.1).
    #[inline]
    pub const fn resources_allocated(self) -> bool {
        !matches!(self, DbState::PhysicallyPaused)
    }
}

impl fmt::Display for DbState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbState::Resumed => write!(f, "resumed"),
            DbState::LogicallyPaused => write!(f, "logically-paused"),
            DbState::PhysicallyPaused => write!(f, "physically-paused"),
        }
    }
}

/// The four correctness classes of Definition 2.2, crossing resource demand
/// `D(d,t)` with resource allocation `A(d,t)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AllocationClass {
    /// `D = A = 1`: resources correctly allocated (used).
    Used,
    /// `D = A = 0`: resources correctly reclaimed (saved).
    Saved,
    /// `D = 0, A = 1`: resources wrongly allocated (idle) — the COGS cost.
    Idle,
    /// `D = 1, A = 0`: resources wrongly reclaimed (unavailable) — the QoS
    /// cost.
    Unavailable,
}

impl AllocationClass {
    /// Classify a `(demand, allocation)` pair per Definition 2.2.
    #[inline]
    pub const fn classify(demand: bool, allocated: bool) -> Self {
        match (demand, allocated) {
            (true, true) => AllocationClass::Used,
            (false, false) => AllocationClass::Saved,
            (false, true) => AllocationClass::Idle,
            (true, false) => AllocationClass::Unavailable,
        }
    }

    /// Whether the allocation decision matches demand (the optimum of §2.3
    /// allocates iff needed).
    #[inline]
    pub const fn is_correct(self) -> bool {
        matches!(self, AllocationClass::Used | AllocationClass::Saved)
    }
}

impl fmt::Display for AllocationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationClass::Used => write!(f, "used"),
            AllocationClass::Saved => write!(f, "saved"),
            AllocationClass::Idle => write!(f, "idle"),
            AllocationClass::Unavailable => write!(f, "unavailable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_follows_state() {
        assert!(DbState::Resumed.resources_allocated());
        assert!(DbState::LogicallyPaused.resources_allocated());
        assert!(!DbState::PhysicallyPaused.resources_allocated());
    }

    #[test]
    fn definition_2_2_truth_table() {
        assert_eq!(AllocationClass::classify(true, true), AllocationClass::Used);
        assert_eq!(
            AllocationClass::classify(false, false),
            AllocationClass::Saved
        );
        assert_eq!(
            AllocationClass::classify(false, true),
            AllocationClass::Idle
        );
        assert_eq!(
            AllocationClass::classify(true, false),
            AllocationClass::Unavailable
        );
    }

    #[test]
    fn only_matching_demand_is_correct() {
        assert!(AllocationClass::Used.is_correct());
        assert!(AllocationClass::Saved.is_correct());
        assert!(!AllocationClass::Idle.is_correct());
        assert!(!AllocationClass::Unavailable.is_correct());
    }
}
