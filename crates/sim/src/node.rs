//! One compute node: finite capacity, counted allocation units.
//!
//! Serverless compute reclaims idle databases' resources so that "the
//! number of physical machines is reduced" (§1).  A node hosts many
//! databases but only the resumed / logically-paused ones hold an
//! allocation unit; a physically paused database occupies no compute.
//!
//! A node does not know *which* databases it hosts: that is one home
//! column and one allocated bit per database slot in the
//! [`Cluster`](crate::cluster::Cluster), which is also the only thing
//! that moves these counters.  What a node keeps is what placement,
//! spill and rebalancing decide on — how many databases are homed here,
//! how many units are in use, how many there are.

use prorp_types::NodeId;

/// A compute node.
#[derive(Clone, Debug)]
pub struct Node {
    id: NodeId,
    capacity: usize,
    /// Allocation units held by databases homed here.
    in_use: usize,
    /// Databases homed on this node (allocated or not).
    homed: usize,
}

impl Node {
    /// A node with `capacity` allocation units.
    pub fn new(id: NodeId, capacity: usize) -> Self {
        Node {
            id,
            capacity,
            in_use: 0,
            homed: 0,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total allocation units.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Units currently in use.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Units still free.
    pub fn free(&self) -> usize {
        self.capacity - self.in_use
    }

    /// Number of homed databases.
    pub fn homed_count(&self) -> usize {
        self.homed
    }

    /// A database is now homed here (without a unit).
    pub(crate) fn add_home(&mut self) {
        self.homed += 1;
    }

    /// A database homed here left (move-away), giving back its unit if
    /// it `held_unit`.
    pub(crate) fn remove_home(&mut self, held_unit: bool) {
        self.homed -= 1;
        if held_unit {
            self.release_unit();
        }
    }

    /// Grant one allocation unit; `false` (and nothing changes) when the
    /// node is at capacity.
    pub(crate) fn take_unit(&mut self) -> bool {
        if self.in_use == self.capacity {
            return false;
        }
        self.in_use += 1;
        true
    }

    /// Take back one allocation unit.
    pub(crate) fn release_unit(&mut self) {
        self.in_use -= 1;
    }
}

#[cfg(test)]
mod tests {
    //! A node's counters only move through the cluster, so these drive a
    //! one-node (or two-node) cluster and read the node.

    use crate::cluster::{AllocationOutcome, Cluster};
    use prorp_types::NodeId;

    #[test]
    fn allocate_respects_capacity() {
        let mut c = Cluster::new(1, 2).unwrap();
        let slots: Vec<usize> = (0..3).map(|_| c.place()).collect();
        assert_eq!(c.allocate(slots[0]), AllocationOutcome::OnHomeNode);
        assert_eq!(c.allocate(slots[1]), AllocationOutcome::OnHomeNode);
        assert_eq!(c.nodes()[0].free(), 0);
        assert_eq!(c.allocate(slots[2]), AllocationOutcome::Oversubscribed);
        assert_eq!(c.nodes()[0].in_use(), 2, "never beyond capacity");
        c.release(slots[0]);
        assert_eq!(c.allocate(slots[2]), AllocationOutcome::OnHomeNode);
        assert_eq!(c.nodes()[0].in_use(), 2);
    }

    #[test]
    fn allocate_is_idempotent_and_requires_homing() {
        let mut c = Cluster::new(2, 1).unwrap();
        let slot = c.place();
        let home = c.home_of(slot);
        assert_eq!(c.allocate(slot), AllocationOutcome::OnHomeNode);
        assert_eq!(
            c.allocate(slot),
            AllocationOutcome::OnHomeNode,
            "idempotent re-allocate, even full"
        );
        // The unit is counted once, on the home node and nowhere else.
        for n in c.nodes() {
            assert_eq!(n.in_use(), usize::from(n.id() == home), "{:?}", n.id());
            assert_eq!(n.homed_count(), usize::from(n.id() == home));
        }
    }

    #[test]
    fn remove_home_releases_everything() {
        let mut c = Cluster::new(2, 4).unwrap();
        let slot = c.place();
        let home = c.home_of(slot);
        c.allocate(slot);
        let target = NodeId(1 - home.raw());
        c.move_database(slot, target).unwrap();
        let left = &c.nodes()[home.raw() as usize];
        assert_eq!((left.homed_count(), left.in_use()), (0, 0));
        assert_eq!(left.free(), left.capacity());
    }

    #[test]
    fn release_is_idempotent() {
        let mut c = Cluster::new(1, 1).unwrap();
        let slot = c.place();
        c.release(slot);
        assert_eq!(c.nodes()[0].in_use(), 0);
        c.allocate(slot);
        c.release(slot);
        c.release(slot);
        assert_eq!(c.nodes()[0].in_use(), 0);
        assert_eq!(c.nodes()[0].homed_count(), 1);
    }
}
