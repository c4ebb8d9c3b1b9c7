//! One compute node: finite capacity, per-database allocation units.
//!
//! Serverless compute reclaims idle databases' resources so that "the
//! number of physical machines is reduced" (§1).  A node hosts many
//! databases but only the resumed / logically-paused ones hold an
//! allocation unit; a physically paused database occupies no compute.

use prorp_types::{DatabaseId, NodeId, ProrpError};
use std::collections::HashSet;

/// A compute node.
#[derive(Clone, Debug)]
pub struct Node {
    id: NodeId,
    capacity: usize,
    /// Databases currently holding an allocation unit.
    allocated: HashSet<DatabaseId>,
    /// Databases homed on this node (allocated or not).
    homed: HashSet<DatabaseId>,
}

impl Node {
    /// A node with `capacity` allocation units.
    pub fn new(id: NodeId, capacity: usize) -> Self {
        Node {
            id,
            capacity,
            allocated: HashSet::new(),
            homed: HashSet::new(),
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
        self.allocated.len()
    }

    /// Units still free.
    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.allocated.len())
    }

    /// Whether `db` is homed here.
    pub fn hosts(&self, db: DatabaseId) -> bool {
        self.homed.contains(&db)
    }

    /// Whether `db` holds an allocation unit here.
    pub fn has_allocation(&self, db: DatabaseId) -> bool {
        self.allocated.contains(&db)
    }

    /// Number of homed databases.
    pub fn homed_count(&self) -> usize {
        self.homed.len()
    }

    /// Home a database on this node (without allocating).
    pub fn add_home(&mut self, db: DatabaseId) {
        self.homed.insert(db);
    }

    /// Remove a database entirely (move-away / deletion).
    pub fn remove_home(&mut self, db: DatabaseId) {
        self.homed.remove(&db);
        self.allocated.remove(&db);
    }

    /// Grant `db` an allocation unit.
    ///
    /// # Errors
    ///
    /// Fails when the node is full or does not host `db`; idempotent for
    /// a database that already holds a unit.
    pub fn allocate(&mut self, db: DatabaseId) -> Result<(), ProrpError> {
        if !self.homed.contains(&db) {
            return Err(ProrpError::Simulation(format!(
                "{db} is not homed on {}",
                self.id
            )));
        }
        // One probe either way: below capacity `insert` is right whether
        // or not `db` already held a unit; at capacity only a holder
        // may pass.
        if self.allocated.len() < self.capacity {
            self.allocated.insert(db);
            return Ok(());
        }
        if self.allocated.contains(&db) {
            return Ok(());
        }
        Err(ProrpError::Simulation(format!(
            "node {} is at capacity ({})",
            self.id, self.capacity
        )))
    }

    /// Release `db`'s allocation unit (idempotent).
    pub fn release(&mut self, db: DatabaseId) {
        self.allocated.remove(&db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(id: u64) -> DatabaseId {
        DatabaseId(id)
    }

    #[test]
    fn allocate_respects_capacity() {
        let mut n = Node::new(NodeId(0), 2);
        n.add_home(db(1));
        n.add_home(db(2));
        n.add_home(db(3));
        assert!(n.allocate(db(1)).is_ok());
        assert!(n.allocate(db(2)).is_ok());
        assert_eq!(n.free(), 0);
        let err = n.allocate(db(3)).unwrap_err();
        assert!(err.to_string().contains("capacity"));
        n.release(db(1));
        assert!(n.allocate(db(3)).is_ok());
    }

    #[test]
    fn allocate_is_idempotent_and_requires_homing() {
        let mut n = Node::new(NodeId(0), 1);
        n.add_home(db(1));
        assert!(n.allocate(db(1)).is_ok());
        assert_eq!(n.free(), 0);
        assert!(
            n.allocate(db(1)).is_ok(),
            "idempotent re-allocate, even full"
        );
        assert_eq!(n.in_use(), 1);
        assert!(n.allocate(db(9)).is_err(), "not homed");
    }

    #[test]
    fn remove_home_releases_everything() {
        let mut n = Node::new(NodeId(0), 4);
        n.add_home(db(1));
        n.allocate(db(1)).unwrap();
        n.remove_home(db(1));
        assert!(!n.hosts(db(1)));
        assert!(!n.has_allocation(db(1)));
        assert_eq!(n.in_use(), 0);
    }

    #[test]
    fn release_is_idempotent() {
        let mut n = Node::new(NodeId(0), 1);
        n.add_home(db(1));
        n.release(db(1));
        assert_eq!(n.in_use(), 0);
    }
}
