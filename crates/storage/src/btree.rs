//! An order-configurable B+Tree over `i64` keys.
//!
//! The history table's clustered index (§5) is a B-tree on the
//! `time_snapshot` column; this module supplies it to `prorp-sqlmini`,
//! whose tables store their rows in it.  All values live in the
//! leaves (B+Tree layout), internal nodes hold only separator keys, so a
//! range scan touches `O(log n + m)` entries — the asymptotics the paper's
//! complexity analysis (§5, §6) relies on.
//!
//! Deletion is *lazy with structural cleanup*: entries are removed from
//! their leaf, an emptied child is unlinked from its parent, and a root
//! with a single child is collapsed.  Underfull-but-nonempty nodes are not
//! rebalanced — the standard trade-off in delete-light workloads (the
//! history table deletes in one daily batch, Algorithm 3), which keeps all
//! invariants needed for correct search while avoiding rotation complexity.

use prorp_types::ProrpError;
use std::fmt;
use std::ops::Bound;

/// Default maximum number of entries in a leaf / children in an internal
/// node.  64 × 16-byte entries ≈ 1 KiB per leaf — a comfortable cache-line
/// multiple for the few-KiB histories of Figure 10.
pub const DEFAULT_ORDER: usize = 64;

#[derive(Clone, Debug)]
enum Node<V> {
    Leaf {
        entries: Vec<(i64, V)>,
    },
    Internal {
        /// `children[i]` holds keys `< keys[i]`; `children[i+1]` holds keys
        /// `>= keys[i]`.
        keys: Vec<i64>,
        children: Vec<Node<V>>,
    },
}

impl<V> Node<V> {
    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf { entries } => entries.is_empty(),
            Node::Internal { children, .. } => children.is_empty(),
        }
    }
}

/// A B+Tree mapping unique `i64` keys to values.
#[derive(Clone)]
pub struct BTree<V> {
    root: Node<V>,
    len: usize,
    order: usize,
}

impl<V> Default for BTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for BTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len)
            .field("order", &self.order)
            .finish_non_exhaustive()
    }
}

enum InsertResult<V> {
    Done,
    Split { sep: i64, right: Node<V> },
}

impl<V> BTree<V> {
    /// An empty tree with the [`DEFAULT_ORDER`].
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// An empty tree with a custom order (minimum 4).
    ///
    /// # Panics
    ///
    /// Panics if `order < 4`; smaller orders cannot split meaningfully.
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "B+Tree order must be at least 4, got {order}");
        BTree {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
            order,
        }
    }

    /// Number of entries in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured node order.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Point lookup: `O(log n)`.
    pub fn get(&self, key: i64) -> Option<&V> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { entries } => {
                    return entries
                        .binary_search_by_key(&key, |(k, _)| *k)
                        .ok()
                        .map(|i| &entries[i].1);
                }
                Node::Internal { keys, children } => {
                    node = &children[child_index(keys, key)];
                }
            }
        }
    }

    /// Whether `key` is present: `O(log n)`.
    #[inline]
    pub fn contains_key(&self, key: i64) -> bool {
        self.get(key).is_some()
    }

    /// Mutable point lookup: `O(log n)`.
    pub fn get_mut(&mut self, key: i64) -> Option<&mut V> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf { entries } => {
                    return entries
                        .binary_search_by_key(&key, |(k, _)| *k)
                        .ok()
                        .map(|i| &mut entries[i].1);
                }
                Node::Internal { keys, children } => {
                    let idx = child_index(keys, key);
                    node = &mut children[idx];
                }
            }
        }
    }

    /// Insert a new entry; duplicate keys are rejected, mirroring the
    /// `IF NOT EXISTS` uniqueness requirement of Algorithm 2.
    pub fn insert(&mut self, key: i64, value: V) -> Result<(), ProrpError> {
        match Self::insert_rec(&mut self.root, key, value, self.order)? {
            InsertResult::Done => {}
            InsertResult::Split { sep, right } => {
                // Grow a new root above the split halves.
                let old_root = std::mem::replace(
                    &mut self.root,
                    Node::Leaf {
                        entries: Vec::new(),
                    },
                );
                self.root = Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                };
            }
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        node: &mut Node<V>,
        key: i64,
        value: V,
        order: usize,
    ) -> Result<InsertResult<V>, ProrpError> {
        match node {
            Node::Leaf { entries } => {
                match entries.binary_search_by_key(&key, |(k, _)| *k) {
                    Ok(_) => {
                        return Err(ProrpError::Storage(format!(
                            "duplicate key {key} violates clustered-index uniqueness"
                        )))
                    }
                    Err(pos) => entries.insert(pos, (key, value)),
                }
                if entries.len() > order {
                    let right_entries = entries.split_off(entries.len() / 2);
                    let sep = right_entries[0].0;
                    Ok(InsertResult::Split {
                        sep,
                        right: Node::Leaf {
                            entries: right_entries,
                        },
                    })
                } else {
                    Ok(InsertResult::Done)
                }
            }
            Node::Internal { keys, children } => {
                let idx = child_index(keys, key);
                match Self::insert_rec(&mut children[idx], key, value, order)? {
                    InsertResult::Done => Ok(InsertResult::Done),
                    InsertResult::Split { sep, right } => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if children.len() > order {
                            let mid = keys.len() / 2;
                            let sep_up = keys[mid];
                            let right_keys = keys.split_off(mid + 1);
                            keys.pop(); // sep_up moves up, not right
                            let right_children = children.split_off(mid + 1);
                            Ok(InsertResult::Split {
                                sep: sep_up,
                                right: Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                },
                            })
                        } else {
                            Ok(InsertResult::Done)
                        }
                    }
                }
            }
        }
    }

    /// Remove `key`, returning its value if present: `O(log n)`.
    pub fn remove(&mut self, key: i64) -> Option<V> {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root that degenerated to a single child.
            while let Node::Internal { children, .. } = &mut self.root {
                if children.len() == 1 {
                    self.root = children.pop().expect("checked non-empty");
                } else {
                    break;
                }
            }
            if self.len == 0 {
                self.root = Node::Leaf {
                    entries: Vec::new(),
                };
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node<V>, key: i64) -> Option<V> {
        match node {
            Node::Leaf { entries } => entries
                .binary_search_by_key(&key, |(k, _)| *k)
                .ok()
                .map(|i| entries.remove(i).1),
            Node::Internal { keys, children } => {
                let idx = child_index(keys, key);
                let removed = Self::remove_rec(&mut children[idx], key);
                if removed.is_some() && children[idx].is_empty() {
                    children.remove(idx);
                    // Removing child idx drops one separator: the one to its
                    // left if it exists, else the one to its right.
                    if !keys.is_empty() {
                        keys.remove(idx.saturating_sub(1).min(keys.len() - 1));
                    }
                }
                removed
            }
        }
    }

    /// Smallest entry: `O(log n)`.
    pub fn min_entry(&self) -> Option<(i64, &V)> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { entries } => return entries.first().map(|(k, v)| (*k, v)),
                Node::Internal { children, .. } => node = children.first()?,
            }
        }
    }

    /// Largest entry: `O(log n)`.
    pub fn max_entry(&self) -> Option<(i64, &V)> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { entries } => return entries.last().map(|(k, v)| (*k, v)),
                Node::Internal { children, .. } => node = children.last()?,
            }
        }
    }

    /// Iterate entries with keys in the given bounds, ascending:
    /// `O(log n + m)`.
    pub fn range(&self, lo: Bound<i64>, hi: Bound<i64>) -> RangeIter<'_, V> {
        RangeIter::new(&self.root, lo, hi)
    }

    /// Iterate all entries ascending.
    pub fn iter(&self) -> RangeIter<'_, V> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Depth of the tree (1 for a lone leaf).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut node = &self.root;
        while let Node::Internal { children, .. } = node {
            d += 1;
            node = &children[0];
        }
        d
    }

    /// Verify structural invariants; used by property tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        let counted = Self::check_node(&self.root, i64::MIN, i64::MAX, self.order, true);
        assert_eq!(counted, self.len, "len counter out of sync");
    }

    fn check_node(node: &Node<V>, lo: i64, hi: i64, order: usize, is_root: bool) -> usize {
        match node {
            Node::Leaf { entries } => {
                assert!(entries.len() <= order + 1, "leaf overflow");
                for w in entries.windows(2) {
                    assert!(w[0].0 < w[1].0, "leaf keys not strictly ascending");
                }
                for (k, _) in entries {
                    assert!(lo <= *k && *k < hi, "leaf key {k} outside ({lo}, {hi})");
                }
                entries.len()
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1, "child/key arity mismatch");
                assert!(children.len() <= order + 1, "internal overflow");
                if !is_root {
                    assert!(!children.is_empty(), "empty non-root internal node");
                }
                for w in keys.windows(2) {
                    assert!(w[0] < w[1], "separator keys not strictly ascending");
                }
                let mut total = 0;
                for (i, child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { keys[i - 1] };
                    let chi = if i == keys.len() { hi } else { keys[i] };
                    total += Self::check_node(child, clo, chi, order, false);
                }
                total
            }
        }
    }
}

/// Index of the child subtree that may contain `key`.
#[inline]
fn child_index(keys: &[i64], key: i64) -> usize {
    // First separator strictly greater than key → descend left of it.
    match keys.binary_search(&key) {
        Ok(i) => i + 1, // keys equal to the separator live in the right child
        Err(i) => i,
    }
}

/// Ascending iterator over a key range, driven by an explicit descent stack.
pub struct RangeIter<'a, V> {
    /// Stack of (node, next child / entry index to visit).
    stack: Vec<(&'a Node<V>, usize)>,
    hi: Bound<i64>,
}

impl<'a, V> RangeIter<'a, V> {
    fn new(root: &'a Node<V>, lo: Bound<i64>, hi: Bound<i64>) -> Self {
        let mut stack = Vec::new();
        // Descend to the first leaf position >= lo, recording the path.
        let mut node = root;
        loop {
            match node {
                Node::Leaf { entries } => {
                    let start = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(l) => entries.partition_point(|(k, _)| *k < l),
                        Bound::Excluded(l) => entries.partition_point(|(k, _)| *k <= l),
                    };
                    stack.push((node, start));
                    break;
                }
                Node::Internal { keys, children } => {
                    let idx = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(l) | Bound::Excluded(l) => child_index(keys, l),
                    };
                    stack.push((node, idx + 1));
                    node = &children[idx];
                }
            }
        }
        RangeIter { stack, hi }
    }
}

impl<'a, V> Iterator for RangeIter<'a, V> {
    type Item = (i64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let hi = self.hi;
            let (node, idx) = self.stack.last_mut()?;
            match node {
                Node::Leaf { entries } => {
                    if let Some((k, v)) = entries.get(*idx) {
                        let in_range = match hi {
                            Bound::Unbounded => true,
                            Bound::Included(h) => *k <= h,
                            Bound::Excluded(h) => *k < h,
                        };
                        if !in_range {
                            self.stack.clear();
                            return None;
                        }
                        *idx += 1;
                        return Some((*k, v));
                    }
                    self.stack.pop();
                }
                Node::Internal { children, .. } => {
                    if let Some(child) = children.get(*idx) {
                        *idx += 1;
                        // Enter the child at its beginning.
                        let mut node = child;
                        loop {
                            match node {
                                Node::Leaf { .. } => {
                                    self.stack.push((node, 0));
                                    break;
                                }
                                Node::Internal { children, .. } => {
                                    self.stack.push((node, 1));
                                    node = &children[0];
                                }
                            }
                        }
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(keys: impl IntoIterator<Item = i64>) -> BTree<i64> {
        let mut t = BTree::with_order(4);
        for k in keys {
            t.insert(k, k * 10).unwrap();
        }
        t.check_invariants();
        t
    }

    #[test]
    fn empty_tree_basics() {
        let t: BTree<i64> = BTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(1), None);
        assert_eq!(t.min_entry(), None);
        assert_eq!(t.max_entry(), None);
        assert_eq!(t.iter().count(), 0);
        t.check_invariants();
    }

    #[test]
    fn insert_and_get_across_splits() {
        let t = tree_of(0..500);
        assert_eq!(t.len(), 500);
        assert!(t.depth() > 1, "expected splits at order 4");
        for k in 0..500 {
            assert_eq!(t.get(k), Some(&(k * 10)), "key {k}");
        }
        assert_eq!(t.get(500), None);
        assert_eq!(t.get(-1), None);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut t = tree_of([5]);
        let err = t.insert(5, 0).unwrap_err();
        assert!(err.to_string().contains("duplicate key 5"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn min_max_entries() {
        let t = tree_of([30, 10, 20, 50, 40]);
        assert_eq!(t.min_entry(), Some((10, &100)));
        assert_eq!(t.max_entry(), Some((50, &500)));
    }

    #[test]
    fn reverse_insertion_order_is_fine() {
        let t = tree_of((0..200).rev());
        let keys: Vec<_> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds_are_honoured() {
        let t = tree_of((0..100).map(|k| k * 2)); // even keys 0..198
        let collect = |lo, hi| -> Vec<i64> { t.range(lo, hi).map(|(k, _)| k).collect() };
        assert_eq!(
            collect(Bound::Included(10), Bound::Included(20)),
            vec![10, 12, 14, 16, 18, 20]
        );
        assert_eq!(
            collect(Bound::Excluded(10), Bound::Excluded(20)),
            vec![12, 14, 16, 18]
        );
        // Bounds between keys.
        assert_eq!(
            collect(Bound::Included(11), Bound::Included(15)),
            vec![12, 14]
        );
        assert_eq!(collect(Bound::Unbounded, Bound::Excluded(6)), vec![0, 2, 4]);
        assert_eq!(
            collect(Bound::Included(194), Bound::Unbounded),
            vec![194, 196, 198]
        );
        assert!(collect(Bound::Included(50), Bound::Excluded(50)).is_empty());
    }

    #[test]
    fn remove_returns_value_and_shrinks() {
        let mut t = tree_of(0..100);
        assert_eq!(t.remove(40), Some(400));
        assert_eq!(t.remove(40), None);
        assert_eq!(t.len(), 99);
        assert!(!t.contains_key(40));
        t.check_invariants();
    }

    #[test]
    fn remove_everything_resets_to_leaf_root() {
        let mut t = tree_of(0..256);
        for k in 0..256 {
            assert!(t.remove(k).is_some(), "key {k}");
            t.check_invariants();
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 1);
        // Reusable after full drain.
        t.insert(7, 70).unwrap();
        assert_eq!(t.get(7), Some(&70));
    }

    #[test]
    fn interleaved_inserts_and_removes_stay_consistent() {
        let mut t = BTree::with_order(4);
        let mut model = std::collections::BTreeMap::new();
        // A deterministic pseudo-random walk.
        let mut x: i64 = 12345;
        for step in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 300;
            if step % 3 == 0 {
                assert_eq!(t.remove(key), model.remove(&key));
            } else {
                let res = t.insert(key, step);
                let existed = model.insert(key, step);
                match existed {
                    None => assert!(res.is_ok()),
                    Some(old) => {
                        assert!(res.is_err());
                        model.insert(key, old); // restore model: tree rejected
                    }
                }
            }
        }
        t.check_invariants();
        assert_eq!(t.len(), model.len());
        let tree_pairs: Vec<_> = t.iter().map(|(k, v)| (k, *v)).collect();
        let model_pairs: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(tree_pairs, model_pairs);
    }

    #[test]
    #[should_panic(expected = "order must be at least 4")]
    fn tiny_order_panics() {
        let _ = BTree::<i64>::with_order(2);
    }
}
