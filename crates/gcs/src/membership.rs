//! Group views and membership events.
//!
//! A *view* is the set of members a node believes is currently in its group,
//! tagged with a monotonically increasing view id. Every membership change
//! (join, voluntary leave, IDS eviction, partition, merge) installs a new
//! view; the rekey layer hangs a fresh group key off each installed view.

use crate::NodeId;
use std::collections::BTreeSet;

/// Why a view changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A node joined the group.
    Join(NodeId),
    /// A node left voluntarily.
    Leave(NodeId),
    /// A node was evicted by the IDS (cannot rejoin).
    Evict(NodeId),
    /// The group partitioned; this view kept the listed members.
    Partition(Vec<NodeId>),
    /// Another group's members merged into this view.
    Merge(Vec<NodeId>),
}

/// An installed group view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// Monotonic view identifier.
    pub view_id: u64,
    /// Current members, ordered (GDH stages follow this order).
    pub members: BTreeSet<NodeId>,
}

impl GroupView {
    /// Initial view (id 0) over the given members.
    pub fn initial(members: impl IntoIterator<Item = NodeId>) -> Self {
        Self {
            view_id: 0,
            members: members.into_iter().collect(),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// True when `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Members in GDH stage order.
    pub fn ordered_members(&self) -> Vec<NodeId> {
        self.members.iter().copied().collect()
    }

    /// Apply a membership event, producing the next view.
    ///
    /// # Panics
    /// Panics on inconsistent events (joining an existing member, removing
    /// a non-member) — these indicate protocol bugs upstream.
    pub fn apply(&self, event: &MembershipEvent) -> GroupView {
        let mut members = self.members.clone();
        match event {
            MembershipEvent::Join(n) => {
                assert!(members.insert(*n), "node {n} joined twice");
            }
            MembershipEvent::Leave(n) | MembershipEvent::Evict(n) => {
                assert!(members.remove(n), "node {n} not a member");
            }
            MembershipEvent::Partition(kept) => {
                let keep: BTreeSet<NodeId> = kept.iter().copied().collect();
                assert!(
                    keep.is_subset(&members),
                    "partition retained nodes outside the view"
                );
                members = keep;
            }
            MembershipEvent::Merge(incoming) => {
                for n in incoming {
                    assert!(members.insert(*n), "merge brought existing member {n}");
                }
            }
        }
        GroupView {
            view_id: self.view_id + 1,
            members,
        }
    }
}

/// A linear history of views with their triggering events.
#[derive(Debug, Clone, Default)]
pub struct ViewHistory {
    views: Vec<(GroupView, Option<MembershipEvent>)>,
}

impl ViewHistory {
    /// Start a history at the initial view.
    pub fn new(initial: GroupView) -> Self {
        Self {
            views: vec![(initial, None)],
        }
    }

    /// Current view.
    pub fn current(&self) -> &GroupView {
        &self.views.last().expect("history is never empty").0
    }

    /// Apply an event and install the successor view; returns a reference
    /// to it.
    pub fn install(&mut self, event: MembershipEvent) -> &GroupView {
        let next = self.current().apply(&event);
        self.views.push((next, Some(event)));
        &self.views.last().unwrap().0
    }

    /// Number of installed views (including the initial one).
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when only the initial view exists.
    pub fn is_empty(&self) -> bool {
        self.views.len() <= 1
    }

    /// Iterate views oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &GroupView> {
        self.views.iter().map(|(v, _)| v)
    }

    /// Events oldest-first (None for the initial view).
    pub fn events(&self) -> impl Iterator<Item = Option<&MembershipEvent>> {
        self.views.iter().map(|(_, e)| e.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view() {
        let v = GroupView::initial([3, 1, 2]);
        assert_eq!(v.view_id, 0);
        assert_eq!(v.size(), 3);
        assert_eq!(v.ordered_members(), vec![1, 2, 3]);
        assert!(v.contains(2));
        assert!(!v.contains(9));
    }

    #[test]
    fn join_leave_evict() {
        let v0 = GroupView::initial([1, 2]);
        let v1 = v0.apply(&MembershipEvent::Join(5));
        assert_eq!(v1.view_id, 1);
        assert!(v1.contains(5));
        let v2 = v1.apply(&MembershipEvent::Leave(1));
        assert!(!v2.contains(1));
        let v3 = v2.apply(&MembershipEvent::Evict(2));
        assert_eq!(v3.ordered_members(), vec![5]);
        assert_eq!(v3.view_id, 3);
    }

    #[test]
    #[should_panic]
    fn double_join_panics() {
        GroupView::initial([1]).apply(&MembershipEvent::Join(1));
    }

    #[test]
    #[should_panic]
    fn leave_nonmember_panics() {
        GroupView::initial([1]).apply(&MembershipEvent::Leave(2));
    }

    #[test]
    fn partition_keeps_subset() {
        let v = GroupView::initial([1, 2, 3, 4]);
        let p = v.apply(&MembershipEvent::Partition(vec![2, 4]));
        assert_eq!(p.ordered_members(), vec![2, 4]);
    }

    #[test]
    #[should_panic]
    fn partition_with_outsiders_panics() {
        GroupView::initial([1, 2]).apply(&MembershipEvent::Partition(vec![1, 7]));
    }

    #[test]
    fn merge_unions_members() {
        let v = GroupView::initial([1, 2]);
        let m = v.apply(&MembershipEvent::Merge(vec![8, 9]));
        assert_eq!(m.ordered_members(), vec![1, 2, 8, 9]);
    }

    #[test]
    fn history_tracks_views_and_events() {
        let mut h = ViewHistory::new(GroupView::initial([1, 2, 3]));
        assert!(h.is_empty());
        h.install(MembershipEvent::Join(4));
        h.install(MembershipEvent::Evict(2));
        assert_eq!(h.len(), 3);
        assert_eq!(h.current().ordered_members(), vec![1, 3, 4]);
        let ids: Vec<u64> = h.iter().map(|v| v.view_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let events: Vec<bool> = h.events().map(|e| e.is_some()).collect();
        assert_eq!(events, vec![false, true, true]);
    }
}
