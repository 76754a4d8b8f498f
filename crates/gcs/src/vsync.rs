//! View-synchronous broadcast channel.
//!
//! The paper assumes the GCS "maintains view synchrony (VS) by which
//! messages are guaranteed to be delivered reliably and in order". This
//! module provides an executable model of that guarantee for the
//! discrete-event simulator: messages broadcast in a view are delivered to
//! every member of that view, in per-sender FIFO order, and all messages of
//! a view are flushed before the next view is installed (view atomicity).

use crate::membership::GroupView;
use crate::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// A broadcast message tagged with its originating view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewMessage<T> {
    /// View in which the message was sent.
    pub view_id: u64,
    /// Sending member.
    pub sender: NodeId,
    /// Per-sender sequence number within the view.
    pub seq: u64,
    /// Payload.
    pub payload: T,
}

/// A view-synchronous channel: broadcasts buffer within the current view
/// and are delivered atomically to all current members at flush/view-change
/// time.
#[derive(Debug, Clone)]
pub struct ViewSyncChannel<T> {
    view: GroupView,
    pending: Vec<ViewMessage<T>>,
    next_seq: BTreeMap<NodeId, u64>,
    delivered: BTreeMap<NodeId, VecDeque<ViewMessage<T>>>,
}

impl<T: Clone> ViewSyncChannel<T> {
    /// Open the channel in an initial view.
    pub fn new(view: GroupView) -> Self {
        let delivered = view.members.iter().map(|&m| (m, VecDeque::new())).collect();
        Self {
            view,
            pending: Vec::new(),
            next_seq: BTreeMap::new(),
            delivered,
        }
    }

    /// Current view.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// Broadcast `payload` from `sender` within the current view.
    ///
    /// # Panics
    /// Panics if `sender` is not a member of the current view.
    pub fn broadcast(&mut self, sender: NodeId, payload: T) {
        assert!(
            self.view.contains(sender),
            "sender {sender} not in view {}",
            self.view.view_id
        );
        let seq = self.next_seq.entry(sender).or_insert(0);
        self.pending.push(ViewMessage {
            view_id: self.view.view_id,
            sender,
            seq: *seq,
            payload,
        });
        *seq += 1;
    }

    /// Deliver all pending messages of the current view to every member's
    /// inbox (view-atomic delivery). Returns the number of deliveries
    /// (messages × recipients).
    pub fn flush(&mut self) -> usize {
        let mut deliveries = 0;
        for msg in self.pending.drain(..) {
            for &m in &self.view.members {
                self.delivered
                    .get_mut(&m)
                    .expect("member inbox exists")
                    .push_back(msg.clone());
                deliveries += 1;
            }
        }
        deliveries
    }

    /// Install a new view. Pending messages of the old view are flushed
    /// first (view synchrony: no message crosses a view boundary). Inboxes
    /// are created for joiners; leavers keep their already-delivered
    /// messages but receive nothing further.
    pub fn install_view(&mut self, next: GroupView) {
        assert!(next.view_id > self.view.view_id, "view ids must increase");
        self.flush();
        for &m in &next.members {
            self.delivered.entry(m).or_default();
        }
        self.next_seq.clear();
        self.view = next;
    }

    /// Drain the inbox of `node`.
    pub fn take_inbox(&mut self, node: NodeId) -> Vec<ViewMessage<T>> {
        self.delivered
            .get_mut(&node)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Messages waiting in the channel (sent, not yet flushed).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::MembershipEvent;

    fn channel() -> ViewSyncChannel<&'static str> {
        ViewSyncChannel::new(GroupView::initial([1, 2, 3]))
    }

    #[test]
    fn broadcast_reaches_all_members() {
        let mut ch = channel();
        ch.broadcast(1, "hello");
        assert_eq!(ch.pending_count(), 1);
        let n = ch.flush();
        assert_eq!(n, 3);
        for m in [1, 2, 3] {
            let inbox = ch.take_inbox(m);
            assert_eq!(inbox.len(), 1);
            assert_eq!(inbox[0].payload, "hello");
            assert_eq!(inbox[0].view_id, 0);
        }
    }

    #[test]
    fn per_sender_fifo_order() {
        let mut ch = channel();
        ch.broadcast(1, "a");
        ch.broadcast(1, "b");
        ch.broadcast(2, "x");
        ch.broadcast(1, "c");
        ch.flush();
        let inbox = ch.take_inbox(3);
        let from_1: Vec<&str> = inbox
            .iter()
            .filter(|m| m.sender == 1)
            .map(|m| m.payload)
            .collect();
        assert_eq!(from_1, vec!["a", "b", "c"]);
        let seqs: Vec<u64> = inbox
            .iter()
            .filter(|m| m.sender == 1)
            .map(|m| m.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn view_change_flushes_first() {
        let mut ch = channel();
        ch.broadcast(2, "last-in-view-0");
        let next = ch.view().apply(&MembershipEvent::Join(4));
        ch.install_view(next);
        // message was delivered to the OLD view's members only
        assert_eq!(ch.take_inbox(1).len(), 1);
        assert!(ch.take_inbox(4).is_empty());
        // new member can now receive
        ch.broadcast(4, "hi");
        ch.flush();
        assert_eq!(ch.take_inbox(1)[0].view_id, 1);
    }

    #[test]
    fn no_message_crosses_view_boundary() {
        let mut ch = channel();
        ch.broadcast(1, "v0");
        let next = ch.view().apply(&MembershipEvent::Evict(3));
        ch.install_view(next);
        ch.broadcast(1, "v1");
        ch.flush();
        // node 3 got the v0 message (it was a member then) but not v1
        let inbox3 = ch.take_inbox(3);
        assert_eq!(inbox3.len(), 1);
        assert_eq!(inbox3[0].view_id, 0);
        // remaining members see both, correctly tagged
        let inbox2 = ch.take_inbox(2);
        assert_eq!(inbox2.len(), 2);
        assert_eq!(inbox2[0].view_id, 0);
        assert_eq!(inbox2[1].view_id, 1);
    }

    #[test]
    #[should_panic]
    fn nonmember_cannot_broadcast() {
        let mut ch = channel();
        ch.broadcast(9, "nope");
    }

    #[test]
    #[should_panic]
    fn view_ids_must_increase() {
        let mut ch = channel();
        ch.install_view(GroupView::initial([1]));
    }

    #[test]
    fn seq_resets_per_view() {
        let mut ch = channel();
        ch.broadcast(1, "a");
        let next = ch.view().apply(&MembershipEvent::Join(4));
        ch.install_view(next);
        ch.broadcast(1, "b");
        ch.flush();
        let inbox = ch.take_inbox(2);
        // second message has seq 0 again in the new view
        let v1msg = inbox.iter().find(|m| m.view_id == 1).unwrap();
        assert_eq!(v1msg.seq, 0);
    }
}
