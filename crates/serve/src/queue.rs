//! Bounded FIFO admission queue with a pluggable overflow policy.
//!
//! The queue is strictly FIFO: requests leave the front either as part of a
//! closed batch or as a `shed-oldest` victim; nothing reorders. Admission
//! at capacity is resolved by the [`OverflowPolicy`]:
//!
//! * [`OverflowPolicy::Block`] — reject the incoming request (classic tail
//!   drop);
//! * [`OverflowPolicy::ShedOldest`] — evict the head (the request most
//!   likely past its deadline anyway) and admit the newcomer;
//! * [`OverflowPolicy::ShedNewest`] — evict the youngest queued request and
//!   admit the newcomer (keeps the oldest work converging).

use crate::request::Request;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Anything the queue can admit and the device core can account for: its
/// arrival instant (seconds on whichever clock the caller runs — simulated
/// time in the DES, wall-clock-since-epoch in the live server), the id and
/// originating device its telemetry names it by, and an optional deadline
/// budget of its own.
pub trait Arriving {
    /// Arrival instant in seconds.
    fn arrival_s(&self) -> f64;
    /// The id events and [`CompletedRequest`](crate::CompletedRequest)s
    /// carry for this item.
    fn id(&self) -> u64;
    /// Originating device index.
    fn device(&self) -> u32;
    /// This item's own deadline budget, seconds from arrival; `None`
    /// defers to `ServeConfig::deadline_s`.
    fn deadline_s(&self) -> Option<f64> {
        None
    }
}

impl Arriving for Request {
    fn arrival_s(&self) -> f64 {
        self.arrival_s
    }
    fn id(&self) -> u64 {
        self.id
    }
    fn device(&self) -> u32 {
        self.device
    }
}

/// What to do with an arrival when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Reject the incoming request.
    Block,
    /// Evict the oldest queued request, admit the incoming one.
    ShedOldest,
    /// Evict the newest queued request, admit the incoming one.
    ShedNewest,
}

impl OverflowPolicy {
    /// Parses the CLI spelling (`block`, `oldest`, `newest`).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "block" => Some(OverflowPolicy::Block),
            "oldest" => Some(OverflowPolicy::ShedOldest),
            "newest" => Some(OverflowPolicy::ShedNewest),
            _ => None,
        }
    }

    /// The telemetry `reason` string attached to requests shed under this
    /// policy.
    #[must_use]
    pub fn shed_reason(self) -> &'static str {
        match self {
            OverflowPolicy::Block => "queue-full",
            OverflowPolicy::ShedOldest => "shed-oldest",
            OverflowPolicy::ShedNewest => "shed-newest",
        }
    }
}

/// Outcome of offering one request to the queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission<T = Request> {
    /// Admitted; `depth` is the occupancy after the push.
    Enqueued {
        /// Queue occupancy after admission.
        depth: u64,
    },
    /// The incoming request was rejected (queue full, [`OverflowPolicy::Block`]).
    Rejected,
    /// A queued victim was evicted to make room; the incoming request was
    /// admitted.
    Displaced {
        /// The evicted request.
        victim: T,
        /// Queue occupancy after eviction and admission.
        depth: u64,
    },
}

/// The bounded admission queue.
///
/// Generic over the queued item so the DES (which queues the lightweight
/// [`Request`]) and the live TCP server (which queues decoded wire requests
/// with their response plumbing attached) share one admission policy
/// implementation — the overflow semantics are identical by construction.
#[derive(Debug, Clone)]
pub struct AdmissionQueue<T: Arriving = Request> {
    capacity: usize,
    policy: OverflowPolicy,
    items: VecDeque<T>,
}

impl<T: Arriving> AdmissionQueue<T> {
    /// Creates an empty queue.
    ///
    /// A `capacity` of zero is legal and degenerate: every offer is
    /// rejected (there is no room to admit and no queued victim to
    /// displace), so such a queue sheds the entire arrival stream. The
    /// serving engine stays conservation-clean over it — `arrived == shed`
    /// with nothing ever served.
    #[must_use]
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        Self {
            capacity,
            policy,
            items: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Offers one request, resolving overflow per the policy.
    pub fn offer(&mut self, request: T) -> Admission<T> {
        if self.items.len() < self.capacity {
            self.items.push_back(request);
            return Admission::Enqueued {
                depth: self.items.len() as u64,
            };
        }
        if self.items.is_empty() {
            // Capacity zero: nothing to displace, the newcomer is the only
            // possible victim under every policy.
            return Admission::Rejected;
        }
        match self.policy {
            OverflowPolicy::Block => Admission::Rejected,
            OverflowPolicy::ShedOldest => {
                let victim = self.items.pop_front().expect("full queue has a head");
                self.items.push_back(request);
                Admission::Displaced {
                    victim,
                    depth: self.items.len() as u64,
                }
            }
            OverflowPolicy::ShedNewest => {
                let victim = self.items.pop_back().expect("full queue has a tail");
                self.items.push_back(request);
                Admission::Displaced {
                    victim,
                    depth: self.items.len() as u64,
                }
            }
        }
    }

    /// Removes and returns up to `max` requests from the front, in FIFO
    /// order.
    pub fn take_batch(&mut self, max: usize) -> Vec<T> {
        let n = self.items.len().min(max);
        self.items.drain(..n).collect()
    }

    /// Arrival instant of the oldest queued request, if any.
    #[must_use]
    pub fn oldest_arrival_s(&self) -> Option<f64> {
        self.items.front().map(Arriving::arrival_s)
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow policy.
    #[must_use]
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request {
            id,
            device: 0,
            arrival_s: id as f64 * 0.01,
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = AdmissionQueue::new(8, OverflowPolicy::Block);
        for id in 0..5 {
            q.offer(req(id));
        }
        let batch = q.take_batch(3);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 1, 2]);
        let rest = q.take_batch(10);
        assert_eq!(rest.iter().map(|r| r.id).collect::<Vec<_>>(), [3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn block_rejects_incoming_at_capacity() {
        let mut q = AdmissionQueue::new(2, OverflowPolicy::Block);
        q.offer(req(0));
        q.offer(req(1));
        assert_eq!(q.offer(req(2)), Admission::Rejected);
        assert_eq!(q.len(), 2);
        assert_eq!(q.take_batch(2)[0].id, 0);
    }

    #[test]
    fn shed_oldest_evicts_head() {
        let mut q = AdmissionQueue::new(2, OverflowPolicy::ShedOldest);
        q.offer(req(0));
        q.offer(req(1));
        match q.offer(req(2)) {
            Admission::Displaced { victim, depth } => {
                assert_eq!(victim.id, 0);
                assert_eq!(depth, 2);
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(
            q.take_batch(2).iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 2]
        );
    }

    #[test]
    fn shed_newest_evicts_tail() {
        let mut q = AdmissionQueue::new(2, OverflowPolicy::ShedNewest);
        q.offer(req(0));
        q.offer(req(1));
        match q.offer(req(2)) {
            Admission::Displaced { victim, .. } => assert_eq!(victim.id, 1),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(
            q.take_batch(2).iter().map(|r| r.id).collect::<Vec<_>>(),
            [0, 2]
        );
    }

    #[test]
    fn shed_reasons_are_stable() {
        assert_eq!(OverflowPolicy::Block.shed_reason(), "queue-full");
        assert_eq!(OverflowPolicy::ShedOldest.shed_reason(), "shed-oldest");
        assert_eq!(OverflowPolicy::ShedNewest.shed_reason(), "shed-newest");
    }

    #[test]
    fn parse_cli_spellings() {
        assert_eq!(OverflowPolicy::parse("block"), Some(OverflowPolicy::Block));
        assert_eq!(
            OverflowPolicy::parse("oldest"),
            Some(OverflowPolicy::ShedOldest)
        );
        assert_eq!(
            OverflowPolicy::parse("newest"),
            Some(OverflowPolicy::ShedNewest)
        );
        assert_eq!(OverflowPolicy::parse("lifo"), None);
    }

    #[test]
    fn zero_capacity_rejects_under_every_policy() {
        for policy in [
            OverflowPolicy::Block,
            OverflowPolicy::ShedOldest,
            OverflowPolicy::ShedNewest,
        ] {
            let mut q = AdmissionQueue::new(0, policy);
            assert_eq!(q.offer(req(0)), Admission::Rejected, "{policy:?}");
            assert!(q.is_empty());
            assert!(q.take_batch(4).is_empty());
        }
    }
}
