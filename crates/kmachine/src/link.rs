//! A directed communication link with FIFO queueing and a per-round budget.

#![warn(clippy::unwrap_used, clippy::expect_used)]
// ^ window-protocol / worker-path panic hygiene (kcheck KC05): a
// panic here kills a worker mid-window instead of failing the
// attempt cleanly. Tests opt back in below.

use crate::message::Envelope;
use std::collections::VecDeque;

/// One directed link's transmission queue.
///
/// Messages are transmitted in FIFO order; a message larger than the
/// per-round budget occupies the link for `⌈bits/W⌉` consecutive rounds
/// (partial transmission carries over).
#[derive(Debug)]
pub struct Link<M> {
    queue: VecDeque<(Envelope<M>, u64)>, // (message, remaining bits)
}

impl<M> Default for Link<M> {
    fn default() -> Self {
        Link {
            queue: VecDeque::new(),
        }
    }
}

impl<M> Link<M> {
    /// Enqueues a message for transmission.
    pub fn push(&mut self, env: Envelope<M>) {
        let bits = env.bits.max(1); // even an empty payload needs a round slot
        self.queue.push_back((env, bits));
    }

    /// Transmits one round's worth of bits; returns messages fully delivered
    /// this round (available to the receiver at the start of the next round).
    pub fn transmit(&mut self, budget: u64) -> Vec<Envelope<M>> {
        let mut remaining = budget;
        let mut delivered = Vec::new();
        while remaining > 0 {
            let Some((_, rem)) = self.queue.front_mut() else {
                break;
            };
            if *rem <= remaining {
                remaining -= *rem;
                if let Some((env, _)) = self.queue.pop_front() {
                    delivered.push(env);
                }
            } else {
                *rem -= remaining;
                remaining = 0;
            }
        }
        delivered
    }

    /// Bits still queued.
    pub fn backlog_bits(&self) -> u64 {
        self.queue.iter().map(|(_, rem)| *rem).sum()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::message::WireSize;

    #[derive(Clone, Debug, PartialEq)]
    struct P(u64, u64); // (id, bits)
    impl WireSize for P {
        fn wire_bits(&self) -> u64 {
            self.1
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut l: Link<P> = Link::default();
        for i in 0..5 {
            l.push(Envelope::new(0, 1, P(i, 10)));
        }
        let out = l.transmit(100);
        let ids: Vec<u64> = out.iter().map(|e| e.payload.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn budget_limits_deliveries_per_round() {
        let mut l: Link<P> = Link::default();
        for i in 0..4 {
            l.push(Envelope::new(0, 1, P(i, 10)));
        }
        assert_eq!(l.transmit(25).len(), 2); // 10+10 delivered, 5 bits into #2
        assert_eq!(l.backlog_bits(), 15);
        assert_eq!(l.transmit(25).len(), 2); // the rest
        assert!(l.is_empty());
    }

    #[test]
    fn oversized_message_takes_multiple_rounds() {
        let mut l: Link<P> = Link::default();
        l.push(Envelope::new(0, 1, P(7, 100)));
        assert!(l.transmit(30).is_empty());
        assert!(l.transmit(30).is_empty());
        assert!(l.transmit(30).is_empty());
        let out = l.transmit(30); // 4th round: 120 >= 100
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload.0, 7);
    }

    #[test]
    fn zero_bit_payload_still_occupies_a_slot() {
        #[derive(Clone)]
        struct Z;
        impl WireSize for Z {
            fn wire_bits(&self) -> u64 {
                0
            }
        }
        let mut l: Link<Z> = Link::default();
        l.push(Envelope::new(0, 1, Z));
        assert_eq!(l.backlog_bits(), 1);
    }
}

#[cfg(test)]
mod proptests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::message::WireSize;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    struct Sized(u64);
    impl WireSize for Sized {
        fn wire_bits(&self) -> u64 {
            self.0
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Conservation: a link delivers exactly what was enqueued, in
        /// order, and the number of rounds equals ceil(total/bits).
        #[test]
        fn link_conserves_messages_and_time(
            sizes in prop::collection::vec(1u64..200, 0..30),
            budget in 1u64..64,
        ) {
            let mut l: Link<Sized> = Link::default();
            for &b in &sizes {
                l.push(Envelope::new(0, 1, Sized(b)));
            }
            let total: u64 = sizes.iter().sum();
            prop_assert_eq!(l.backlog_bits(), total);
            let mut rounds = 0u64;
            let mut got = Vec::new();
            while !l.is_empty() {
                rounds += 1;
                got.extend(l.transmit(budget));
                prop_assert!(rounds <= total + 1, "must terminate");
            }
            prop_assert_eq!(got.len(), sizes.len());
            // FIFO order preserved.
            for (env, &b) in got.iter().zip(&sizes) {
                prop_assert_eq!(env.payload.0, b);
            }
            prop_assert_eq!(rounds, total.div_ceil(budget));
        }
    }
}
