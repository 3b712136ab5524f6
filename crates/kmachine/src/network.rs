//! Fine-grained network: per-round stepping over a complete topology.

#![warn(clippy::unwrap_used, clippy::expect_used)]
// ^ window-protocol / worker-path panic hygiene (kcheck KC05): a
// panic here kills a worker mid-window instead of failing the
// attempt cleanly. Tests opt back in below.

use crate::bandwidth::{Bandwidth, CostModel};
use crate::link::Link;
use crate::message::{Encoding, Envelope};
use crate::metrics::CommStats;

/// Configuration of a k-machine network.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Number of machines `k ≥ 2`.
    pub k: usize,
    /// Per-directed-link bandwidth policy.
    pub bandwidth: Bandwidth,
    /// Instance size `n` (resolves polylog bandwidth).
    pub n: usize,
    /// Which §1.1 restriction the BSP layer charges rounds under. The
    /// fine-grained [`Network`] stepper always transmits per link.
    pub cost_model: CostModel,
    /// Which wire encoding the BSP layer charges bandwidth under. The
    /// fine-grained [`Network`] stepper always charges per message (it
    /// transmits messages one at a time, so there is no batch to encode);
    /// only [`crate::bsp::Bsp`] supersteps batch-encode.
    pub encoding: Encoding,
}

impl NetworkConfig {
    /// A standard per-link configuration.
    pub fn new(k: usize, bandwidth: Bandwidth, n: usize) -> Self {
        NetworkConfig {
            k,
            bandwidth,
            n,
            cost_model: CostModel::PerLink,
            encoding: Encoding::Naive,
        }
    }

    /// The resolved per-link bits-per-round budget `W`.
    pub fn link_bits(&self) -> u64 {
        self.bandwidth.bits_per_round(self.n)
    }

    /// Number of directed links in the complete topology.
    pub fn directed_links(&self) -> u64 {
        (self.k as u64) * (self.k as u64 - 1)
    }
}

/// A complete network of `k` machines with per-round transmission.
///
/// The fine-grained reference: [`crate::bsp::Bsp`]'s per-superstep round
/// charge is property-tested against it, and it drives
/// [`crate::program::Runner`]'s message-passing programs. It has no fault
/// injection or byte transport; those belong to the superstep layer.
pub struct Network<M> {
    cfg: NetworkConfig,
    w: u64,
    /// Directed link `(i, j)`, `i != j`, stored at `i * k + j`.
    links: Vec<Link<M>>,
    stats: CommStats,
    round: u64,
}

impl<M> Network<M> {
    /// Creates an idle network.
    pub fn new(cfg: NetworkConfig) -> Self {
        assert!(cfg.k >= 2, "the model requires k >= 2");
        let links = (0..cfg.k * cfg.k).map(|_| Link::default()).collect();
        Network {
            w: cfg.link_bits(),
            links,
            stats: CommStats::new(cfg.k),
            round: 0,
            cfg,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Enqueues a message. Local (self-addressed) messages are delivered
    /// immediately by the caller and never touch a link; passing one here
    /// is a bug.
    pub fn send(&mut self, env: Envelope<M>) {
        assert!(
            env.src < self.cfg.k && env.dst < self.cfg.k,
            "bad machine id"
        );
        assert!(!env.is_local(), "local messages do not use links");
        self.stats.messages += 1;
        self.stats.total_bits += env.bits;
        self.stats.naive_bits += env.bits;
        self.stats.sent_bits[env.src] += env.bits;
        self.stats.recv_bits[env.dst] += env.bits;
        let idx = env.src * self.cfg.k + env.dst;
        self.links[idx].push(env);
    }

    /// Advances one synchronous round: every directed link transmits up to
    /// `W` bits. Returns all messages delivered this round.
    pub fn step(&mut self) -> Vec<Envelope<M>> {
        self.round += 1;
        self.stats.rounds += 1;
        let mut delivered = Vec::new();
        for l in &mut self.links {
            delivered.extend(l.transmit(self.w));
        }
        delivered
    }

    /// Steps until all queues drain; returns everything delivered.
    pub fn drain(&mut self) -> Vec<Envelope<M>> {
        let mut out = Vec::new();
        while !self.idle() {
            out.extend(self.step());
        }
        out
    }

    /// Whether all link queues are empty.
    pub fn idle(&self) -> bool {
        self.links.iter().all(super::link::Link::is_empty)
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Communication statistics so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::message::WireSize;

    #[derive(Clone, Debug)]
    struct B(u64);
    impl WireSize for B {
        fn wire_bits(&self) -> u64 {
            self.0
        }
    }

    fn cfg(k: usize, w: u64) -> NetworkConfig {
        NetworkConfig::new(k, Bandwidth::Bits(w), 1024)
    }

    #[test]
    fn drain_time_matches_max_link_load() {
        let mut net: Network<B> = Network::new(cfg(4, 10));
        // Link (0,1): 35 bits -> 4 rounds. Link (2,3): 10 bits -> 1 round.
        net.send(Envelope::new(0, 1, B(20)));
        net.send(Envelope::new(0, 1, B(15)));
        net.send(Envelope::new(2, 3, B(10)));
        let out = net.drain();
        assert_eq!(out.len(), 3);
        assert_eq!(net.round(), 4);
    }

    #[test]
    fn parallel_links_do_not_interfere() {
        let k = 6;
        let mut net: Network<B> = Network::new(cfg(k, 8));
        // Every ordered pair sends one 8-bit message: one round suffices.
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    net.send(Envelope::new(i, j, B(8)));
                }
            }
        }
        let out = net.drain();
        assert_eq!(out.len(), k * (k - 1));
        assert_eq!(net.round(), 1);
    }

    #[test]
    fn stats_track_bits_and_machines() {
        let mut net: Network<B> = Network::new(cfg(3, 100));
        net.send(Envelope::new(0, 1, B(40)));
        net.send(Envelope::new(0, 2, B(60)));
        net.send(Envelope::new(1, 0, B(5)));
        net.drain();
        let s = net.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.total_bits, 105);
        assert_eq!(s.sent_bits, vec![100, 5, 0]);
        assert_eq!(s.recv_bits, vec![5, 40, 60]);
    }

    #[test]
    #[should_panic(expected = "local messages")]
    fn local_send_is_rejected() {
        let mut net: Network<B> = Network::new(cfg(2, 10));
        net.send(Envelope::new(1, 1, B(1)));
    }
}
