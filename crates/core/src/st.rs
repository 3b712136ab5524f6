//! Spanning forest in `O~(n/k²)` rounds (paper §1, §3.1).
//!
//! The paper's introduction lists "computing a spanning tree" among the
//! problems the fast connectivity algorithm unlocks: the connectivity
//! engine already merges along one verified outgoing edge per component per
//! phase — recording those merge edges yields a spanning forest with *no*
//! weight-elimination overhead (unlike MST, which pays a `Θ(log n)` factor
//! for MWOEs). Output follows Theorem 2(a)'s relaxed criterion: each forest
//! edge is output by at least one machine (the proxy that chose it).

use crate::engine::{Engine, Mode};
use crate::mst::MstConfig;
use kgraph::graph::Edge;
use kgraph::{Graph, Partition, ShardedGraph};
use kmachine::metrics::CommStats;

/// The result of a spanning-forest run.
#[derive(Clone, Debug)]
pub struct SpanningForestOutput {
    /// The forest edges (canonical, deduplicated, sorted).
    pub edges: Vec<Edge>,
    /// Full communication accounting.
    pub stats: CommStats,
    /// Borůvka-style phases executed.
    pub phases: u32,
    /// How many edges each machine output.
    pub edges_per_machine: Vec<usize>,
}

/// Computes a spanning forest of `g` over `k` machines (one spanning tree
/// per connected component).
///
/// Deprecated-in-place: a thin shim over the session API
/// ([`crate::session::SpanningForest`]); bit-identical to running on a
/// [`crate::session::Cluster`] built with the same `(k, seed)`.
///
/// ```
/// use kconn::st::spanning_forest;
/// use kconn::mst::MstConfig;
/// use kgraph::{generators, refalgo};
///
/// let g = generators::cycle(40);
/// let out = spanning_forest(&g, 4, 1, &MstConfig::default());
/// assert_eq!(out.edges.len(), 39);
/// assert!(refalgo::is_spanning_forest(&g, &out.edges));
/// ```
pub fn spanning_forest(g: &Graph, k: usize, seed: u64, cfg: &MstConfig) -> SpanningForestOutput {
    use crate::session::{Cluster, Problem, SpanningForest};
    Cluster::builder(k)
        .seed(seed)
        .ingest_graph(g)
        .run(SpanningForest::with(cfg.clone()))
        .output
}

/// Computes a spanning forest with an explicit partition — the harness
/// path; everyone else goes through [`crate::session::Cluster`].
pub fn spanning_forest_with_partition(
    g: &Graph,
    part: &Partition,
    seed: u64,
    cfg: &MstConfig,
) -> SpanningForestOutput {
    let sg = ShardedGraph::from_graph(g, part);
    spanning_forest_sharded(&sg, seed, cfg)
}

/// Computes a spanning forest directly on sharded storage (the streaming
/// ingestion path).
pub fn spanning_forest_sharded(
    sg: &ShardedGraph,
    seed: u64,
    cfg: &MstConfig,
) -> SpanningForestOutput {
    let result = Engine::new(sg, Mode::SpanningForest, seed, cfg.engine()).run();
    let mut edges: Vec<Edge> = result
        .mst_edges
        .iter()
        .map(|&(u, v, w)| Edge::new(u, v, w))
        .collect();
    edges.sort_unstable_by_key(|e| (e.u, e.v));
    edges.dedup();
    SpanningForestOutput {
        edges,
        stats: result.stats,
        phases: result.phases,
        edges_per_machine: result.mst_edges_per_machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::minimum_spanning_tree;
    use kgraph::{generators, refalgo};

    fn check(g: &Graph, k: usize, seed: u64) -> SpanningForestOutput {
        let out = spanning_forest(g, k, seed, &MstConfig::default());
        assert!(
            refalgo::is_spanning_forest(g, &out.edges),
            "output must span each component acyclically"
        );
        assert_eq!(out.edges.len(), g.n() - refalgo::component_count(g));
        out
    }

    #[test]
    fn spans_connected_graphs() {
        check(&generators::random_connected(200, 150, 1), 4, 2);
        check(&generators::grid(9, 11), 4, 3);
        check(&generators::cycle(64), 2, 4);
    }

    #[test]
    fn spans_each_component_of_disconnected_graphs() {
        let g = generators::planted_components(180, 3, 4, 5);
        let out = check(&g, 4, 6);
        assert_eq!(out.edges.len(), 180 - 3);
    }

    #[test]
    fn cheaper_than_mst_on_weighted_graphs() {
        // No elimination loop: the spanning forest must cost well under the
        // MST run on the same input.
        let g = generators::randomize_weights(&generators::gnm(1024, 4096, 7), 1_000_000, 8);
        let st = spanning_forest(&g, 8, 9, &MstConfig::default());
        let mst = minimum_spanning_tree(&g, 8, 9, &MstConfig::default());
        assert!(
            2 * st.stats.rounds < mst.stats.rounds,
            "ST {} rounds should be ≪ MST {} rounds",
            st.stats.rounds,
            mst.stats.rounds
        );
    }

    #[test]
    fn handles_isolated_vertices() {
        let g = Graph::unweighted(30, [(0, 1), (1, 2)]);
        let out = check(&g, 2, 10);
        assert_eq!(out.edges.len(), 2);
    }
}
