//! Answers checked against the sequential oracle (`kgraph::refalgo`).

use kgraph::graph::Edge;
use kgraph::{refalgo, Graph};
use std::collections::HashMap;

/// Relabels a partition by each vertex's first-seen class, so two labelings
/// of the same partition become equal vectors.
fn canonical<L: Copy + Eq + std::hash::Hash>(labels: &[L]) -> Vec<u32> {
    let mut seen: HashMap<L, u32> = HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = seen.len() as u32;
            *seen.entry(l).or_insert(next)
        })
        .collect()
}

/// The oracle's answers for one graph.
pub struct Expected {
    components: Vec<u32>,
    forest: Vec<(u64, u32, u32)>,
    weight: u128,
}

impl Expected {
    /// Union-find components and the Kruskal forest of `g`.
    pub fn of(g: &Graph) -> Expected {
        let forest = refalgo::kruskal(g);
        Expected {
            components: canonical(&refalgo::connected_components(g)),
            forest: keys(&forest),
            weight: refalgo::forest_weight(&forest),
        }
    }

    /// Checks a Connectivity answer: the same partition of the vertices.
    pub fn check_partition(&self, labels: &[u64]) -> Result<(), String> {
        let got = canonical(labels);
        if got.len() != self.components.len() {
            return Err(format!(
                "labels cover {} vertices, the oracle {}",
                got.len(),
                self.components.len()
            ));
        }
        match got.iter().zip(&self.components).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(v) => Err(format!("partition differs from the oracle at vertex {v}")),
        }
    }

    /// Checks an Mst answer: the same edge set and total weight as Kruskal.
    pub fn check_forest(&self, edges: &[Edge]) -> Result<(), String> {
        let got = keys(edges);
        let weight = refalgo::forest_weight(edges);
        if got != self.forest || weight != self.weight {
            return Err(format!(
                "forest has {} edges of weight {weight}, Kruskal {} of weight {}",
                got.len(),
                self.forest.len(),
                self.weight
            ));
        }
        Ok(())
    }
}

/// An edge set as sorted `(w, min, max)` keys.
fn keys(edges: &[Edge]) -> Vec<(u64, u32, u32)> {
    let mut k: Vec<_> = edges
        .iter()
        .map(|e| (e.w, e.u.min(e.v), e.u.max(e.v)))
        .collect();
    k.sort_unstable();
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_compare_up_to_relabeling() {
        let g = Graph::unweighted(5, [(0, 1), (2, 3)]);
        let e = Expected::of(&g);
        assert!(e.check_partition(&[7, 7, 2, 2, 9]).is_ok());
        assert!(e.check_partition(&[7, 7, 7, 2, 9]).is_err());
        assert!(e.check_partition(&[7, 7, 2, 2]).is_err());
    }

    #[test]
    fn forests_must_match_kruskal() {
        let g = Graph::from_edges(3, [(0, 1, 5), (1, 2, 1), (0, 2, 9)]);
        let e = Expected::of(&g);
        assert!(e
            .check_forest(&[Edge::new(2, 1, 1), Edge::new(1, 0, 5)])
            .is_ok());
        assert!(e
            .check_forest(&[Edge::new(1, 2, 1), Edge::new(0, 2, 9)])
            .is_err());
    }
}
