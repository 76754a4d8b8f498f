//! Unit-disc connectivity graph: adjacency, connected components (mobile
//! groups), and BFS hop counts.
//!
//! One graph is meant to be rebuilt in place at every mobility step
//! ([`ConnectivityGraph::rebuild`]); its buffers keep their capacity, so a
//! step allocates nothing once the graph has seen the population.
//!
//! The adjacency is one bit matrix: node `i`'s row is ⌈N/64⌉ `u64` words
//! whose set bits are its neighbours, N·⌈N/64⌉·8 bytes in all, N²/8 once
//! the rows fill their words (96 bytes at N = 12, 1.6 KB at N = 100). A
//! compressed neighbour list of 32-bit indices spends 8 bytes per linked
//! pair, so the matrix is the smaller one whenever more than one pair in
//! 32 is linked; unit-disc graphs in the paper's geometry (250 m range in
//! a 500 m-radius disc) link a large share of all pairs.

use crate::geometry::Vec2;
use std::collections::VecDeque;

/// Bits per adjacency word.
const WORD: usize = u64::BITS as usize;

/// Snapshot of the communication graph at one instant.
///
/// Component labels are dense and numbered by each component's lowest node
/// index (node 0 is always in component 0), so [`labels`](Self::labels) and
/// [`component_sizes`](Self::component_sizes) are a function of the
/// partition alone. Each node's neighbours come in ascending index order.
#[derive(Debug, Default)]
pub struct ConnectivityGraph {
    /// Words per adjacency row, ⌈N/64⌉.
    words: usize,
    /// Node `i`'s neighbours are the set bits of
    /// `rows[i * words..(i + 1) * words]`, bit `j % 64` of word `j / 64`
    /// standing for node `j`.
    rows: Vec<u64>,
    labels: Vec<u32>,
    component_sizes: Vec<u32>,
    /// Nodes the labelling pass has not reached yet, one bit each.
    unlabelled: Vec<u64>,
    /// Depth-first search stack of the labelling pass.
    stack: Vec<u32>,
}

/// The set bits of one adjacency word, ascending, offset by `base`.
struct Bits {
    word: u64,
    base: u32,
}

impl Iterator for Bits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl ConnectivityGraph {
    /// Build the unit-disc graph over `positions` with the given
    /// `radio_range` (two nodes are linked iff within range).
    pub fn build(positions: &[Vec2], radio_range: f64) -> Self {
        let mut g = Self::default();
        g.rebuild(positions, radio_range);
        g
    }

    /// Replace this graph with the unit-disc graph over `positions`,
    /// reusing its buffers: the result equals
    /// [`build`](Self::build)`(positions, radio_range)`. Once the buffers
    /// have grown to the population, a rebuild allocates nothing.
    ///
    /// Every pair `i < j` is tested once, and the test's outcome is the
    /// bit written to both rows, with no branch on it. In the paper's
    /// geometry (250 m range in a 500 m-radius disc) a cell grid as wide
    /// as the range prunes too few pairs to pay for binning the nodes, the
    /// less so as a pair costs one squared distance and two bit writes.
    pub fn rebuild(&mut self, positions: &[Vec2], radio_range: f64) {
        let n = positions.len();
        let words = n.div_ceil(WORD);
        self.words = words;
        self.rows.clear();
        self.rows.resize(n * words, 0);
        let r2 = radio_range * radio_range;
        for (i, &p) in positions.iter().enumerate() {
            let (head, later_rows) = self.rows.split_at_mut((i + 1) * words);
            let row = &mut head[i * words..];
            // Row i's bits for the later nodes gather in `acc`, a word at
            // a time; each later node's row gets bit i directly.
            let mut acc = 0;
            for (j, (&q, other)) in (i + 1..).zip(
                positions[i + 1..]
                    .iter()
                    .zip(later_rows.chunks_exact_mut(words)),
            ) {
                let linked = u64::from(p.distance_sq(q) <= r2);
                other[i / WORD] |= linked << (i % WORD);
                acc |= linked << (j % WORD);
                if j % WORD == WORD - 1 || j == n - 1 {
                    row[j / WORD] |= acc;
                    acc = 0;
                }
            }
        }

        // Components by flooding rows from the lowest unlabelled node, so
        // labels follow each component's lowest node: a node's unlabelled
        // neighbours are its row masked by the unlabelled set. The flood is
        // a depth-first search whose stack holds the labelled nodes whose
        // rows are still to be read.
        self.labels.clear();
        self.labels.resize(n, 0);
        self.component_sizes.clear();
        self.component_sizes.reserve(n);
        self.unlabelled.clear();
        self.unlabelled.resize(words, u64::MAX);
        if let Some(last) = self.unlabelled.last_mut() {
            *last = u64::MAX >> (words * WORD - n);
        }
        self.stack.reserve(n);
        for start in 0..n {
            if self.unlabelled[start / WORD] & (1 << (start % WORD)) == 0 {
                continue;
            }
            let label = self.component_sizes.len() as u32;
            self.labels[start] = label;
            self.unlabelled[start / WORD] &= !(1 << (start % WORD));
            self.stack.push(start as u32);
            let mut size = 0;
            while let Some(u) = self.stack.pop() {
                size += 1;
                let row = &self.rows[u as usize * words..][..words];
                for (w, (&adjacent, unlabelled)) in row.iter().zip(&mut self.unlabelled).enumerate()
                {
                    let fresh = adjacent & *unlabelled;
                    *unlabelled &= !fresh;
                    for v in (Bits {
                        word: fresh,
                        base: (w * WORD) as u32,
                    }) {
                        self.labels[v as usize] = label;
                        self.stack.push(v);
                    }
                }
            }
            self.component_sizes.push(size);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Neighbors of node `i`, in ascending index order.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let row = &self.rows[i * self.words..][..self.words];
        row.iter().enumerate().flat_map(|(w, &word)| Bits {
            word,
            base: (w * WORD) as u32,
        })
    }

    /// Dense component label of node `i`.
    pub fn component_of(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Component labels for all nodes.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Number of connected components (mobile groups).
    pub fn component_count(&self) -> usize {
        self.component_sizes.len()
    }

    /// Size of each component.
    pub fn component_sizes(&self) -> &[u32] {
        &self.component_sizes
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.rows
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// BFS hop distances from `source` (`u32::MAX` for unreachable nodes).
    pub fn hop_distances(&self, source: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count()];
        let mut q = VecDeque::new();
        dist[source] = 0;
        q.push_back(source as u32);
        while let Some(u) = q.pop_front() {
            let du = dist[u as usize];
            for v in self.neighbors(u as usize) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Mean hop count over all connected ordered pairs reachable from
    /// `source` (excluding the source itself); `None` if the source is
    /// isolated.
    pub fn mean_hops_from(&self, source: usize) -> Option<f64> {
        let dist = self.hop_distances(source);
        let mut total = 0u64;
        let mut count = 0u64;
        for (i, &d) in dist.iter().enumerate() {
            if i != source && d != u32::MAX {
                total += d as u64;
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(total as f64 / count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<Vec2> {
        (0..n).map(|i| Vec2::new(i as f64 * spacing, 0.0)).collect()
    }

    #[test]
    fn chain_connectivity() {
        // nodes 100 m apart, range 150: a path graph
        let pts = line(5, 100.0);
        let g = ConnectivityGraph::build(&pts, 150.0);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [1]);
        assert_eq!(g.hop_distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.mean_hops_from(0), Some(2.5));
    }

    #[test]
    fn disconnected_components() {
        let mut pts = line(3, 10.0);
        pts.push(Vec2::new(1_000.0, 0.0));
        pts.push(Vec2::new(1_000.0, 5.0));
        let g = ConnectivityGraph::build(&pts, 20.0);
        assert_eq!(g.component_count(), 2);
        let mut sizes = g.component_sizes().to_vec();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
        // cross-component distance is unreachable
        assert_eq!(g.hop_distances(0)[3], u32::MAX);
        assert_eq!(g.component_of(0), g.component_of(2));
        assert_ne!(g.component_of(0), g.component_of(3));
    }

    #[test]
    fn complete_graph_when_dense() {
        let pts = line(4, 1.0);
        let g = ConnectivityGraph::build(&pts, 10.0);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.mean_hops_from(2), Some(1.0));
    }

    #[test]
    fn isolated_node_mean_hops_none() {
        let pts = vec![Vec2::default(), Vec2::new(1_000.0, 0.0)];
        let g = ConnectivityGraph::build(&pts, 10.0);
        assert_eq!(g.mean_hops_from(0), None);
        assert_eq!(g.component_count(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = ConnectivityGraph::build(&[], 10.0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.component_count(), 0);
    }

    #[test]
    fn range_boundary_inclusive() {
        let pts = vec![Vec2::default(), Vec2::new(100.0, 0.0)];
        let g = ConnectivityGraph::build(&pts, 100.0);
        assert_eq!(g.edge_count(), 1);
        let g2 = ConnectivityGraph::build(&pts, 99.999);
        assert_eq!(g2.edge_count(), 0);
    }
}

/// Oracle tests: a graph rebuilt in place must equal a fresh build and a
/// brute-force partition, whatever the reuse history.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force reference: sorted neighbour lists over all pairs, and
    /// components labelled by depth-first search from the lowest
    /// unlabelled node (so labels follow each component's lowest index).
    fn brute_force(points: &[Vec2], range: f64) -> (Vec<Vec<u32>>, Vec<u32>, Vec<u32>) {
        let n = points.len();
        let r2 = range * range;
        let nbrs: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i && points[i].distance_sq(points[j]) <= r2)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        let mut labels = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        for start in 0..n {
            if labels[start] != u32::MAX {
                continue;
            }
            let label = sizes.len() as u32;
            let mut size = 0;
            let mut stack = vec![start];
            labels[start] = label;
            while let Some(u) = stack.pop() {
                size += 1;
                for &v in &nbrs[u] {
                    if labels[v as usize] == u32::MAX {
                        labels[v as usize] = label;
                        stack.push(v as usize);
                    }
                }
            }
            sizes.push(size);
        }
        (nbrs, labels, sizes)
    }

    fn assert_matches_oracle(g: &ConnectivityGraph, points: &[Vec2], range: f64) {
        let (nbrs, labels, sizes) = brute_force(points, range);
        assert_eq!(g.node_count(), points.len());
        assert_eq!(g.labels(), &labels[..]);
        assert_eq!(g.component_sizes(), &sizes[..]);
        assert_eq!(g.component_count(), sizes.len());
        assert_eq!(g.edge_count(), nbrs.iter().map(Vec::len).sum::<usize>() / 2);
        for (i, expected) in nbrs.iter().enumerate() {
            // neighbour lists are documented ascending, so compare as is
            assert_eq!(
                g.neighbors(i).collect::<Vec<_>>(),
                *expected,
                "neighbours of node {i}"
            );
        }
    }

    /// Points on an integer lattice, so that many pairs sit at exactly the
    /// (integer) range and some coincide.
    fn lattice_points(rng: &mut StdRng, n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|_| {
                Vec2::new(
                    f64::from(rng.gen_range(-12i32..12)),
                    f64::from(rng.gen_range(-12i32..12)),
                )
            })
            .collect()
    }

    fn disc_points(rng: &mut StdRng, n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|_| Vec2::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)))
            .collect()
    }

    #[test]
    fn rebuild_on_a_reused_graph_equals_fresh_build_and_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut reused = ConnectivityGraph::default();
        for round in 0..60 {
            let n = rng.gen_range(0..120);
            let (points, range) = if round % 2 == 0 {
                (
                    lattice_points(&mut rng, n),
                    f64::from(rng.gen_range(0i32..8)),
                )
            } else {
                (disc_points(&mut rng, n), rng.gen_range(10.0..300.0))
            };
            reused.rebuild(&points, range);
            assert_matches_oracle(&reused, &points, range);
            let fresh = ConnectivityGraph::build(&points, range);
            assert_matches_oracle(&fresh, &points, range);
            assert_eq!(reused.labels(), fresh.labels());
            assert_eq!(reused.component_sizes(), fresh.component_sizes());
            for i in 0..n {
                assert_eq!(
                    reused.neighbors(i).collect::<Vec<_>>(),
                    fresh.neighbors(i).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn reuse_across_growing_and_shrinking_populations() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = ConnectivityGraph::default();
        for n in [0, 1, 5, 40, 3, 0, 1, 80, 80, 2, 17, 1] {
            let points = disc_points(&mut rng, n);
            g.rebuild(&points, 250.0);
            assert_matches_oracle(&g, &points, 250.0);
        }
    }

    #[test]
    fn word_boundary_sizes_fully_linked_and_fully_isolated() {
        // one node short of a full adjacency word, a full word, one node
        // into the next word, two full words and one node past them
        let mut g = ConnectivityGraph::default();
        for n in [63, 64, 65, 128, 129] {
            let points: Vec<Vec2> = (0..n).map(|i| Vec2::new(i as f64, 0.0)).collect();
            let linked = ConnectivityGraph::build(&points, n as f64);
            assert_matches_oracle(&linked, &points, n as f64);
            assert_eq!(linked.component_sizes(), &[n as u32]);
            assert_eq!(linked.edge_count(), n * (n - 1) / 2);
            let isolated = ConnectivityGraph::build(&points, 0.5);
            assert_matches_oracle(&isolated, &points, 0.5);
            assert_eq!(isolated.component_count(), n);
            assert_eq!(isolated.edge_count(), 0);
            // the reused graph, alternating between the two extremes
            for range in [n as f64, 0.5, n as f64] {
                g.rebuild(&points, range);
                assert_matches_oracle(&g, &points, range);
            }
        }
    }

    #[test]
    fn pairs_at_exactly_the_range_are_linked() {
        // a 3-4-5 triangle: |p0 p1| = 5 exactly, |p1 p2| = 4, |p0 p2| = 3
        let pts = [Vec2::default(), Vec2::new(3.0, 4.0), Vec2::new(3.0, 0.0)];
        let g = ConnectivityGraph::build(&pts, 5.0);
        assert_eq!(g.edge_count(), 3);
        let g = ConnectivityGraph::build(&pts, 4.0);
        assert_eq!(g.edge_count(), 2);
        assert_matches_oracle(&g, &pts, 4.0);
    }

    #[test]
    fn coincident_points_are_linked_even_at_zero_range() {
        let pts = [
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 1.0),
        ];
        let g = ConnectivityGraph::build(&pts, 0.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.labels(), &[0, 0, 1]);
        assert_eq!(g.component_sizes(), &[2, 1]);
    }

    #[test]
    fn single_node_is_its_own_component() {
        let g = ConnectivityGraph::build(&[Vec2::new(5.0, -5.0)], 10.0);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.labels(), &[0]);
        assert_eq!(g.component_sizes(), &[1]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.hop_distances(0), vec![0]);
    }

    #[test]
    fn pairs_across_a_range_wide_cell_boundary_are_linked() {
        // the case a spatial grid of range-wide cells must get right:
        // points in adjacent cells, just within range
        let pts = [Vec2::new(9.9, 0.0), Vec2::new(10.1, 0.0)];
        let g = ConnectivityGraph::build(&pts, 10.0);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), [1]);
        assert_eq!(g.edge_count(), 1);
        assert_matches_oracle(&g, &pts, 10.0);
    }

    #[test]
    fn pairs_at_negative_coordinates_are_linked() {
        let pts = [
            Vec2::new(-5.0, -5.0),
            Vec2::new(-6.0, -5.5),
            Vec2::new(200.0, 200.0),
        ];
        let g = ConnectivityGraph::build(&pts, 50.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.labels(), &[0, 0, 1]);
        assert_matches_oracle(&g, &pts, 50.0);
    }

    #[test]
    fn labels_follow_the_lowest_node_index() {
        // node 0 joins the far cluster, so the near pair is labelled second
        let pts = [
            Vec2::new(1_000.0, 0.0),
            Vec2::default(),
            Vec2::new(1.0, 0.0),
            Vec2::new(1_001.0, 0.0),
        ];
        let g = ConnectivityGraph::build(&pts, 5.0);
        assert_eq!(g.labels(), &[0, 1, 1, 0]);
        assert_eq!(g.component_sizes(), &[2, 2]);
    }
}
