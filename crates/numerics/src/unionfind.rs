//! Disjoint-set forest (union–find) with union by rank and path halving.
//!
//! Used by the clustered model to group structurally identical clusters
//! into symmetry orbits.

/// Union–find over `0..len`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Self {
            parent: (0..len as u32).collect(),
            rank: vec![0; len],
            components: len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for an empty structure.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: usize) -> usize {
        assert!(x < self.parent.len(), "union-find index {x} out of range");
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    /// Merge the sets containing `a` and `b`; returns `true` when a merge
    /// actually happened.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    // detlint::allow(U001): oracle of unionfind::tests::union_and_find and big_chain_components
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Map every element to a dense component id in `0..component_count()`,
    /// returned together with per-component sizes.
    pub fn component_labels(&mut self) -> (Vec<u32>, Vec<u32>) {
        let n = self.parent.len();
        let mut label_of_root = vec![u32::MAX; n];
        let mut labels = vec![0u32; n];
        let mut sizes: Vec<u32> = Vec::new();
        for x in 0..n {
            let r = self.find(x);
            if label_of_root[r] == u32::MAX {
                label_of_root[r] = sizes.len() as u32;
                sizes.push(0);
            }
            labels[x] = label_of_root[r];
            sizes[label_of_root[r] as usize] += 1;
        }
        (labels, sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0)); // already merged
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        uf.union(1, 3);
        assert!(uf.connected(0, 2));
        assert_eq!(uf.component_count(), 3); // {0,1,2,3} {4} {5}
    }

    #[test]
    fn labels_are_dense_and_sizes_sum() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 3);
        uf.union(3, 5);
        uf.union(1, 2);
        let (labels, sizes) = uf.component_labels();
        assert_eq!(labels.len(), 7);
        assert_eq!(sizes.iter().sum::<u32>(), 7);
        assert_eq!(sizes.len(), uf.component_count());
        // same set, same label
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[0], labels[5]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[1]);
        // labels dense in 0..count
        let max = *labels.iter().max().unwrap() as usize;
        assert_eq!(max + 1, sizes.len());
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut uf = UnionFind::new(2);
        uf.find(2);
    }

    #[test]
    fn big_chain_components() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, n - 1));
    }
}
