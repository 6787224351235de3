//! Disjoint-set union (union-find) with union by rank and path compression.

/// Disjoint-set forest over the dense element range `0..len`.
///
/// Used by Kruskal's maximum-spanning-forest construction (backbone
/// initialisation, Algorithm 1) and by the `NI` and `SS` baselines.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets `{0}, {1}, …, {len-1}`.
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
            rank: vec![0; len],
            num_sets: len,
        }
    }

    /// Number of disjoint sets currently present.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Representative of the set containing `x`, with path compression.
    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression pass.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`.  Returns `true` if a merge
    /// happened (i.e. they were in different sets).
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.num_sets -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_sets(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
        assert_ne!(uf.find(0), uf.find(1));
    }

    #[test]
    fn union_merges_and_counts_sets() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2)); // already together
        assert_eq!(uf.num_sets(), 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        assert!(uf.union(3, 4));
        assert_eq!(uf.num_sets(), 2);
    }

    #[test]
    fn path_compression_keeps_results_consistent() {
        let mut uf = UnionFind::new(64);
        // Build a long chain by always unioning adjacent elements.
        for i in 0..63 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        let root = uf.find(0);
        for i in 0..64 {
            assert_eq!(uf.find(i), root);
        }
    }

    #[test]
    fn empty_structure_is_valid() {
        let uf = UnionFind::new(0);
        assert_eq!(uf.num_sets(), 0);
    }
}
