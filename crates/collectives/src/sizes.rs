//! Block-size metadata for the all-to-all: the `B_pq` matrix of Section 3
//! ("every processor p initially owns a block of data, containing B_pq
//! words, destined for every processor q").

/// The `P × P` matrix of block sizes for an all-to-all: `get(p, q)` is the
/// number of words rank `p` sends to rank `q` (local ranks of the
/// communicator the collective runs on).
///
/// Every rank must construct an identical `BlockSizes` (it always derives
/// from layout metadata in this codebase), which is what lets the index
/// algorithm route blocks without size headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSizes {
    p: usize,
    sizes: Vec<usize>,
}

impl BlockSizes {
    /// Build from a closure over `(src, dst)` local ranks.
    pub fn from_fn(p: usize, f: impl Fn(usize, usize) -> usize) -> Self {
        let mut sizes = Vec::with_capacity(p * p);
        for s in 0..p {
            for d in 0..p {
                sizes.push(f(s, d));
            }
        }
        BlockSizes { p, sizes }
    }

    /// All blocks the same size `b`.
    pub fn uniform(p: usize, b: usize) -> Self {
        BlockSizes {
            p,
            sizes: vec![b; p * p],
        }
    }

    /// Number of ranks.
    pub fn procs(&self) -> usize {
        self.p
    }

    /// Words sent from local rank `src` to local rank `dst`.
    pub fn get(&self, src: usize, dst: usize) -> usize {
        self.sizes[src * self.p + dst]
    }

    /// The paper's `B* = max(max_q Σ_p B_pq, max_p Σ_q B_pq)`: the maximum
    /// number of words any processor holds before or after the collective.
    pub fn max_load(&self) -> usize {
        let mut max_out = 0;
        let mut col_sums = vec![0usize; self.p];
        for s in 0..self.p {
            let mut row = 0;
            for d in 0..self.p {
                let b = self.get(s, d);
                row += b;
                col_sums[d] += b;
            }
            max_out = max_out.max(row);
        }
        let max_in = col_sums.into_iter().max().unwrap_or(0);
        max_out.max(max_in)
    }

    /// Total words moved.
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let b = BlockSizes::from_fn(3, |s, d| 10 * s + d);
        assert_eq!(b.get(0, 0), 0);
        assert_eq!(b.get(2, 1), 21);
        assert_eq!(b.procs(), 3);
    }

    #[test]
    fn uniform_stats() {
        let b = BlockSizes::uniform(4, 5);
        assert_eq!(b.max_load(), 20);
        assert_eq!(b.total(), 80);
    }

    #[test]
    fn max_load_is_row_or_column_max() {
        // Rank 0 sends a lot; rank 2 receives a lot.
        let b = BlockSizes::from_fn(3, |s, d| match (s, d) {
            (0, _) => 10,
            (_, 2) => 7,
            _ => 1,
        });
        // row sums: 30, 1+1+7=9, 1+1+7=9 ; col sums: 10+1+1=12, 12, 10+7+7=24
        assert_eq!(b.max_load(), 30);
    }

    #[test]
    fn empty_and_zero() {
        let b = BlockSizes::uniform(2, 0);
        assert_eq!(b.max_load(), 0);
        assert_eq!(b.total(), 0);
    }
}
