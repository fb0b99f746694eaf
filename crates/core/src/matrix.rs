//! Condensed pairwise distance matrices, computed in parallel.

use crate::distance::{PacketDistance, PacketFeatures};
use crate::par::run_jobs;
use leaksig_compress::Compressor;

/// A symmetric zero-diagonal matrix stored as the strict upper triangle.
#[derive(Debug, Clone)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedMatrix {
    /// Matrix of `n` points, all distances zero.
    pub fn zeros(n: usize) -> Self {
        let cells = if n < 2 { 0 } else { n * (n - 1) / 2 };
        CondensedMatrix {
            n,
            data: vec![0.0; cells],
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the condensed layout plus column offset.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between points `i` and `j` (0 when `i == j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }

    /// Set the distance between distinct points `i` and `j`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.data[idx] = v;
    }
}

/// Split a condensed buffer into per-row mutable slices so worker threads
/// can write their claimed rows without locks or aliasing.
///
/// Row `i` costs `n − i − 1` cells, so a static deal (round-robin or
/// chunks) leaves the worker that drew the long early rows straggling
/// while the rest sit idle. Handing the rows to [`run_jobs`] in natural
/// order claims the longest first and keeps every worker busy until the
/// tail of cheap rows drains — the longest-processing-time heuristic.
fn row_slices(n: usize, data: &mut [f64]) -> Vec<(usize, &mut [f64])> {
    let mut rows: Vec<(usize, &mut [f64])> = Vec::with_capacity(n - 1);
    let mut rest: &mut [f64] = data;
    for i in 0..n - 1 {
        let (row, tail) = rest.split_at_mut(n - i - 1);
        rows.push((i, row));
        rest = tail;
    }
    rows
}

/// Compute the pairwise packet-distance matrix over `features`,
/// parallelised across all available cores.
///
/// Each worker claims whole rows from a shared queue and computes
/// row `i` through [`PacketDistance::row`]: the three content fields of
/// packet `i` are compressed once into resumable encoder snapshots, and
/// every cell resumes those snapshots with packet `j`'s fields — O(n)
/// prefix compressions instead of O(n²), with the per-pair cost reduced
/// to the `y`-side continuation.
pub fn pairwise<C: Compressor + Sync>(
    dist: &PacketDistance<C>,
    features: &[PacketFeatures],
) -> CondensedMatrix {
    let n = features.len();
    if n < 2 {
        return CondensedMatrix::zeros(n);
    }
    let mut matrix = CondensedMatrix::zeros(n);
    run_jobs(row_slices(n, &mut matrix.data), |(i, row)| {
        let mut rd = dist.row(&features[i]);
        for (off, cell) in row.iter_mut().enumerate() {
            let j = i + 1 + off;
            *cell = rd.packet(&features[j]);
        }
    });
    matrix
}

/// [`pairwise`] without resumable compressor state: every cell compresses
/// its concatenations from scratch via [`PacketDistance::packet`]. Same
/// dynamic row-claiming parallelism, so benchmarking this against
/// [`pairwise`] isolates exactly the snapshot-reuse win. Results are
/// bit-identical (the prefix contract demands exact counts) — asserted by
/// tests and by the bench harness before timing.
pub fn pairwise_naive<C: Compressor + Sync>(
    dist: &PacketDistance<C>,
    features: &[PacketFeatures],
) -> CondensedMatrix {
    let n = features.len();
    if n < 2 {
        return CondensedMatrix::zeros(n);
    }
    let mut matrix = CondensedMatrix::zeros(n);
    run_jobs(row_slices(n, &mut matrix.data), |(i, row)| {
        for (off, cell) in row.iter_mut().enumerate() {
            let j = i + 1 + off;
            *cell = dist.packet(&features[i], &features[j]);
        }
    });
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::PacketDistance;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn feats(n: usize) -> Vec<PacketFeatures> {
        let d: PacketDistance = PacketDistance::default();
        (0..n)
            .map(|i| {
                let p = RequestBuilder::get("/x")
                    .query("i", &i.to_string())
                    .destination(
                        Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8),
                        80,
                        "h.jp",
                    )
                    .build();
                d.features(&p)
            })
            .collect()
    }

    #[test]
    fn condensed_indexing_round_trips() {
        let mut m = CondensedMatrix::zeros(5);
        let mut v = 1.0;
        for i in 0..5 {
            for j in i + 1..5 {
                m.set(i, j, v);
                v += 1.0;
            }
        }
        let mut expect = 1.0;
        for i in 0..5 {
            assert_eq!(m.get(i, i), 0.0);
            for j in i + 1..5 {
                assert_eq!(m.get(i, j), expect);
                assert_eq!(m.get(j, i), expect, "symmetry at ({i},{j})");
                expect += 1.0;
            }
        }
    }

    #[test]
    fn pairwise_matches_direct_computation() {
        let d: PacketDistance = PacketDistance::default();
        let f = feats(12);
        let m = pairwise(&d, &f);
        for i in 0..f.len() {
            for j in i + 1..f.len() {
                let direct = d.packet(&f[i], &f[j]);
                assert!(
                    (m.get(i, j) - direct).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn resumable_matrix_is_bit_identical_to_naive() {
        let d: PacketDistance = PacketDistance::default();
        let f = feats(23);
        let fast = pairwise(&d, &f);
        let naive = pairwise_naive(&d, &f);
        for i in 0..f.len() {
            for j in i + 1..f.len() {
                assert_eq!(fast.get(i, j), naive.get(i, j), "cell ({i},{j})");
                assert_eq!(naive.get(i, j), d.packet(&f[i], &f[j]), "direct ({i},{j})");
            }
        }
    }

    #[test]
    fn tiny_inputs() {
        let d: PacketDistance = PacketDistance::default();
        let one = pairwise(&d, &feats(1));
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(0, 0), 0.0);
        let two = pairwise(&d, &feats(2));
        assert!(two.get(0, 1) >= 0.0);
    }
}
