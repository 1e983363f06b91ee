//! Graph-analytics kernels in the vertex-centric model (§2, Figure 5).
//!
//! Each kernel follows the paper's three phases: a vector operation between
//! a row/column of the adjacency matrix and a property vector, a reduction
//! (sum or min), and an assignment back to the property vector (Table 1).

use alrescha_sparse::Csr;

use crate::{check_len, Result};

/// Distance value marking an unreached vertex.
pub const UNREACHED: f64 = f64::INFINITY;

/// Breadth-first search levels from `source` over the *structure* of `adj`
/// (edge `u → v` for every stored entry `(u, v)`).
///
/// Returns one level per vertex, [`UNREACHED`] where no path exists. This is
/// the min-plus formulation of Table 1: each frontier expansion adds 1 to
/// the frontier's level and reduces with `min`.
///
/// # Errors
///
/// Returns [`crate::KernelError::DimensionMismatch`] if `adj` is not square
/// or `source` is out of range.
pub fn bfs(adj: &Csr, source: usize) -> Result<Vec<f64>> {
    check_len(adj.rows(), adj.cols())?;
    if source >= adj.rows() {
        return Err(crate::KernelError::DimensionMismatch {
            expected: adj.rows(),
            found: source,
        });
    }
    let mut level = vec![UNREACHED; adj.rows()];
    level[source] = 0.0;
    let mut frontier = vec![source];
    let mut depth = 0.0;
    while !frontier.is_empty() {
        depth += 1.0;
        let mut next = Vec::new();
        for &u in &frontier {
            for (v, _) in adj.row_entries(u) {
                if level[v] == UNREACHED {
                    level[v] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    Ok(level)
}

/// Single-source shortest paths from `source` with non-negative edge
/// weights, by Bellman-Ford-style rounds (the iterative min-plus update of
/// Figure 5a: multiply a matrix row by the path-length vector, reduce with
/// `min`).
///
/// Returns one distance per vertex, [`UNREACHED`] where no path exists.
///
/// # Errors
///
/// Returns [`crate::KernelError::DimensionMismatch`] if `adj` is not square
/// or `source` is out of range, and [`crate::KernelError::NoConvergence`] if
/// distances still change after `n` rounds (possible only with negative
/// edges, which the generators never produce).
pub fn sssp(adj: &Csr, source: usize) -> Result<Vec<f64>> {
    check_len(adj.rows(), adj.cols())?;
    if source >= adj.rows() {
        return Err(crate::KernelError::DimensionMismatch {
            expected: adj.rows(),
            found: source,
        });
    }
    let n = adj.rows();
    let mut dist = vec![UNREACHED; n];
    dist[source] = 0.0;
    for _round in 0..n {
        let mut changed = false;
        for u in 0..n {
            if dist[u] == UNREACHED {
                continue;
            }
            for (v, w) in adj.row_entries(u) {
                let cand = dist[u] + w;
                if cand < dist[v] {
                    dist[v] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(dist);
        }
    }
    Err(crate::KernelError::NoConvergence {
        iterations: n,
        residual: f64::NAN,
    })
}

/// Options for [`pagerank`].
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankOptions {
    /// Damping factor (`0.85` is the customary value).
    pub damping: f64,
    /// Stop when the L1 change between iterations drops below this.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for PageRankOptions {
    fn default() -> Self {
        PageRankOptions {
            damping: 0.85,
            tol: 1e-10,
            max_iters: 200,
        }
    }
}

/// PageRank over the structure of `adj` (edge `u → v` per stored entry).
///
/// Implements the iteration of Figure 5b: each round divides rank by
/// out-degree, gathers along incoming edges, reduces with `sum`, and applies
/// damping. Dangling vertices redistribute uniformly so the ranks keep
/// summing to 1.
///
/// Returns `(ranks, iterations)`.
///
/// # Errors
///
/// Returns [`crate::KernelError::DimensionMismatch`] if `adj` is not square
/// and [`crate::KernelError::NoConvergence`] if the budget is exhausted.
pub fn pagerank(adj: &Csr, opts: &PageRankOptions) -> Result<(Vec<f64>, usize)> {
    check_len(adj.rows(), adj.cols())?;
    let n = adj.rows();
    if n == 0 {
        return Ok((Vec::new(), 0));
    }
    let out_deg: Vec<usize> = (0..n).map(|u| adj.row_nnz(u)).collect();
    let mut rank = vec![1.0 / n as f64; n];
    for it in 1..=opts.max_iters {
        let mut next = vec![(1.0 - opts.damping) / n as f64; n];
        let mut dangling = 0.0;
        for u in 0..n {
            if out_deg[u] == 0 {
                dangling += rank[u];
                continue;
            }
            let share = opts.damping * rank[u] / out_deg[u] as f64;
            for (v, _) in adj.row_entries(u) {
                next[v] += share;
            }
        }
        let dangling_share = opts.damping * dangling / n as f64;
        for r in &mut next {
            *r += dangling_share;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if delta < opts.tol {
            return Ok((rank, it));
        }
    }
    Err(crate::KernelError::NoConvergence {
        iterations: opts.max_iters,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::{gen, Coo};

    /// A → B → C, A → C, D isolated.
    fn small_graph() -> Csr {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(0, 2, 5.0);
        Csr::from_coo(&coo)
    }

    #[test]
    fn bfs_levels_hand_computed() {
        let levels = bfs(&small_graph(), 0).unwrap();
        assert_eq!(levels, vec![0.0, 1.0, 1.0, UNREACHED]);
    }

    #[test]
    fn sssp_prefers_cheaper_two_hop_path() {
        let dist = sssp(&small_graph(), 0).unwrap();
        // A→B→C costs 3, beating the direct A→C edge of 5.
        assert_eq!(dist, vec![0.0, 1.0, 3.0, UNREACHED]);
    }

    #[test]
    fn sssp_matches_dijkstra_oracle_on_road_grid() {
        let adj = Csr::from_coo(&gen::road_grid(8));
        let fast = sssp(&adj, 0).unwrap();
        let oracle = dijkstra(&adj, 0);
        assert!(alrescha_sparse::approx_eq(&fast, &oracle, 1e-12));
    }

    fn dijkstra(adj: &Csr, source: usize) -> Vec<f64> {
        let n = adj.rows();
        let mut dist = vec![UNREACHED; n];
        let mut done = vec![false; n];
        dist[source] = 0.0;
        for _ in 0..n {
            let u = (0..n)
                .filter(|&u| !done[u] && dist[u] < UNREACHED)
                .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap());
            let Some(u) = u else { break };
            done[u] = true;
            for (v, w) in adj.row_entries(u) {
                if dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                }
            }
        }
        dist
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_sinks_high() {
        let (ranks, _) = pagerank(&small_graph(), &PageRankOptions::default()).unwrap();
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        // C receives from both A and B; it must outrank everything.
        let max = ranks.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(ranks[2], max);
    }

    #[test]
    fn pagerank_uniform_on_symmetric_cycle() {
        let mut coo = Coo::new(3, 3);
        for i in 0..3 {
            coo.push(i, (i + 1) % 3, 1.0);
        }
        let (ranks, _) = pagerank(&Csr::from_coo(&coo), &PageRankOptions::default()).unwrap();
        assert!(alrescha_sparse::approx_eq(&ranks, &[1.0 / 3.0; 3], 1e-8));
    }

    #[test]
    fn kernels_run_on_every_graph_class() {
        for class in gen::GraphClass::ALL {
            let adj = Csr::from_coo(&class.generate(128, 13));
            assert!(bfs(&adj, 0).is_ok(), "bfs on {}", class.name());
            assert!(sssp(&adj, 0).is_ok(), "sssp on {}", class.name());
            assert!(
                pagerank(&adj, &PageRankOptions::default()).is_ok(),
                "pr on {}",
                class.name()
            );
        }
    }

    #[test]
    fn source_out_of_range_rejected() {
        let g = small_graph();
        assert!(bfs(&g, 9).is_err());
        assert!(sssp(&g, 9).is_err());
    }

    #[test]
    fn rectangular_rejected() {
        let g = Csr::from_coo(&Coo::new(2, 3));
        assert!(bfs(&g, 0).is_err());
        assert!(pagerank(&g, &PageRankOptions::default()).is_err());
    }
}

/// Connected components of the *undirected* structure of `adj` (edges are
/// treated as bidirectional) by label propagation: every vertex starts with
/// its own index as label and iteratively adopts the minimum label among
/// itself and its neighbors — the same vector-operation/min-reduce/assign
/// shape as BFS and SSSP (Table 1), making it a natural additional dense
/// data path for the accelerator.
///
/// Returns one component label per vertex (the smallest vertex index in
/// its component).
///
/// # Errors
///
/// Returns [`crate::KernelError::DimensionMismatch`] if `adj` is not square.
pub fn connected_components(adj: &Csr) -> Result<Vec<usize>> {
    check_len(adj.rows(), adj.cols())?;
    let n = adj.rows();
    let mut label: Vec<usize> = (0..n).collect();
    loop {
        let mut changed = false;
        for u in 0..n {
            for (v, _) in adj.row_entries(u) {
                let m = label[u].min(label[v]);
                if label[u] != m {
                    label[u] = m;
                    changed = true;
                }
                if label[v] != m {
                    label[v] = m;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(label);
        }
    }
}

#[cfg(test)]
mod cc_tests {
    use super::*;
    use alrescha_sparse::{gen, Coo};

    #[test]
    fn two_components_labeled_by_minimum() {
        let mut coo = Coo::new(5, 5);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(3, 4, 1.0);
        let labels = connected_components(&Csr::from_coo(&coo)).unwrap();
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let coo = Coo::new(3, 3);
        let labels = connected_components(&Csr::from_coo(&coo)).unwrap();
        assert_eq!(labels, vec![0, 1, 2]);
    }

    #[test]
    fn road_grid_is_one_component() {
        let labels = connected_components(&Csr::from_coo(&gen::road_grid(7))).unwrap();
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn labels_agree_with_bfs_reachability_on_undirected_graphs() {
        let g = gen::road_grid(5);
        let csr = Csr::from_coo(&g);
        let labels = connected_components(&csr).unwrap();
        let levels = bfs(&csr, 0).unwrap();
        for v in 0..csr.rows() {
            assert_eq!(labels[v] == 0, levels[v].is_finite(), "vertex {v}");
        }
    }
}

/// BFS returning both levels and a parent tree (the Graph500 output shape):
/// `parents[v]` is the vertex that discovered `v`, `v` itself for the
/// source, and `usize::MAX` for unreached vertices.
///
/// # Errors
///
/// Same conditions as [`bfs`].
pub fn bfs_with_parents(adj: &Csr, source: usize) -> Result<(Vec<f64>, Vec<usize>)> {
    check_len(adj.rows(), adj.cols())?;
    if source >= adj.rows() {
        return Err(crate::KernelError::DimensionMismatch {
            expected: adj.rows(),
            found: source,
        });
    }
    let n = adj.rows();
    let mut level = vec![UNREACHED; n];
    let mut parents = vec![usize::MAX; n];
    level[source] = 0.0;
    parents[source] = source;
    let mut frontier = vec![source];
    let mut depth = 0.0;
    while !frontier.is_empty() {
        depth += 1.0;
        let mut next = Vec::new();
        for &u in &frontier {
            for (v, _) in adj.row_entries(u) {
                if level[v] == UNREACHED {
                    level[v] = depth;
                    parents[v] = u;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    Ok((level, parents))
}

#[cfg(test)]
mod parent_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn parent_tree_is_consistent_with_levels() {
        // The Graph500 validation rule: level(v) == level(parent(v)) + 1
        // for every reached non-source vertex, and the parent edge exists.
        let adj = Csr::from_coo(&gen::GraphClass::Kronecker.generate(256, 5));
        let (levels, parents) = bfs_with_parents(&adj, 0).unwrap();
        for v in 0..adj.rows() {
            if v == 0 || levels[v].is_infinite() {
                continue;
            }
            let p = parents[v];
            assert_ne!(p, usize::MAX, "reached vertex {v} must have a parent");
            assert_eq!(levels[v], levels[p] + 1.0, "vertex {v}");
            assert!(
                adj.row_entries(p).any(|(c, _)| c == v),
                "parent edge {p}->{v} must exist"
            );
        }
    }

    #[test]
    fn levels_agree_with_plain_bfs() {
        let adj = Csr::from_coo(&gen::road_grid(7));
        let (levels, _) = bfs_with_parents(&adj, 0).unwrap();
        assert_eq!(levels, bfs(&adj, 0).unwrap());
    }

    #[test]
    fn unreached_vertices_have_no_parent() {
        let mut coo = alrescha_sparse::Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        let (levels, parents) = bfs_with_parents(&Csr::from_coo(&coo), 0).unwrap();
        assert!(levels[2].is_infinite());
        assert_eq!(parents[2], usize::MAX);
        assert_eq!(parents[0], 0);
    }
}
