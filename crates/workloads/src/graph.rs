//! Synthetic power-law graphs in CSR form.
//!
//! The paper's graph workloads run GAP kernels on large real graphs; we
//! substitute a seeded R-MAT-flavoured generator whose degree skew drives the
//! same indirect-stream locality behaviour (hot high-degree vertices are
//! cache-friendly; the cold tail misses). See DESIGN.md §3.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use ndpx_sim::rng::{PowerlawSampler, Xoshiro256};

/// Vertices per edge block: the unit in which power-law edges are generated.
const BLOCK: usize = 1024;

/// A directed graph in compressed-sparse-row form.
///
/// Offsets are built up front; edge destinations live in blocks of
/// [`BLOCK`] vertices. A power-law graph generates each block on first
/// touch by replaying its generator from a saved RNG checkpoint, so a trace
/// that reads a few thousand vertices never pays for the rest (DESIGN.md
/// §12). A block is a pure function of `(seed, block)`, so neither the order
/// nor the threads that fill blocks can change any edge.
#[derive(Clone)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` are the edge indices of vertex `v`.
    offsets: Vec<u64>,
    /// Destinations of the edges of vertices `b * BLOCK..(b + 1) * BLOCK`.
    blocks: Box<[OnceLock<Box<[u32]>>]>,
    /// Regenerates a block on first touch; `None` when every block was
    /// filled at construction.
    replay: Option<Replay>,
}

/// How to regenerate one block of a power-law graph.
#[derive(Clone)]
struct Replay {
    /// Destination sampler shared by every edge.
    dst: PowerlawSampler,
    /// Generator state at the first vertex of each block.
    checkpoints: Box<[Xoshiro256]>,
}

/// Cache key: the full generator parameter tuple `(vertices, avg_degree,
/// seed)`. Generation is a pure function of this key.
type GraphKey = (u32, u32, u64);

/// Most-recently-generated power-law graphs. Sharing one immutable `Arc`
/// across workload constructions is observationally identical to
/// regenerating, and keeps the blocks one construction filled for the
/// next: a bench matrix that builds the same workload for many policy
/// cells pays the offsets pass and each touched block's inverse-CDF `powf`
/// draws once. Bounded so paper-scale sweeps cannot hoard memory.
static POWERLAW_CACHE: Mutex<Vec<(GraphKey, Arc<CsrGraph>)>> = Mutex::new(Vec::new());
/// Distinct graphs kept alive by the cache.
const POWERLAW_CACHE_CAP: usize = 6;

fn powerlaw_cache_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| ndpx_sim::knobs::GRAPH_CACHE.bool_or(true))
}

impl CsrGraph {
    /// Generates a power-law graph of `vertices` vertices and roughly
    /// `vertices * avg_degree` edges. Low vertex IDs are high-degree hubs.
    ///
    /// Only the offsets are built here: one pass draws every degree and
    /// steps the generator past each edge's draw, saving its state at the
    /// start of every block. Edge destinations are drawn when their block is
    /// first read.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or `avg_degree` is zero.
    pub fn powerlaw(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(vertices > 0, "graph must have vertices");
        assert!(avg_degree > 0, "graph must have edges");
        let mut rng = Xoshiro256::seed_from(seed);
        let n = vertices as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut checkpoints = Vec::with_capacity(n.div_ceil(BLOCK));
        offsets.push(0);
        let mut edges = 0u64;
        for v in 0..n {
            if v % BLOCK == 0 {
                checkpoints.push(rng.clone());
            }
            // Out-degree is skewed: hubs emit many edges. Each vertex takes
            // one draw for its degree, then one per edge (see `fill`).
            let deg_scale = if v < n / 100 + 1 { 8 } else { 1 };
            let deg = 1 + rng.below(u64::from(avg_degree) * 2 * deg_scale - 1) as usize;
            let deg = deg.min(n - 1);
            for _ in 0..deg {
                rng.next_u64();
            }
            edges += deg as u64;
            offsets.push(edges);
        }
        let blocks = (0..checkpoints.len()).map(|_| OnceLock::new()).collect();
        // Destination choice is also skewed toward hubs (preferential
        // attachment flavour).
        let dst = PowerlawSampler::new(u64::from(vertices), 1.8);
        CsrGraph {
            offsets,
            blocks,
            replay: Some(Replay { dst, checkpoints: checkpoints.into_boxed_slice() }),
        }
    }

    /// Draws the edge destinations of block `b` by replaying the generator
    /// from its checkpoint: per vertex, skip the degree draw (already in
    /// `offsets`), then draw one destination per edge.
    fn fill(&self, b: usize) -> Box<[u32]> {
        let replay = self.replay.as_ref().expect("only power-law graphs have unfilled blocks");
        let mut rng = replay.checkpoints[b].clone();
        let (first, last) = self.block_vertices(b);
        let base = self.offsets[first];
        let mut edges = Vec::with_capacity((self.offsets[last] - base) as usize);
        for v in first..last {
            rng.next_u64();
            for _ in self.offsets[v]..self.offsets[v + 1] {
                edges.push(replay.dst.sample(&mut rng) as u32);
            }
        }
        edges.into_boxed_slice()
    }

    /// The vertex range `first..last` of block `b`.
    fn block_vertices(&self, b: usize) -> (usize, usize) {
        let n = self.offsets.len() - 1;
        (b * BLOCK, ((b + 1) * BLOCK).min(n))
    }

    /// [`powerlaw`](Self::powerlaw) behind the process-wide graph cache:
    /// returns a shared immutable graph, generating it only on first use.
    /// Workload constructors go through this so a bench matrix that builds
    /// the same `(workload, footprint, seed)` cell under many policies pays
    /// the offsets pass, and the draws of every block its traces touch,
    /// once per process instead of once per cell. Set `NDPX_GRAPH_CACHE=0`
    /// to regenerate every time.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or `avg_degree` is zero.
    pub fn powerlaw_shared(vertices: u32, avg_degree: u32, seed: u64) -> Arc<Self> {
        if !powerlaw_cache_enabled() {
            return Arc::new(Self::powerlaw(vertices, avg_degree, seed));
        }
        let key = (vertices, avg_degree, seed);
        {
            let cache = POWERLAW_CACHE.lock().expect("graph cache poisoned");
            if let Some((_, g)) = cache.iter().find(|(k, _)| *k == key) {
                return Arc::clone(g);
            }
        }
        // Generate outside the lock: the offsets pass takes tens of
        // milliseconds at bench scales and workers may race here. A racing
        // duplicate insert is harmless (both Arcs hold identical graphs).
        let g = Arc::new(Self::powerlaw(vertices, avg_degree, seed));
        let mut cache = POWERLAW_CACHE.lock().expect("graph cache poisoned");
        if !cache.iter().any(|(k, _)| *k == key) {
            if cache.len() >= POWERLAW_CACHE_CAP {
                cache.remove(0);
            }
            cache.push((key, Arc::clone(&g)));
        }
        g
    }

    /// Generates a 3D lattice of `dim³` cells where each cell's neighbours
    /// are the (up to) 26 adjacent cells — the box-neighbourhood structure of
    /// molecular-dynamics kernels such as lavaMD.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn lattice3d(dim: u32) -> Self {
        assert!(dim > 0, "lattice must be non-empty");
        let n = (dim * dim * dim) as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    continue;
                                }
                                let (nx, ny, nz) =
                                    (i64::from(x) + dx, i64::from(y) + dy, i64::from(z) + dz);
                                let lim = i64::from(dim);
                                if (0..lim).contains(&nx)
                                    && (0..lim).contains(&ny)
                                    && (0..lim).contains(&nz)
                                {
                                    edges.push((nz as u32 * dim + ny as u32) * dim + nx as u32);
                                }
                            }
                        }
                    }
                    offsets.push(edges.len() as u64);
                }
            }
        }
        let mut g = CsrGraph { offsets, blocks: Box::default(), replay: None };
        g.blocks = (0..n.div_ceil(BLOCK))
            .map(|b| {
                let (first, last) = g.block_vertices(b);
                let range = g.offsets[first] as usize..g.offsets[last] as usize;
                OnceLock::from(Box::<[u32]>::from(&edges[range]))
            })
            .collect();
        g
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges.
    pub fn edge_count(&self) -> u64 {
        self.offsets[self.offsets.len() - 1]
    }

    /// The half-open edge index range of `v`.
    #[inline]
    pub fn edge_range(&self, v: u32) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u64 {
        let (s, e) = self.edge_range(v);
        e - s
    }

    /// Destinations of the edges of `v`, in edge-index order: element `i`
    /// is the destination of edge `edge_range(v).0 + i`. Generates `v`'s
    /// block on its first touch.
    #[inline]
    pub fn neighbours(&self, v: u32) -> &[u32] {
        let b = v as usize / BLOCK;
        let base = self.offsets[b * BLOCK];
        let (s, e) = self.edge_range(v);
        &self.block(b)[(s - base) as usize..(e - base) as usize]
    }

    /// The destinations of block `b`, generated on first touch.
    #[inline]
    fn block(&self, b: usize) -> &[u32] {
        self.blocks[b].get_or_init(|| self.fill(b))
    }

    /// `(generated, total)` edge blocks.
    #[cfg(test)]
    pub(crate) fn filled_blocks(&self) -> (usize, usize) {
        (self.blocks.iter().filter(|b| b.get().is_some()).count(), self.blocks.len())
    }

    /// Footprint of the offsets array, bytes (8 B per entry).
    pub fn offsets_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8
    }

    /// Modelled footprint of the edge array, bytes (4 B per edge), whether
    /// or not its blocks have been generated.
    pub fn edges_bytes(&self) -> u64 {
        self.edge_count() * 4
    }
}

/// Equality is graph content: the same offsets and the same destinations,
/// however many blocks either side has generated (comparing fills them).
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && (0..self.blocks.len()).all(|b| self.block(b) == other.block(b))
    }
}

impl Eq for CsrGraph {}

/// Prints the adjacency lists, generating any block not yet filled, so the
/// output never depends on which blocks earlier reads touched.
impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries((0..self.vertices()).map(|v| (v, self.neighbours(v)))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eager generator that built every edge at construction, kept as
    /// the oracle for block replay: `(offsets, edges)`.
    fn eager(vertices: u32, avg_degree: u32, seed: u64) -> (Vec<u64>, Vec<u32>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let n = vertices as usize;
        let mut offsets = vec![0];
        let mut edges = Vec::new();
        let dst = PowerlawSampler::new(u64::from(vertices), 1.8);
        for v in 0..n {
            let deg_scale = if v < n / 100 + 1 { 8 } else { 1 };
            let deg = 1 + rng.below(u64::from(avg_degree) * 2 * deg_scale - 1) as usize;
            let deg = deg.min(n - 1);
            for _ in 0..deg {
                edges.push(dst.sample(&mut rng) as u32);
            }
            offsets.push(edges.len() as u64);
        }
        (offsets, edges)
    }

    /// Checks `g` against the oracle, reading vertices in `order`.
    fn assert_matches_eager(g: &CsrGraph, oracle: &(Vec<u64>, Vec<u32>), order: &[u32]) {
        let (offsets, edges) = oracle;
        assert_eq!(g.vertices() as usize, offsets.len() - 1);
        assert_eq!(g.edge_count(), edges.len() as u64);
        assert_eq!(g.edges_bytes(), edges.len() as u64 * 4);
        for &v in order {
            let (s, e) = g.edge_range(v);
            assert_eq!((s, e), (offsets[v as usize], offsets[v as usize + 1]), "vertex {v}");
            assert_eq!(g.neighbours(v), &edges[s as usize..e as usize], "vertex {v}");
        }
    }

    /// A permutation of `0..n` (Fisher-Yates).
    fn shuffled(n: u32, seed: u64) -> Vec<u32> {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut order: Vec<u32> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order
    }

    #[test]
    fn replay_matches_eager_around_block_boundaries() {
        let b = BLOCK as u32;
        for n in [1, 2, b - 1, b, b + 1, 3 * b + 7] {
            for avg_degree in [1, 3, 12] {
                for seed in [0, 42, 0xBEEF] {
                    let g = CsrGraph::powerlaw(n, avg_degree, seed);
                    let order: Vec<u32> = (0..n).collect();
                    assert_matches_eager(&g, &eager(n, avg_degree, seed), &order);
                }
            }
        }
        // A single vertex has nowhere to point: degree 0, no edges.
        let g = CsrGraph::powerlaw(1, 12, 7);
        assert_eq!((g.degree(0), g.edge_count()), (0, 0));
        assert!(g.neighbours(0).is_empty());
    }

    #[test]
    fn replay_matches_eager_in_random_order() {
        for seed in [1, 0xC0FFEE] {
            let n = 5000;
            let g = CsrGraph::powerlaw(n, 12, seed);
            assert_matches_eager(&g, &eager(n, 12, seed), &shuffled(n, seed ^ 0x5A5A));
        }
    }

    #[test]
    fn concurrent_first_touch_gives_identical_edges() {
        let n = 4 * BLOCK as u32 + 100;
        let g = CsrGraph::powerlaw(n, 12, 0xBEEF);
        let oracle = eager(n, 12, 0xBEEF);
        // Four threads race to fill the same blocks, each in its own order,
        // released together so first touches overlap.
        let start = std::sync::Barrier::new(4);
        let seen: Vec<Vec<Vec<u32>>> = std::thread::scope(|scope| {
            let (g, start) = (&g, &start);
            let workers: Vec<_> = (0..4u64)
                .map(|t| {
                    scope.spawn(move || {
                        let mut lists = vec![Vec::new(); n as usize];
                        let order = shuffled(n, t);
                        start.wait();
                        for v in order {
                            lists[v as usize] = g.neighbours(v).to_vec();
                        }
                        lists
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("reader panicked")).collect()
        });
        for lists in &seen {
            for (v, list) in lists.iter().enumerate() {
                let (s, e) = (oracle.0[v] as usize, oracle.0[v + 1] as usize);
                assert_eq!(list.as_slice(), &oracle.1[s..e], "vertex {v}");
            }
        }
    }

    #[test]
    fn lattice_neighbours_are_the_in_bounds_box() {
        // dim 11 spans two blocks (1331 cells).
        for dim in [1u32, 2, 3, 11] {
            let g = CsrGraph::lattice3d(dim);
            let lim = i64::from(dim);
            let mut total = 0;
            for v in 0..g.vertices() {
                let (x, y, z) = (v % dim, v / dim % dim, v / (dim * dim));
                let mut expected = Vec::new();
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let (nx, ny, nz) =
                                (i64::from(x) + dx, i64::from(y) + dy, i64::from(z) + dz);
                            if (dx, dy, dz) != (0, 0, 0)
                                && [nx, ny, nz].iter().all(|c| (0..lim).contains(c))
                            {
                                expected.push(((nz * lim + ny) * lim + nx) as u32);
                            }
                        }
                    }
                }
                assert_eq!(g.neighbours(v), expected.as_slice(), "dim {dim} cell {v}");
                assert_eq!(g.degree(v), expected.len() as u64);
                total += expected.len() as u64;
            }
            assert_eq!(g.edge_count(), total);
        }
    }

    #[test]
    fn equality_clone_and_debug_ignore_which_blocks_are_filled() {
        let n = 2 * BLOCK as u32 + 5;
        let touched = CsrGraph::powerlaw(n, 4, 11);
        touched.neighbours(n - 1);
        let copy = touched.clone();
        let fresh = CsrGraph::powerlaw(n, 4, 11);
        assert_eq!(format!("{touched:?}"), format!("{:?}", CsrGraph::powerlaw(n, 4, 11)));
        assert_eq!(copy, fresh);
        assert_eq!(fresh, touched);
        assert_ne!(fresh, CsrGraph::powerlaw(n, 4, 12));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CsrGraph::powerlaw(1000, 8, 42);
        let b = CsrGraph::powerlaw(1000, 8, 42);
        assert_eq!(a, b);
        let c = CsrGraph::powerlaw(1000, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn shared_generation_matches_direct() {
        let direct = CsrGraph::powerlaw(1500, 6, 0xCAFE);
        let shared = CsrGraph::powerlaw_shared(1500, 6, 0xCAFE);
        assert_eq!(*shared, direct, "cache must be observationally identical");
        let again = CsrGraph::powerlaw_shared(1500, 6, 0xCAFE);
        assert!(Arc::ptr_eq(&shared, &again), "second lookup must share the Arc");
        let other = CsrGraph::powerlaw_shared(1500, 6, 0xCAFF);
        assert_ne!(*other, direct);
    }

    #[test]
    fn csr_invariants() {
        let g = CsrGraph::powerlaw(500, 6, 7);
        assert_eq!(g.vertices(), 500);
        assert!(g.edge_count() > 0);
        let mut total = 0;
        for v in 0..g.vertices() {
            let (s, e) = g.edge_range(v);
            assert!(s <= e);
            total += e - s;
            assert_eq!(g.neighbours(v).len() as u64, e - s);
            assert!(g.neighbours(v).iter().all(|&d| d < g.vertices()));
        }
        assert_eq!(total, g.edge_count());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = CsrGraph::powerlaw(10_000, 8, 9);
        // In-degree of hubs (low IDs) should dominate: count edge targets.
        let hot: usize =
            (0..g.vertices()).map(|v| g.neighbours(v).iter().filter(|&&d| d < 100).count()).sum();
        let frac = hot as f64 / g.edge_count() as f64;
        assert!(frac > 0.2, "top-1% vertices draw only {frac} of edges");
    }

    #[test]
    fn average_degree_near_target() {
        let g = CsrGraph::powerlaw(2000, 10, 1);
        let avg = g.edge_count() as f64 / f64::from(g.vertices());
        assert!(avg > 5.0 && avg < 25.0, "avg degree {avg}");
    }
}
