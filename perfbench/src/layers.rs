//! Per-layer figures of a traced run.
//!
//! Counts come from each cell's stat registry and repeat bit-for-bit.
//! Per-access costs come from outside the run: each layer's public
//! function is replayed on inputs shaped like the workload (same core
//! count, topology, capacities and stream count) and timed per call. The
//! epoch solves and rehashes are timed inside the run itself, by the
//! simulator's phase profiler. A layer's estimated share of run time is
//! count × cost ÷ `run_s`; what the estimates leave over is the
//! unattributed share.

use std::hint::black_box;
use std::time::Instant;

use ndpx_cache::setassoc::SetAssocCache;
use ndpx_cache::tagarray::TagArray;
use ndpx_cache::tcam::RangeTcam;
use ndpx_core::config::{MemKind, PolicyKind, SystemConfig};
use ndpx_core::layout::Group;
use ndpx_core::runtime::configure::{allocate_baseline, allocate_ndpext, ConfigCtx, StreamDemand};
use ndpx_core::runtime::maxflow::assign_samplers;
use ndpx_core::runtime::sampler::{capacity_points, MissCurve, SetSampler};
use ndpx_cxl::ExtendedMemory;
use ndpx_mem::device::{DramConfig, DramDevice};
use ndpx_noc::network::{LinkParams, Network};
use ndpx_noc::topology::{IntraKind, Topology, UnitId};
use ndpx_sim::engine::EventQueue;
use ndpx_sim::rng::Xoshiro256;
use ndpx_sim::time::Time;

use crate::cells::{Cell, Counts, Machine, SCALE};
use crate::measure::{pass_wall_s, Round};
use crate::stats::{attribute, median, ratio, Estimate};

/// A layer: the path of its metric names, named after the crates. A
/// metric is `<layer>.<leaf>`, joined at run time. These are benchmark
/// metric names, not stat-registry paths, so they are not written as
/// dotted literals that read like registry paths.
pub type Layer = &'static [&'static str];

/// Trace generation (`ndpx-workloads`).
pub const WORKLOADS: Layer = &["workloads"];
/// The NDP system's constructor and run loop.
pub const SYSTEM: Layer = &["core", "system"];
/// The host system's constructor and run loop.
pub const HOST: Layer = &["core", "host"];
/// The event engine (`ndpx-sim`).
pub const ENGINE: Layer = &["sim", "engine"];
/// L1, metadata and tag caches (`ndpx-cache`).
pub const CACHE: Layer = &["cache"];
/// The miss continuation's counters.
pub const CORE: Layer = &["core"];
/// The on-chip network (`ndpx-noc`).
pub const NOC: Layer = &["noc"];
/// DRAM devices (`ndpx-mem`).
pub const MEM: Layer = &["mem"];
/// The CXL extended memory (`ndpx-cxl`).
pub const CXL: Layer = &["cxl"];
/// The per-epoch runtime: samplers, max-flow, Algorithm 1.
pub const RUNTIME: Layer = &["core", "runtime"];
/// Consistent-hash layouts.
pub const LAYOUT: Layer = &["core", "layout"];
/// The cell pool.
pub const POOL: Layer = &["bench", "pool"];
/// The benchmark itself.
pub const BENCH: Layer = &["bench"];
/// Span recording.
pub const TRACE: Layer = &["trace"];
/// Figures of the whole run.
pub const RUN: Layer = &[];

/// The metric `<layer>.<leaf>`.
pub fn name(layer: Layer, leaf: &str) -> String {
    layer.iter().copied().chain([leaf]).collect::<Vec<_>>().join(".")
}

/// Replays `f(batch)` `reps` times after one warm-up call and returns the
/// median seconds per call.
fn per_call(batch: u64, reps: usize, mut f: impl FnMut(u64)) -> f64 {
    f(batch);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f(batch);
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// Measured seconds per call of each layer's public function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// `EventQueue::push_pop_ranked` at depth = cores.
    pub engine: f64,
    /// `SetAssocCache::access` on an L1-shaped cache.
    pub setassoc: f64,
    /// `TagArray::access` on a unit-sized DRAM-cache partition.
    pub tagarray: f64,
    /// `RangeTcam::lookup` with one range per SLB entry.
    pub tcam: f64,
    /// `Network::send` on the crossbar (HBM) topology.
    pub noc_crossbar: f64,
    /// `Network::send` on the mesh (HMC, or the host's on-chip) topology.
    pub noc_mesh: f64,
    /// `DramDevice::access` on the workload's DRAM.
    pub mem: f64,
    /// `ExtendedMemory::access` behind the CXL link.
    pub cxl: f64,
    /// `SetSampler::observe`.
    pub sampler: f64,
    /// `assign_samplers` (Edmonds–Karp) for the whole system.
    pub maxflow: f64,
    /// `allocate_ndpext` (Algorithm 1) for the whole system, on synthetic
    /// demands in which every stream is active. Reported only: shares use
    /// the solve time the phase profiler measured in the run.
    pub configure: f64,
    /// `allocate_baseline` for Jigsaw, as `configure`.
    pub configure_jigsaw: f64,
    /// One consistent-hash `Group` per stream over every unit. Reported
    /// only, as `configure`.
    pub rehash: f64,
}

fn engine_cost(cores: usize) -> f64 {
    let mut q: EventQueue<usize> = EventQueue::new();
    for c in 0..cores {
        q.push_ranked(Time::ZERO, c as u64, c);
    }
    let mut rng = Xoshiro256::seed_from(0x51ED);
    let (mut now, mut core) = q.pop().expect("one event per core");
    per_call(200_000, 5, |n| {
        for _ in 0..n {
            let dt = Time::from_ps(100 + rng.below(8000));
            (now, core) = q.push_pop_ranked(now + dt, core as u64, core);
        }
        black_box(now);
    })
}

fn setassoc_cost(bytes: u64, line: u64, ways: usize) -> f64 {
    let mut cache = SetAssocCache::with_capacity(bytes, line, ways);
    let span = 2 * (bytes / line).max(1);
    let mut rng = Xoshiro256::seed_from(0xCAC4);
    per_call(200_000, 5, |n| {
        for _ in 0..n {
            black_box(cache.access(rng.below(span), false));
        }
    })
}

fn noc_cost(topology: Topology, (intra, inter): (LinkParams, LinkParams)) -> f64 {
    let units = topology.units();
    let mut net = Network::new(topology, intra, inter);
    let mut rng = Xoshiro256::seed_from(0x40C);
    let mut now = Time::ZERO;
    per_call(50_000, 5, |n| {
        for _ in 0..n {
            now += Time::from_ns(10);
            let (src, dst) = (rng.below(units as u64) as usize, rng.below(units as u64) as usize);
            black_box(net.send(UnitId(src), UnitId(dst), 64, now));
        }
    })
}

fn dram_cost(cfg: DramConfig, capacity: u64) -> f64 {
    let mut dram = DramDevice::new(cfg);
    let lines = (capacity / 64).max(1);
    let mut rng = Xoshiro256::seed_from(0xD4A);
    let mut now = Time::ZERO;
    per_call(100_000, 5, |n| {
        for _ in 0..n {
            now = dram.access(rng.below(lines) * 64, 64, false, now);
        }
        black_box(now);
    })
}

/// Synthetic per-stream demands shaped like an epoch of `streams` streams
/// on `units` units (the shape the runtime micro-benchmarks use).
fn demands(streams: usize, units: usize, cfg: &SystemConfig) -> (Vec<StreamDemand>, ConfigCtx) {
    let mut rng = Xoshiro256::seed_from(3);
    let demands = (0..streams)
        .map(|i| {
            let total = 10_000.0 + rng.below(100_000) as f64;
            let pts: Vec<(u64, f64)> =
                (1..=16).map(|k| ((k as u64) << 16, total / (1.0 + k as f64))).collect();
            let mut acc: Vec<(usize, u64)> = Vec::new();
            for u in 0..units {
                if rng.chance(0.3) {
                    acc.push((u, 100 + rng.below(1000)));
                }
            }
            if acc.is_empty() {
                acc.push((i % units, 100));
            }
            StreamDemand {
                curve: MissCurve::from_samples(total, pts),
                acc_units: acc,
                read_only: i % 2 == 0,
                affine: i % 3 == 0,
                grain: cfg.line_bytes,
                total_accesses: total as u64,
                footprint: 16 << 16,
            }
        })
        .collect();
    let attenuation = (0..units)
        .map(|u| (0..units).map(|v| 1.0 / (1.0 + u.abs_diff(v) as f64 * 0.1)).collect())
        .collect();
    let ctx = ConfigCtx {
        units,
        unit_capacity: cfg.unit_capacity,
        affine_cap: cfg.affine_cap.min(cfg.unit_capacity),
        attenuation,
        dram_lat_ps: cfg.dram_config().timing.row_empty().as_ps() as f64,
        miss_extra_ps: 2.0 * cfg.cxl.link_latency.as_ps() as f64,
        dead: vec![false; units],
    };
    (demands, ctx)
}

/// Costs of the NDP layers at the bench profile's 128-unit geometry, for
/// `streams` streams.
pub fn ndp_costs(streams: usize) -> Costs {
    let hbm = SCALE.system(MemKind::Hbm, PolicyKind::NdpExt);
    let hmc = SCALE.system(MemKind::Hmc, PolicyKind::NdpExt);
    let units = hbm.units();
    let streams = streams.max(1);
    let mut rng = Xoshiro256::seed_from(0x5EED);

    let slots = hbm.unit_capacity / hbm.line_bytes;
    let mut tags = TagArray::new(slots, hbm.indirect_ways);
    let tagarray = per_call(200_000, 5, |n| {
        for _ in 0..n {
            black_box(tags.access(rng.below(slots), rng.below(4 * slots), false));
        }
    });

    let mut tcam = RangeTcam::new(hbm.slb_entries);
    let region = 1u64 << 20;
    for s in 0..hbm.slb_entries.min(streams) as u64 {
        tcam.insert(s * region, (s + 1) * region, s as u32).expect("one range per SLB entry");
    }
    let span = hbm.slb_entries.min(streams) as u64 * region;
    let tcam_cost = per_call(200_000, 5, |n| {
        for _ in 0..n {
            black_box(tcam.lookup(rng.below(span)));
        }
    });

    let mut ext = ExtendedMemory::new(hbm.cxl, hbm.ext_capacity);
    let ext_lines = hbm.ext_capacity / 64;
    let mut now = Time::ZERO;
    let cxl = per_call(100_000, 5, |n| {
        for _ in 0..n {
            now += Time::from_ns(500);
            black_box(ext.access(rng.below(ext_lines) * 64, 64, false, now));
        }
    });

    let global = hbm.unit_capacity * units as u64;
    let caps = capacity_points((global / 16384).max(hbm.line_bytes), global, hbm.sampler_points);
    let mut sampler = SetSampler::new(&caps, hbm.line_bytes, hbm.sampler_sets);
    let sampler_cost = per_call(100_000, 5, |n| {
        for _ in 0..n {
            sampler.observe(rng.below(1 << 20));
        }
        black_box(sampler.observed());
    });

    let accessed: Vec<Vec<usize>> =
        (0..units).map(|_| (0..streams).filter(|_| rng.chance(0.25)).collect()).collect();
    let maxflow = per_call(1, 5, |_| {
        black_box(assign_samplers(&accessed, streams, hbm.samplers_per_unit));
    });

    let (dem, ctx) = demands(streams, units, &hbm);
    let configure = per_call(1, 3, |_| {
        black_box(allocate_ndpext(&dem, &ctx));
    });
    let configure_jigsaw = per_call(1, 3, |_| {
        black_box(allocate_baseline(PolicyKind::Jigsaw, &dem, &ctx, hbm.nexus_degree));
    });

    let shares: Vec<Vec<u64>> =
        (0..streams).map(|_| (0..units).map(|_| 1 + rng.below(4096)).collect()).collect();
    let rehash = per_call(1, 5, |_| {
        for s in &shares {
            black_box(Group::new(s.clone(), true).total_slots());
        }
    });

    Costs {
        engine: engine_cost(units),
        setassoc: setassoc_cost(hbm.l1_bytes, hbm.line_bytes, hbm.l1_ways),
        tagarray,
        tcam: tcam_cost,
        noc_crossbar: noc_cost(hbm.topology, hbm.link_params()),
        noc_mesh: noc_cost(hmc.topology, hmc.link_params()),
        mem: dram_cost(hbm.dram_config(), hbm.unit_capacity),
        cxl,
        sampler: sampler_cost,
        maxflow,
        configure,
        configure_jigsaw,
        rehash,
    }
}

/// Costs of the host layers: a 64-deep queue, its L1, its on-chip mesh
/// and DDR5 main memory. The host has no CXL port and no runtime.
pub fn host_costs() -> Costs {
    let host = Cell::host_config();
    let dim = (host.cores as f64).sqrt().ceil() as usize;
    let mesh =
        Topology { stacks_x: 1, stacks_y: 1, units_x: dim, units_y: dim, intra: IntraKind::Mesh };
    let hop = host.freq.cycles_to_time(host.hop_cycles);
    let on_chip = LinkParams { hop_latency: hop, bytes_per_ns: 64.0, pj_per_bit: 0.1 };
    Costs {
        engine: engine_cost(host.cores),
        setassoc: setassoc_cost(host.l1_bytes, 64, host.l1_ways),
        noc_mesh: noc_cost(mesh, (on_chip, LinkParams::inter_stack())),
        mem: dram_cost(DramConfig::ddr5_extended(host.mem_capacity), 1 << 30),
        ..Costs::default()
    }
}

/// Per-layer busy-time estimates of one round's cells: for each cell,
/// each layer's exact call count times that layer's cost in the cell's
/// machine.
pub fn estimates(cells: &[Cell], round: &Round, costs: &Costs) -> Vec<Estimate> {
    let mut est = Vec::new();
    for (cell, out) in cells.iter().zip(&round.cells) {
        let Ok(out) = out else { continue };
        let c = &out.counts;
        let post_l1 = c.post_l1() as f64;
        let mut add = |layer, count: f64, cost_s| est.push(Estimate { layer, count, cost_s });
        add(ENGINE, c.engine_events as f64, costs.engine);
        add(CACHE, c.mem_ops as f64, costs.setassoc);
        add(MEM, c.dram_accesses as f64, costs.mem);
        add(CXL, c.cxl_requests as f64, costs.cxl);
        match cell.machine {
            Machine::Host => {
                // Every L1 miss looks up a set-associative LLC bank.
                add(CACHE, post_l1, costs.setassoc);
                add(NOC, c.noc_messages as f64, costs.noc_mesh);
            }
            Machine::Ndp { mem, .. } => {
                add(CACHE, post_l1, costs.tagarray);
                let noc = if mem == MemKind::Hbm { costs.noc_crossbar } else { costs.noc_mesh };
                add(NOC, c.noc_messages as f64, noc);
                // Samplers observe every post-L1 stream access; every epoch
                // boundary reassigns samplers by max-flow; adaptive
                // policies solve an allocation and, when it moves enough
                // capacity, rehash. Solves and rehashes cost what the phase
                // profiler measured in this very run.
                add(RUNTIME, post_l1, costs.sampler);
                add(RUNTIME, c.reconfigs as f64, costs.maxflow);
                add(RUNTIME, c.solves as f64, ratio(out.solve_s, c.solves as f64));
                add(RUNTIME, c.rehashes as f64, ratio(out.rehash_s, c.rehashes as f64));
            }
        }
    }
    est
}

/// One metric: name, value and unit.
pub type Metric = (String, f64, &'static str);

fn m(layer: Layer, leaf: &str, value: f64, unit: &'static str) -> Metric {
    (name(layer, leaf), value, unit)
}

/// Every per-layer metric of a traced run.
///
/// `traced` are the rounds run with spans on, `untraced` the interleaved
/// rounds with spans off; timings are medians over rounds, counts come
/// from the first traced round.
pub fn metrics(
    cells: &[Cell],
    traced: &[&Round],
    untraced: &[&Round],
    costs: &Costs,
    threads: usize,
) -> Vec<Metric> {
    let first = traced[0];
    let mut total = Counts::default();
    for out in first.cells.iter().flatten() {
        total.add(&out.counts);
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let cell_sum = |host: bool, f: fn(&crate::cells::CellOut) -> f64| {
        med(&|r: &Round| {
            cells
                .iter()
                .zip(&r.cells)
                .filter(|(c, _)| (c.machine == Machine::Host) == host)
                .filter_map(|(_, o)| o.as_ref().ok())
                .map(f)
                .sum()
        })
    };
    // Per layer, the median over traced rounds of its share.
    let per_round: Vec<_> =
        traced.iter().map(|r| attribute(&estimates(cells, r, costs), r.run_s())).collect();
    let share = |layer: Layer| {
        let of_round = |shares: &[(Layer, f64)]| {
            shares.iter().find(|(n, _)| *n == layer).map_or(0.0, |(_, s)| *s)
        };
        median(&per_round.iter().map(|(s, _)| of_round(s)).collect::<Vec<_>>())
    };
    let unattributed = median(&per_round.iter().map(|(_, u)| *u).collect::<Vec<_>>());

    // NDPExt's run time over NDPExt-static's on the same trace and memory,
    // from per-cell medians over every round (spans do not touch `run`).
    let all: Vec<&Round> = traced.iter().chain(untraced).copied().collect();
    let median_run = |want: &Cell| {
        let ci = cells.iter().position(|c| c == want)?;
        let runs: Vec<f64> =
            all.iter().filter_map(|r| r.cells[ci].as_ref().ok()).map(|o| o.run_s).collect();
        (!runs.is_empty()).then(|| median(&runs))
    };
    let overhead_s: f64 = cells
        .iter()
        .filter_map(|c| match c.machine {
            Machine::Ndp { mem, policy: PolicyKind::NdpExt } => {
                let control = Machine::Ndp { mem, policy: PolicyKind::NdpExtStatic };
                Some(median_run(c)? - median_run(&Cell { machine: control, ..*c })?)
            }
            _ => None,
        })
        .sum();
    let min_adaptive_reconfigs = cells
        .iter()
        .zip(&first.cells)
        .filter(|(c, _)| matches!(c.machine, Machine::Ndp { policy, .. } if policy.reconfigures()))
        .filter_map(|(_, o)| o.as_ref().ok())
        .map(|o| o.counts.reconfigs)
        .min()
        .unwrap_or(0);
    let busy = med(&|r: &Round| ratio(r.cell_wall_s.iter().sum(), threads as f64 * r.pool_s));
    let wall_traced = pass_wall_s(traced);
    let wall_untraced = pass_wall_s(untraced);

    let t = &total;
    let n = |v: u64| v as f64;
    vec![
        m(WORKLOADS, "gen_s", med(&|r: &Round| r.gen_s), "s"),
        m(WORKLOADS, "trace_bytes", n(first.trace_bytes), "bytes"),
        m(
            WORKLOADS,
            "streams",
            first.streams.iter().map(|(_, s)| *s as f64).fold(0.0, f64::max),
            "count",
        ),
        m(SYSTEM, "new_s", cell_sum(false, |o| o.new_s), "s"),
        m(SYSTEM, "run_s", cell_sum(false, |o| o.run_s), "s"),
        m(HOST, "new_s", cell_sum(true, |o| o.new_s), "s"),
        m(HOST, "run_s", cell_sum(true, |o| o.run_s), "s"),
        m(ENGINE, "events", n(t.engine_events), "count"),
        m(ENGINE, "peak_queue_depth", n(t.peak_queue_depth), "count"),
        m(ENGINE, "batch.mean_len", ratio(n(t.engine_events), n(t.batches)), "ops"),
        m(ENGINE, "batch.fast_hit_ratio", ratio(n(t.fast_hits), n(t.engine_events)), "ratio"),
        m(ENGINE, "queue.overflow_scheduled", n(t.overflow_scheduled), "count"),
        m(ENGINE, "ns_per_event", costs.engine * 1e9, "ns"),
        m(ENGINE, "est_share", share(ENGINE), "ratio"),
        m(CACHE, "l1.hits", n(t.l1_hits), "count"),
        m(CACHE, "l1.hit_rate", ratio(n(t.l1_hits), n(t.mem_ops)), "ratio"),
        m(CACHE, "meta.misses", n(t.meta_misses), "count"),
        m(CACHE, "setassoc.ns_per_access", costs.setassoc * 1e9, "ns"),
        m(CACHE, "tagarray.ns_per_lookup", costs.tagarray * 1e9, "ns"),
        m(CACHE, "tcam.ns_per_lookup", costs.tcam * 1e9, "ns"),
        m(CACHE, "est_share", share(CACHE), "ratio"),
        m(CORE, "slb.misses", n(t.slb_misses), "count"),
        m(CORE, "metadata_dram", n(t.metadata_dram), "count"),
        m(CORE, "cache_hits", n(t.cache_hits), "count"),
        m(CORE, "cache_misses", n(t.cache_misses), "count"),
        m(CORE, "local_hits", n(t.local_hits), "count"),
        m(NOC, "messages", n(t.noc_messages), "count"),
        m(NOC, "intra_hops", n(t.noc_intra_hops), "count"),
        m(NOC, "inter_hops", n(t.noc_inter_hops), "count"),
        m(NOC, "crossbar.ns_per_send", costs.noc_crossbar * 1e9, "ns"),
        m(NOC, "mesh.ns_per_send", costs.noc_mesh * 1e9, "ns"),
        m(NOC, "est_share", share(NOC), "ratio"),
        m(MEM, "dram.accesses", n(t.dram_accesses), "count"),
        m(MEM, "dram.row_hit_rate", ratio(n(t.dram_row_hits), n(t.dram_accesses)), "ratio"),
        m(MEM, "ns_per_access", costs.mem * 1e9, "ns"),
        m(MEM, "est_share", share(MEM), "ratio"),
        m(CXL, "requests", n(t.cxl_requests), "count"),
        m(CXL, "ns_per_access", costs.cxl * 1e9, "ns"),
        m(CXL, "est_share", share(CXL), "ratio"),
        m(RUNTIME, "reconfigs", n(t.reconfigs), "count"),
        m(RUNTIME, "min_adaptive_reconfigs", n(min_adaptive_reconfigs), "count"),
        m(RUNTIME, "migrations", n(t.migrations), "count"),
        m(RUNTIME, "invalidations", n(t.invalidations), "count"),
        m(RUNTIME, "sampler.ns_per_observe", costs.sampler * 1e9, "ns"),
        m(RUNTIME, "maxflow.ms_per_solve", costs.maxflow * 1e3, "ms"),
        m(RUNTIME, "configure.ms_per_solve", costs.configure * 1e3, "ms"),
        m(RUNTIME, "configure_jigsaw.ms_per_solve", costs.configure_jigsaw * 1e3, "ms"),
        m(RUNTIME, "solves", n(t.solves), "count"),
        m(RUNTIME, "rehashes", n(t.rehashes), "count"),
        m(RUNTIME, "solve_s", cell_sum(false, |o| o.solve_s), "s"),
        m(LAYOUT, "rehash_s", cell_sum(false, |o| o.rehash_s), "s"),
        m(LAYOUT, "rehash_ms", costs.rehash * 1e3, "ms"),
        m(RUNTIME, "overhead_s", overhead_s, "s"),
        m(RUNTIME, "est_share", share(RUNTIME), "ratio"),
        m(RUN, "unattributed_share", unattributed, "ratio"),
        m(POOL, "busy_share", busy, "ratio"),
        m(POOL, "threads", threads as f64, "count"),
        m(TRACE, "overhead_s", wall_traced - wall_untraced, "s"),
    ]
}
