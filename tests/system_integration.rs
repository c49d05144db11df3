//! Cross-crate integration tests: the full NDP system (cores, L1s, stream
//! caches, NoC, CXL extended memory, runtime) driven end-to-end by real
//! workload generators, under every policy.

use ndpx_core::config::{MemKind, PolicyKind, ReconfigTransfer, SystemConfig};
use ndpx_core::host::{HostConfig, HostSystem};
use ndpx_core::stats::{LatComponent, RunReport};
use ndpx_core::system::NdpSystem;
use ndpx_sim::time::Time;
use ndpx_workloads::trace::ScaleParams;

fn run(cfg: SystemConfig, workload: &str, ops: u64) -> RunReport {
    let p = ScaleParams { cores: cfg.units(), footprint: 6 << 20, seed: 99 };
    let wl = ndpx_workloads::build(workload, &p).expect("known").expect("builds");
    NdpSystem::new(cfg, wl).expect("consistent").run(ops)
}

#[test]
fn every_policy_runs_every_family() {
    // One workload per engine family keeps this test fast but broad.
    for workload in ["pr", "mv", "hotspot", "recsys"] {
        for policy in PolicyKind::ALL {
            let r = run(SystemConfig::test(policy), workload, 1200);
            assert!(r.sim_time > Time::ZERO, "{policy:?}/{workload} stalled");
            assert!(r.mem_ops > 0);
            assert!(r.miss_rate() <= 1.0);
            assert!(r.energy.total().as_pj() > 0.0);
            // Accounting identity: every post-L1 stream access is a hit or
            // a miss.
            assert!(r.cache_hits + r.cache_misses + r.bypass + r.l1_hits <= r.mem_ops + r.bypass);
        }
    }
}

#[test]
fn stream_grain_beats_line_grain_on_graph_traversal() {
    // The paper's headline: stream metadata + placement beat cacheline NUCA.
    let ndpx = run(SystemConfig::test(PolicyKind::NdpExt), "pr", 12_000);
    let nexus = run(SystemConfig::test(PolicyKind::Nexus), "pr", 12_000);
    assert!(
        ndpx.sim_time < nexus.sim_time,
        "NDPExt ({}) should beat Nexus ({})",
        ndpx.sim_time,
        nexus.sim_time
    );
    // And it does so with zero in-DRAM metadata accesses.
    assert_eq!(ndpx.metadata_dram, 0);
    assert!(nexus.metadata_dram > 0);
}

#[test]
fn hmc_and_hbm_both_work_and_differ() {
    let mut hbm_cfg = SystemConfig::test(PolicyKind::NdpExt);
    hbm_cfg.mem_kind = MemKind::Hbm;
    let mut hmc_cfg = SystemConfig::test(PolicyKind::NdpExt);
    hmc_cfg.mem_kind = MemKind::Hmc;
    hmc_cfg.topology.intra = ndpx_noc::topology::IntraKind::Mesh;
    let a = run(hbm_cfg, "cc", 4000);
    let b = run(hmc_cfg, "cc", 4000);
    assert!(a.sim_time > Time::ZERO && b.sim_time > Time::ZERO);
    assert_ne!(a.sim_time, b.sim_time, "different memories should time differently");
}

#[test]
fn consistent_hash_preserves_more_than_bulk_invalidation() {
    let mut bulk = SystemConfig::test(PolicyKind::NdpExt);
    bulk.transfer = ReconfigTransfer::BulkInvalidate;
    let mut cons = SystemConfig::test(PolicyKind::NdpExt);
    cons.transfer = ReconfigTransfer::ConsistentHash;
    let rb = run(bulk, "pr", 25_000);
    let rc = run(cons, "pr", 25_000);
    assert!(rb.reconfigs > 0, "needs at least one reconfiguration to compare");
    assert!(
        rc.invalidations <= rb.invalidations,
        "consistent hashing ({}) must not invalidate more than bulk ({})",
        rc.invalidations,
        rb.invalidations
    );
}

#[test]
fn breakdown_covers_all_components_for_baselines() {
    let r = run(SystemConfig::test(PolicyKind::Jigsaw), "pr", 4000);
    assert!(r.breakdown.get(LatComponent::Metadata) > Time::ZERO);
    assert!(r.breakdown.get(LatComponent::ExtMem) > Time::ZERO);
    let noc = r.breakdown.get(LatComponent::NocIntra) + r.breakdown.get(LatComponent::NocInter);
    assert!(noc > Time::ZERO);
}

#[test]
fn whole_run_is_deterministic_across_constructions() {
    let mk = || run(SystemConfig::test(PolicyKind::Nexus), "gnn", 3000);
    let a = mk();
    let b = mk();
    assert_eq!(a.sim_time, b.sim_time);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.invalidations, b.invalidations);
    assert_eq!(a.energy.total(), b.energy.total());
}

#[test]
fn host_system_integrates_with_all_workloads() {
    for w in ndpx_workloads::ALL_WORKLOADS {
        let cfg = HostConfig::test(8);
        let p = ScaleParams { cores: 8, footprint: 2 << 20, seed: 5 };
        let wl = ndpx_workloads::build(w, &p).unwrap().unwrap();
        let r = HostSystem::new(cfg, wl).unwrap().run(500);
        assert!(r.sim_time > Time::ZERO, "host stalled on {w}");
    }
}

#[test]
fn longer_runs_take_longer() {
    let short = run(SystemConfig::test(PolicyKind::NdpExt), "tc", 1000);
    let long = run(SystemConfig::test(PolicyKind::NdpExt), "tc", 4000);
    assert!(long.sim_time > short.sim_time);
    assert!(long.ops > short.ops);
}

#[test]
fn epoch_boundaries_scale_with_interval() {
    let mut fast = SystemConfig::test(PolicyKind::NdpExt);
    fast.epoch_cycles /= 4;
    let slow = SystemConfig::test(PolicyKind::NdpExt);
    let rf = run(fast, "cc", 20_000);
    let rs = run(slow, "cc", 20_000);
    assert!(
        rf.reconfigs > rs.reconfigs,
        "shorter epochs must reconfigure more ({} vs {})",
        rf.reconfigs,
        rs.reconfigs
    );
}

#[test]
fn paper_geometry_fits_in_memory() {
    // Table II's 128 MiB per unit: tag arrays sized densely to capacity
    // would need tens of GB for NDPExt's element-grain indirect streams.
    // Sparse tag arrays cost only what a short run fills.
    let cfg = SystemConfig::paper(MemKind::Hbm, PolicyKind::NdpExt);
    let cache = cfg.units() as u64 * cfg.unit_capacity;
    let p = ScaleParams { cores: cfg.units(), footprint: cache * 6 / 5, seed: 7 };
    let wl = ndpx_workloads::build("recsys", &p).expect("known").expect("builds");
    let r = NdpSystem::new(cfg, wl).expect("consistent").run(100);
    assert_eq!(r.ops, 128 * 100);
    assert!(r.sim_time > Time::ZERO);
    assert!(r.cache_hits + r.cache_misses > 0, "no post-L1 stream accesses");
}
