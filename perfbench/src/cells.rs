//! The three workloads as lists of simulator cells, how one cell is set up
//! and run through the public APIs, and the checks every cell's output
//! must pass.

use ndpx_bench::digest::report_digest;
use ndpx_bench::runner::BenchScale;
use ndpx_core::config::{MemKind, PolicyKind, SystemConfig};
use ndpx_core::host::{HostConfig, HostSystem};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_sim::telemetry::{StatRegistry, StatValue, TraceConfig};
use ndpx_sim::time::Time;
use ndpx_workloads::trace::ScaleParams;
use ndpx_workloads::{TraceCache, TraceKey};

/// Every cell runs at the bench capacity profile: the paper's 128-unit
/// topology at 1/16 of its DRAM-cache capacity.
pub const SCALE: BenchScale = BenchScale::Small;

/// Trace operations per core of an NDP cell: a fifteenth of the bench
/// profile's 30k. A cell then runs for about 50 ms, and a run executes it
/// twenty times or more, enough for a per-cell median that is steady from
/// run to run on a shared host.
pub const NDP_OPS_PER_CORE: u64 = 2_000;

/// The NDP cells' epoch length in core cycles (a cell reaches the bench
/// profile's 2 M cycles at most once). Short enough that every adaptive
/// cell reconfigures at least ten times in its [`NDP_OPS_PER_CORE`] ops.
pub const EPOCH_CYCLES: u64 = 12_000;

/// Host cores of the non-NDP baseline (the paper's 64-core NUCA host).
pub const HOST_CORES: usize = 64;

/// Data footprint of the host cells. The reproduction's own host baseline
/// uses 4× the NDP cache (2 GiB, a 15 s power-law graph build and a
/// gigabyte-sized graph); an eighth of that keeps trace generation the
/// dominant cost while a run stays inside the benchmark's time budget.
pub const HOST_FOOTPRINT: u64 = 256 << 20;

/// Passes over the host cells per `host-trace` round.
pub const HOST_PASSES: usize = 6;

/// A named set of cells, chosen to load one group of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The NDP system with short epochs: the per-access datapath and the
    /// per-epoch host runtime.
    Runtime,
    /// The non-NDP host baseline, dominated by trace generation.
    HostTrace,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::Runtime, Workload::HostTrace];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Runtime => "runtime",
            Workload::HostTrace => "host-trace",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes over the cell list per round, after one trace generation.
    /// The host cells run for a tenth of a round's generation time, so
    /// `host-trace` runs them several times per round and has as many
    /// executions of each to take the median of as the other workloads.
    pub fn passes(self) -> usize {
        match self {
            Workload::HostTrace => HOST_PASSES,
            Workload::Runtime => 1,
        }
    }

    /// The cells of this workload, in a fixed order.
    pub fn cells(self) -> Vec<Cell> {
        let ops = NDP_OPS_PER_CORE;
        let ndp = |mem, policy, trace| Cell {
            trace,
            machine: Machine::Ndp { mem, policy },
            ops_per_core: ops,
        };
        match self {
            Workload::Runtime => {
                let mut cells = Vec::new();
                for trace in ["recsys", "mv"] {
                    for policy in [PolicyKind::NdpExt, PolicyKind::Jigsaw, PolicyKind::NdpExtStatic]
                    {
                        cells.push(ndp(MemKind::Hbm, policy, trace));
                    }
                }
                // The HMC mesh, so the NoC's multi-hop routes carry
                // traffic too: NDPExt and its static control on `mv`, the
                // cheapest trace.
                for policy in [PolicyKind::NdpExt, PolicyKind::NdpExtStatic] {
                    cells.push(ndp(MemKind::Hmc, policy, "mv"));
                }
                cells
            }
            Workload::HostTrace => {
                // The host runs the same total op count as a 128-unit NDP
                // cell, spread over its 64 cores.
                let units = SCALE.system(MemKind::Hbm, PolicyKind::NdpExt).units() as u64;
                let host_ops = ops * units / HOST_CORES as u64;
                ["pr", "mv"]
                    .into_iter()
                    .map(|trace| Cell { trace, machine: Machine::Host, ops_per_core: host_ops })
                    .collect()
            }
        }
    }
}

/// Which simulator a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// The NDP system at [`SCALE`] with [`EPOCH_CYCLES`] epochs.
    Ndp {
        /// Memory family.
        mem: MemKind,
        /// Cache-management policy.
        policy: PolicyKind,
    },
    /// The 64-core host baseline.
    Host,
}

/// One simulation: a trace, a machine and an op count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Workload trace name (from `ndpx_workloads::ALL_WORKLOADS`).
    pub trace: &'static str,
    /// The simulator that runs it.
    pub machine: Machine,
    /// Trace operations per core.
    pub ops_per_core: u64,
}

/// A cell's simulator after set-up, ready to run.
pub enum Built {
    /// An NDP system.
    Ndp(Box<NdpSystem>),
    /// A host system.
    Host(Box<HostSystem>),
}

impl Cell {
    /// A stable label, e.g. `hmc/NDPExt/mv` or `host/pr`.
    pub fn name(&self) -> String {
        match self.machine {
            Machine::Ndp { mem, policy } => {
                let mem = match mem {
                    MemKind::Hbm => "hbm",
                    MemKind::Hmc => "hmc",
                };
                format!("{mem}/{}/{}", policy.label(), self.trace)
            }
            Machine::Host => format!("host/{}", self.trace),
        }
    }

    /// The NDP configuration, or `None` for a host cell.
    pub fn ndp_config(&self) -> Option<SystemConfig> {
        let Machine::Ndp { mem, policy } = self.machine else {
            return None;
        };
        let mut cfg = SCALE.system(mem, policy);
        cfg.epoch_cycles = EPOCH_CYCLES;
        Some(cfg)
    }

    /// The host configuration, composed as the bench harness's host
    /// baseline does: the paper's host with its LLC scaled to the NDP
    /// cache at the paper's 1:512 ratio.
    pub fn host_config() -> HostConfig {
        let ndp = SCALE.system(MemKind::Hbm, PolicyKind::NdpExt);
        let mut host = HostConfig::paper();
        host.cores = HOST_CORES;
        host.llc_bytes = (ndp.units() as u64 * ndp.unit_capacity / 512).max(256 << 10);
        host
    }

    /// Core count of the simulated machine.
    pub fn cores(&self) -> usize {
        self.ndp_config().map_or(HOST_CORES, |cfg| cfg.units())
    }

    /// Trace generation parameters; the benchmark seed becomes the
    /// workload seed.
    pub fn params(&self, seed: u64) -> ScaleParams {
        match self.ndp_config() {
            Some(cfg) => ScaleParams { seed, ..SCALE.workload(&cfg) },
            None => ScaleParams { cores: HOST_CORES, footprint: HOST_FOOTPRINT, seed },
        }
    }

    /// The trace-cache key of this cell's trace.
    pub fn key(&self, seed: u64) -> TraceKey {
        TraceKey::new(self.trace, &self.params(seed), self.ops_per_core)
    }

    /// Sets the cell's simulator up on a trace served from `cache`.
    ///
    /// # Errors
    ///
    /// Returns the constructor's message on an inconsistent configuration.
    pub fn build(&self, cache: &TraceCache, seed: u64) -> Result<Built, String> {
        let wl = cache.workload(self.trace, &self.params(seed), self.ops_per_core);
        Ok(match self.ndp_config() {
            Some(cfg) => Built::Ndp(Box::new(NdpSystem::new(cfg, wl)?)),
            None => Built::Host(Box::new(HostSystem::new(Self::host_config(), wl)?)),
        })
    }
}

impl Built {
    /// Attaches the simulator's phase profiler, whose registry nodes count
    /// the epoch solves and rehashes. The host has no phases to count.
    pub fn set_profile(&mut self, on: bool) {
        if let Built::Ndp(sys) = self {
            sys.set_profile(on);
        }
    }

    /// Has an NDP system write its end-of-run trace to `path`, recording
    /// only events from `from` on. At the makespan that is just the phase
    /// profiler's totals, the only place its wall time is exported.
    pub fn export_phases(&mut self, path: std::path::PathBuf, from: Time) {
        if let Built::Ndp(sys) = self {
            sys.set_trace(Some(TraceConfig { path, start: from, stop: Time::MAX, capacity: 64 }));
        }
    }

    /// Runs the cell's op quota.
    pub fn run(&mut self, ops_per_core: u64) -> RunReport {
        match self {
            Built::Ndp(sys) => sys.run(ops_per_core),
            Built::Host(sys) => sys.run(ops_per_core),
        }
    }
}

/// The output checks of one cell; each returned message is a failure.
///
/// - every core ran its quota: `ops == cores × ops_per_core`;
/// - post-L1 accounting closes: `cache_hits + cache_misses + bypass ==
///   mem_ops − l1_hits`;
/// - the latency breakdown is non-zero whenever a post-L1 access happened.
pub fn check(cell: &Cell, r: &RunReport) -> Vec<String> {
    let mut problems = Vec::new();
    let want_ops = cell.cores() as u64 * cell.ops_per_core;
    if r.ops != want_ops {
        problems.push(format!("ops {} != cores x ops_per_core {want_ops}", r.ops));
    }
    let post_l1 = r.mem_ops.checked_sub(r.l1_hits);
    let served = r.cache_hits + r.cache_misses + r.bypass;
    if post_l1 != Some(served) {
        problems.push(format!(
            "cache_hits {} + cache_misses {} + bypass {} != mem_ops {} - l1_hits {}",
            r.cache_hits, r.cache_misses, r.bypass, r.mem_ops, r.l1_hits
        ));
    }
    if post_l1.unwrap_or(0) > 0 && r.breakdown.total().is_zero() {
        problems.push("latency breakdown is zero despite post-L1 accesses".to_string());
    }
    problems
}

/// Exact work counts of one run, read from its report and stat registry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Ops executed by the engine loop.
    pub engine_events: u64,
    /// Run-ahead batches.
    pub batches: u64,
    /// Ops completed on the batch fast path.
    pub fast_hits: u64,
    /// Highest event-queue depth seen (a maximum, not a sum).
    pub peak_queue_depth: u64,
    /// Events that overflowed the time wheel's horizon.
    pub overflow_scheduled: u64,
    /// Memory ops issued.
    pub mem_ops: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// Metadata-cache misses summed over units.
    pub meta_misses: u64,
    /// SLB misses.
    pub slb_misses: u64,
    /// In-DRAM tag accesses.
    pub metadata_dram: u64,
    /// DRAM-cache hits (host: LLC hits).
    pub cache_hits: u64,
    /// DRAM-cache misses (host: LLC misses).
    pub cache_misses: u64,
    /// Hits at the requester's own unit.
    pub local_hits: u64,
    /// NoC messages.
    pub noc_messages: u64,
    /// Intra-stack hops.
    pub noc_intra_hops: u64,
    /// Inter-stack hops.
    pub noc_inter_hops: u64,
    /// DRAM device accesses (NDP unit DRAM, or host main memory).
    pub dram_accesses: u64,
    /// DRAM row hits.
    pub dram_row_hits: u64,
    /// Extended-memory (CXL) requests.
    pub cxl_requests: u64,
    /// Reconfigurations.
    pub reconfigs: u64,
    /// Entries migrated at reconfigurations.
    pub migrations: u64,
    /// Entries invalidated.
    pub invalidations: u64,
    /// Epoch allocation solves (counted only with the phase profiler on).
    pub solves: u64,
    /// Consistent-hash rehashes (counted only with the phase profiler on).
    pub rehashes: u64,
}

fn count(reg: &StatRegistry, path: &str) -> u64 {
    match reg.get(path) {
        Some(StatValue::Count(n)) => *n,
        Some(StatValue::Latency { count, .. }) => *count,
        _ => 0,
    }
}

impl Counts {
    /// Reads the counts of one run.
    pub fn of(r: &RunReport) -> Self {
        let reg = &r.registry;
        let mut c = Counts {
            engine_events: count(reg, "engine.events"),
            batches: count(reg, "engine.batch.batches"),
            fast_hits: count(reg, "engine.batch.fast_hits"),
            peak_queue_depth: count(reg, "engine.peak_queue_depth"),
            overflow_scheduled: count(reg, "engine.queue.overflow_scheduled"),
            mem_ops: r.mem_ops,
            l1_hits: r.l1_hits,
            slb_misses: r.slb_misses,
            metadata_dram: r.metadata_dram,
            cache_hits: r.cache_hits,
            cache_misses: r.cache_misses,
            local_hits: r.local_hits,
            noc_messages: count(reg, "noc.messages"),
            noc_intra_hops: count(reg, "noc.intra_hops"),
            noc_inter_hops: count(reg, "noc.inter_hops"),
            cxl_requests: count(reg, "cxl.requests"),
            reconfigs: r.reconfigs,
            migrations: r.migrations,
            invalidations: r.invalidations,
            solves: count(reg, "profile.sampler_solve"),
            rehashes: count(reg, "profile.rehash"),
            ..Counts::default()
        };
        // Per-unit devices publish under `unitNNN.*`; the host's single
        // main memory under `mem.*`.
        for (path, value) in reg.iter() {
            let n = value.as_count().unwrap_or(0);
            let (scope, stat) = path.rsplit_once('.').unwrap_or(("", path));
            let device = scope.rsplit('.').next().unwrap_or("");
            let unit_scoped = scope.starts_with("unit");
            match (device, stat) {
                ("dram", "reads" | "writes") if unit_scoped => c.dram_accesses += n,
                ("dram", "row_hits") if unit_scoped => c.dram_row_hits += n,
                ("meta", "misses") if unit_scoped => c.meta_misses += n,
                ("mem", "reads" | "writes") if scope == "mem" => c.dram_accesses += n,
                ("mem", "row_hits") if scope == "mem" => c.dram_row_hits += n,
                _ => {}
            }
        }
        c
    }

    /// Adds another run's counts (the queue depth takes the maximum).
    pub fn add(&mut self, o: &Counts) {
        self.engine_events += o.engine_events;
        self.batches += o.batches;
        self.fast_hits += o.fast_hits;
        self.peak_queue_depth = self.peak_queue_depth.max(o.peak_queue_depth);
        self.overflow_scheduled += o.overflow_scheduled;
        self.mem_ops += o.mem_ops;
        self.l1_hits += o.l1_hits;
        self.meta_misses += o.meta_misses;
        self.slb_misses += o.slb_misses;
        self.metadata_dram += o.metadata_dram;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.local_hits += o.local_hits;
        self.noc_messages += o.noc_messages;
        self.noc_intra_hops += o.noc_intra_hops;
        self.noc_inter_hops += o.noc_inter_hops;
        self.dram_accesses += o.dram_accesses;
        self.dram_row_hits += o.dram_row_hits;
        self.cxl_requests += o.cxl_requests;
        self.reconfigs += o.reconfigs;
        self.migrations += o.migrations;
        self.invalidations += o.invalidations;
        self.solves += o.solves;
        self.rehashes += o.rehashes;
    }

    /// Accesses that went past the L1.
    pub fn post_l1(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }
}

/// What one cell execution produced.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// Seconds in the system constructor.
    pub new_s: f64,
    /// Seconds in `run`.
    pub run_s: f64,
    /// Simulated ops.
    pub ops: u64,
    /// Digest of every simulated figure of the report.
    pub digest: u64,
    /// Failed output checks (empty when the cell is correct).
    pub problems: Vec<String>,
    /// Exact work counts.
    pub counts: Counts,
    /// Simulated makespan.
    pub makespan: Time,
    /// Wall seconds in epoch allocation solves, from the phase profiler
    /// (traced NDP rounds only; 0 otherwise).
    pub solve_s: f64,
    /// Wall seconds applying allocations (rehash), from the phase profiler
    /// (traced NDP rounds only; 0 otherwise).
    pub rehash_s: f64,
}

impl CellOut {
    /// Wraps a finished run.
    pub fn new(cell: &Cell, new_s: f64, run_s: f64, report: &RunReport) -> Self {
        CellOut {
            new_s,
            run_s,
            ops: report.ops,
            digest: report_digest(report),
            problems: check(cell, report),
            counts: Counts::of(report),
            makespan: report.sim_time,
            solve_s: 0.0,
            rehash_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn cell_lists_match_their_purpose() {
        let rt = Workload::Runtime.cells();
        assert_eq!(rt.len(), 8);
        assert!(rt.iter().all(|c| c.ndp_config().is_some_and(|cfg| cfg.units() == 128)));
        assert!(rt.iter().all(|c| c.ndp_config().unwrap().epoch_cycles == EPOCH_CYCLES));
        // Both memory families, so both the crossbar and the mesh carry traffic.
        for mem in [MemKind::Hbm, MemKind::Hmc] {
            assert!(rt
                .iter()
                .any(|c| matches!(c.machine, Machine::Ndp { mem: m, .. } if m == mem)));
        }
        let ht = Workload::HostTrace.cells();
        assert!(ht.iter().all(|c| c.machine == Machine::Host && c.cores() == HOST_CORES));
        assert!(Workload::HostTrace.passes() > 1 && Workload::Runtime.passes() == 1);
        // Equal total work: 64 host cores run what 128 NDP cores run.
        assert_eq!(ht[0].ops_per_core * HOST_CORES as u64, rt[0].ops_per_core * 128);
        let mut names: Vec<String> =
            Workload::ALL.iter().flat_map(|w| w.cells()).map(|c| c.name()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "cell names are unique");
    }

    #[test]
    fn seed_reaches_the_trace_key() {
        let cell = Workload::Runtime.cells()[0];
        assert_eq!(cell.key(7).seed, 7);
        assert_ne!(cell.key(7), cell.key(8));
        // Policies on one trace share one key, so one generation serves them.
        let rt = Workload::Runtime.cells();
        assert_eq!(rt[0].key(1), rt[1].key(1));
    }

    #[test]
    fn check_flags_broken_accounting() {
        let cell = Cell { trace: "mv", machine: Machine::Host, ops_per_core: 10 };
        let mut r = ndpx_core::host::HostSystem::new(
            HostConfig::test(HOST_CORES),
            TraceCache::new().workload(
                "mv",
                &ScaleParams { cores: HOST_CORES, footprint: 1 << 20, seed: 1 },
                10,
            ),
        )
        .unwrap()
        .run(10);
        assert!(check(&cell, &r).is_empty(), "{:?}", check(&cell, &r));
        r.ops += 1;
        r.cache_hits += 1;
        assert_eq!(check(&cell, &r).len(), 2);
    }
}
