//! One round of a workload: set-up (trace generation through an enabled
//! [`TraceCache`], then the system constructors) and every cell's run on
//! the cell pool. A traced round also records a span around each call
//! into a layer, and reads the wall time the simulator's phase profiler
//! gives each epoch solve and rehash.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ndpx_bench::pool::{CellPool, CellTask};
use ndpx_sim::telemetry::{Json, Phase};
use ndpx_sim::time::Time;
use ndpx_workloads::{TraceCache, TraceKey};

use crate::cells::{Cell, CellOut};
use crate::layers::{name, BENCH, HOST, SYSTEM, WORKLOADS};
use crate::stats::median;

/// One finished span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused it (`None` for a round).
    pub parent: Option<u64>,
    /// Layer call, e.g. `core.system.run`.
    pub name: String,
    /// What it worked on (a cell or trace label).
    pub subject: String,
    /// Microseconds since the benchmark started.
    pub start_us: f64,
    /// Microseconds since the benchmark started.
    pub end_us: f64,
}

/// In-memory span store, written out when the benchmark ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Where traced cells write their phase-profile exports; removed when
    /// the log is dropped.
    phase_dir: PathBuf,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`. Phase-profile exports
    /// go to a directory of this process's own under `out_dir`.
    pub fn new(origin: Instant, out_dir: &Path) -> Self {
        SpanLog {
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            phase_dir: out_dir.join(format!("phases-{}", std::process::id())),
        }
    }

    /// A fresh span id (allocated before the span ends, so children can
    /// name their parent).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: String,
        subject: String,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span { id, parent, name, subject, start_us: us(start), end_us: us(end) };
        self.spans.lock().expect("span log").push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span log").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

impl Drop for SpanLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.phase_dir);
    }
}

/// Wall seconds the phase profiler gave `phase`, read from the Chrome
/// trace a system writes at the end of its run (the profiler exports its
/// wall-time totals only there); `0.0` when the trace has none.
pub fn phase_wall_s(trace_json: &str, phase: Phase) -> f64 {
    let want = format!("profile.{}.wall_us", phase.label());
    Json::parse(trace_json)
        .ok()
        .and_then(|doc| {
            doc.get("traceEvents")?
                .as_array()?
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(want.as_str()))?
                .get("args")?
                .get("value")?
                .as_f64()
        })
        .map_or(0.0, |us| us / 1e6)
}

/// Reads and removes the trace a cell's system wrote under `stem` in
/// `dir` (the sink appends a sequence number to the file name).
fn take_trace(dir: &Path, stem: &str) -> Option<String> {
    let prefix = format!("{stem}.");
    let path =
        std::fs::read_dir(dir).ok()?.flatten().map(|e| e.path()).find(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(&prefix))
        })?;
    let text = std::fs::read_to_string(&path).ok();
    let _ = std::fs::remove_file(&path);
    text
}

/// Times `f`, recording a span when a log is attached.
fn span<T>(
    log: Option<&SpanLog>,
    parent: Option<u64>,
    name: &str,
    subject: impl FnOnce() -> String,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if let Some(log) = log {
        log.record(log.id(), parent, name.to_string(), subject(), start, end);
    }
    (out, end.duration_since(start).as_secs_f64())
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Host seconds for the whole round: set-up plus every cell.
    pub wall_s: f64,
    /// Seconds generating traces into the cache.
    pub gen_s: f64,
    /// Seconds in the pool phase (cells constructing and running).
    pub pool_s: f64,
    /// Bytes of op traces materialized.
    pub trace_bytes: u64,
    /// Per cell: its output, or the panic message.
    pub cells: Vec<Result<CellOut, String>>,
    /// Per cell: wall seconds on its worker thread.
    pub cell_wall_s: Vec<f64>,
    /// Executions of the round's further passes over the same traces.
    pub repeats: Vec<Repeat>,
    /// Stream count of each distinct trace, in first-use order.
    pub streams: Vec<(&'static str, usize)>,
    /// Peak resident set size during the round, in MB.
    pub peak_rss_mb: f64,
}

/// One execution of a cell in a further pass of a round.
#[derive(Debug)]
pub struct Repeat {
    /// Index of the cell in the workload's list.
    pub cell: usize,
    /// Its output, or the panic message.
    pub out: Result<CellOut, String>,
    /// Wall seconds on its worker thread.
    pub wall_s: f64,
}

impl Round {
    /// Every execution of cell `ci` in this round: the first pass's and
    /// the repeats', each with its wall seconds.
    pub fn executions(&self, ci: usize) -> impl Iterator<Item = (&Result<CellOut, String>, f64)> {
        std::iter::once((&self.cells[ci], self.cell_wall_s[ci]))
            .chain(self.repeats.iter().filter(move |r| r.cell == ci).map(|r| (&r.out, r.wall_s)))
    }

    /// Set-up seconds: trace generation plus every system constructor.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.cells.iter().flatten().map(|c| c.new_s).sum::<f64>()
    }

    /// Seconds inside `run`, summed over cells.
    pub fn run_s(&self) -> f64 {
        self.cells.iter().flatten().map(|c| c.run_s).sum()
    }

    /// Simulated ops summed over cells.
    pub fn ops(&self) -> u64 {
        self.cells.iter().flatten().map(|c| c.ops).sum()
    }
}

/// Runs every cell `passes` times on `threads` pool workers, with traces
/// for `seed` generated once up front through an enabled cache. Cells are
/// panic-isolated: a panicking cell yields its message and the others
/// still run. The first pass gives the round's set-up and per-cell
/// figures; further passes only add executions to take the median of.
///
/// With a `log`, the round is traced. `makespans` then holds each cell's
/// makespan from an earlier round: the phase profiler's totals are
/// exported at the makespan, so the cell's trace window opens there and
/// no per-op event is recorded.
pub fn run_round(
    cells: &[Cell],
    seed: u64,
    threads: usize,
    log: Option<&SpanLog>,
    makespans: &[Option<Time>],
    passes: usize,
) -> Round {
    reset_peak_rss();
    let round_start = Instant::now();
    let round_id = log.map(SpanLog::id);
    let cache = TraceCache::new();

    // Set-up, part one: fill the cache, so no generation happens in `run`.
    let mut keys: Vec<TraceKey> = Vec::new();
    for cell in cells {
        let key = cell.key(seed);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut gen_s = 0.0;
    let mut trace_bytes = 0;
    let mut streams = Vec::new();
    for key in &keys {
        let (trace, secs) = span(
            log,
            round_id,
            &name(WORKLOADS, "gen"),
            || format!("{}/cores{}/seed{:#x}", key.workload, key.cores, key.seed),
            || cache.get(key).expect("an enabled cache within budget materializes every trace"),
        );
        gen_s += secs;
        trace_bytes += key.approx_bytes();
        streams.push((key.workload, trace.table.len()));
    }

    // Set-up, part two, and the runs: each cell constructs and runs its
    // system on a pool worker.
    let pool_start = Instant::now();
    let cache = &cache;
    let pass = |log: Option<&SpanLog>| {
        let tasks: Vec<CellTask<'_, Result<CellOut, String>>> = cells
            .iter()
            .enumerate()
            .map(|(ci, cell)| {
                let makespan = makespans.get(ci).copied().flatten();
                Box::new(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_cell(cell, cache, seed, log.map(|l| (l, makespan)), round_id)
                    }))
                    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
                }) as CellTask<'_, Result<CellOut, String>>
            })
            .collect();
        CellPool::with_threads(threads).run(tasks)
    };
    let results = pass(log);
    let pool_s = pool_start.elapsed().as_secs_f64();
    // A traced round makes one pass, so its spans cover exactly one
    // execution per cell.
    let passes = if log.is_some() { 1 } else { passes };
    let repeats: Vec<Repeat> = (1..passes)
        .flat_map(|_| pass(None).into_iter().enumerate())
        .map(|(cell, r)| Repeat { cell, out: r.value, wall_s: r.wall_s })
        .collect();
    let round_end = Instant::now();
    if let (Some(log), Some(id)) = (log, round_id) {
        log.record(
            id,
            None,
            name(BENCH, "round"),
            format!("seed{seed:#x}"),
            round_start,
            round_end,
        );
    }
    Round {
        wall_s: round_end.duration_since(round_start).as_secs_f64(),
        gen_s,
        pool_s,
        trace_bytes,
        cell_wall_s: results.iter().map(|r| r.wall_s).collect(),
        cells: results.into_iter().map(|r| r.value).collect(),
        repeats,
        streams,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Resets this process's peak resident set size to its current size, so
/// the next reading covers one round. Where the kernel does not allow it,
/// the reading covers the process so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `Σ over cells of the median over every execution of f(cell)`. With
/// twenty or more short executions per cell, the median is steadier from
/// run to run than the fastest execution (see README.md).
pub fn sum_of_cell_medians(rounds: &[&Round], f: impl Fn(&CellOut) -> f64) -> f64 {
    let cells = rounds.first().map_or(0, |r| r.cells.len());
    (0..cells)
        .map(|ci| {
            let samples: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.executions(ci))
                .filter_map(|(out, _)| out.as_ref().ok())
                .map(&f)
                .collect();
            median(&samples)
        })
        .sum()
}

/// The wall time of one pass of a round from its typical parts: the
/// median generation plus, per cell, its median wall time on its worker
/// over every execution. On one pool thread a pass is exactly these parts
/// in sequence.
pub fn pass_wall_s(rounds: &[&Round]) -> f64 {
    let cells = rounds.first().map_or(0, |r| r.cell_wall_s.len());
    let gen = median(&rounds.iter().map(|r| r.gen_s).collect::<Vec<_>>());
    gen + (0..cells)
        .map(|ci| {
            let walls: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.executions(ci))
                .filter(|(out, _)| out.is_ok())
                .map(|(_, wall)| wall)
                .collect();
            median(&walls)
        })
        .sum::<f64>()
}

fn run_cell(
    cell: &Cell,
    cache: &TraceCache,
    seed: u64,
    trace: Option<(&SpanLog, Option<Time>)>,
    round_id: Option<u64>,
) -> Result<CellOut, String> {
    let start = Instant::now();
    let log = trace.map(|(l, _)| l);
    let cell_id = log.map(SpanLog::id);
    let layer = if cell.ndp_config().is_some() { SYSTEM } else { HOST };
    let (built, new_s) =
        span(log, cell_id, &name(layer, "new"), || cell.name(), || cell.build(cache, seed));
    let mut sys = built?;
    sys.set_profile(log.is_some());
    let stem = cell_id.map(|id| format!("cell{id}"));
    if let (Some((log, Some(makespan))), Some(stem)) = (trace, &stem) {
        if std::fs::create_dir_all(&log.phase_dir).is_ok() {
            sys.export_phases(log.phase_dir.join(format!("{stem}.json")), makespan);
        }
    }
    let (report, run_s) =
        span(log, cell_id, &name(layer, "run"), || cell.name(), || sys.run(cell.ops_per_core));
    // The cell's span includes tearing its system down.
    drop(sys);
    let mut out = CellOut::new(cell, new_s, run_s, &report);
    if let (Some(log), Some(id), Some(stem)) = (log, cell_id, &stem) {
        log.record(id, round_id, name(BENCH, "cell"), cell.name(), start, Instant::now());
        if let Some(json) = take_trace(&log.phase_dir, stem) {
            out.solve_s = phase_wall_s(&json, Phase::SamplerSolve);
            out.rehash_s = phase_wall_s(&json, Phase::Rehash);
        }
    }
    Ok(out)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cells::Counts;

    /// A finished cell with the given run time and digest.
    pub(crate) fn out(run_s: f64, digest: u64) -> CellOut {
        CellOut {
            new_s: run_s / 10.0,
            run_s,
            ops: 100,
            digest,
            problems: Vec::new(),
            counts: Counts::default(),
            makespan: Time::ZERO,
            solve_s: 0.0,
            rehash_s: 0.0,
        }
    }

    /// A round of the given cell results.
    pub(crate) fn round(cells: Vec<Result<CellOut, String>>) -> Round {
        Round {
            wall_s: 1.0,
            gen_s: 0.5,
            pool_s: 0.5,
            trace_bytes: 0,
            cell_wall_s: vec![0.0; cells.len()],
            cells,
            repeats: Vec::new(),
            streams: Vec::new(),
            peak_rss_mb: 100.0,
        }
    }

    #[test]
    fn round_sums_skip_failed_cells() {
        let r = round(vec![Ok(out(2.0, 1)), Err("boom".into()), Ok(out(3.0, 2))]);
        assert_eq!(r.run_s(), 5.0);
        assert_eq!(r.ops(), 200);
        assert!((r.setup_s() - 1.0).abs() < 1e-12, "0.5 generation + 0.2 + 0.3 constructors");
    }

    #[test]
    fn cell_medians_resist_slow_rounds() {
        let rounds = [
            round(vec![Ok(out(1.0, 1)), Ok(out(2.0, 2))]),
            round(vec![Ok(out(9.0, 1)), Ok(out(2.2, 2))]),
            round(vec![Ok(out(1.2, 1)), Ok(out(2.4, 2))]),
        ];
        let refs: Vec<&Round> = rounds.iter().collect();
        // Cell 0: median(1.0, 9.0, 1.2) = 1.2; cell 1: median(2.0, 2.2, 2.4) = 2.2.
        assert!((sum_of_cell_medians(&refs, |c| c.run_s) - 3.4).abs() < 1e-12);
    }

    #[test]
    fn wall_adds_the_median_of_each_part() {
        let mut rounds = [
            round(vec![Ok(out(1.0, 1)), Ok(out(2.0, 2))]),
            round(vec![Ok(out(1.0, 1)), Ok(out(2.0, 2))]),
            round(vec![Ok(out(1.0, 1)), Ok(out(2.0, 2))]),
        ];
        for (r, (gen, walls)) in
            rounds.iter_mut().zip([(0.5, [1.0, 2.0]), (0.9, [4.0, 1.9]), (0.6, [1.2, 2.4])])
        {
            r.gen_s = gen;
            r.cell_wall_s = walls.to_vec();
        }
        let refs: Vec<&Round> = rounds.iter().collect();
        // median(0.5, 0.9, 0.6) + median(1.0, 4.0, 1.2) + median(2.0, 1.9, 2.4):
        // the typical parts may come from different rounds.
        assert!((pass_wall_s(&refs) - (0.6 + 1.2 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn repeats_count_towards_each_cells_median() {
        let mut r = round(vec![Ok(out(1.0, 1)), Ok(out(2.0, 2))]);
        r.cell_wall_s = vec![1.5, 2.5];
        r.repeats = vec![
            Repeat { cell: 1, out: Ok(out(1.5, 2)), wall_s: 2.0 },
            Repeat { cell: 0, out: Err("boom".into()), wall_s: 0.1 },
        ];
        let refs = [&r];
        assert_eq!(r.executions(1).count(), 2);
        // Cell 0: 1.0 (its panicked repeat does not count); cell 1:
        // median(2.0, 1.5) = 1.75.
        assert!((sum_of_cell_medians(&refs, |c| c.run_s) - 2.75).abs() < 1e-12);
        // 0.5 generation + 1.5 + median(2.5, 2.0): the panicked repeat's
        // 0.1 s is ignored.
        assert!((pass_wall_s(&refs) - 4.25).abs() < 1e-12);
        // Set-up and per-round sums stay those of the first pass.
        assert_eq!((r.run_s(), r.ops()), (3.0, 200));
    }

    #[test]
    fn phase_walls_are_read_from_the_profilers_trace_export() {
        use ndpx_sim::telemetry::{PhaseProfiler, TraceConfig, TraceSink};
        let mut prof = PhaseProfiler::new();
        prof.add(Phase::SamplerSolve, std::time::Duration::from_millis(3), Time::ZERO);
        prof.add(Phase::SamplerSolve, std::time::Duration::from_millis(2), Time::ZERO);
        let mut sink = TraceSink::new(TraceConfig::to_path("unused.json"));
        prof.export_trace(&mut sink, 0, Time::from_us(9));
        let json = sink.render_json("cell");
        assert!((phase_wall_s(&json, Phase::SamplerSolve) - 0.005).abs() < 1e-9);
        assert_eq!(phase_wall_s(&json, Phase::Rehash), 0.0, "no rehash recorded");
        assert_eq!(phase_wall_s("not json", Phase::Rehash), 0.0);
    }

    #[test]
    fn cell_medians_ignore_panicked_executions() {
        let rounds = [round(vec![Ok(out(1.0, 1))]), round(vec![Err("boom".into())])];
        let refs: Vec<&Round> = rounds.iter().collect();
        assert_eq!(sum_of_cell_medians(&refs, |c| c.run_s), 1.0);
    }

    #[test]
    fn spans_keep_their_parents() {
        let log = SpanLog::new(Instant::now(), Path::new("unused"));
        let parent = log.id();
        let (v, secs) = span(Some(&log), Some(parent), "layer.call", || "cell".into(), || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let spans = log.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].parent, spans[0].name.as_str()), (Some(parent), "layer.call"));
        assert!(spans[0].end_us >= spans[0].start_us);
    }
}
