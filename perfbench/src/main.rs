//! Wall-time benchmark of the NDPX simulator.
//!
//! ```text
//! ndpx-perfbench --workload <runtime|host-trace> [--seed N]
//!                [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs the workload's cells in rounds for about `--seconds` seconds (and
//! at least three rounds). Each round generates the traces for `--seed`
//! into an enabled trace cache, constructs every cell's system and runs it
//! on the cell pool. Every cell's output is checked and digested; a cell's
//! digest must repeat in every round. Lines before the last describe the
//! run (identity, rounds, cells); the last line is one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! interleaves untraced rounds with traced ones and writes its spans to
//! `.perfbench_out/`. See `README.md` for why each workload exists.

mod cells;
mod layers;
mod measure;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cells::Workload;
use measure::{Round, SpanLog};
use ndpx_sim::knobs::{self, Knob};
use stats::{least, median, ratio, Tally};

/// The workload seed when none is given.
const DEFAULT_SEED: u64 = 0xBEEF;
/// Fewest rounds a run measures, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// No round starts after this many seconds, so a run ends well within the
/// three minutes a benchmark run may take.
const LAST_START_S: f64 = 100.0;
/// Where a traced run writes its spans.
const OUT_DIR: &str = ".perfbench_out";
/// Most pool threads. One: cells then run back to back, so a cell's time
/// does not depend on what its neighbour on the other CPU does, and a
/// round's wall time is the sum of its parts.
const MAX_THREADS: usize = 1;
/// Knobs the benchmark pins; every other registered knob is unset so an
/// inherited environment cannot change what is measured. The process-wide
/// graph cache is off so that every round pays trace generation in full,
/// as a fresh `reproduce` process does.
const PINNED_KNOBS: [(&Knob, &str); 1] = [(&knobs::GRAPH_CACHE, "0")];

const USAGE: &str = "usage: ndpx-perfbench --workload <runtime|host-trace> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => seconds = parse_u64(value).filter(|&s| s >= 1).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Unsets every registered knob and sets the pinned ones. Runs before any
/// thread starts and before any knob is read.
fn pin_knobs() {
    for knob in knobs::ALL {
        std::env::remove_var(knob.name);
    }
    for (knob, value) in PINNED_KNOBS {
        std::env::set_var(knob.name, value);
    }
}

/// Has the C allocator keep the memory the simulator frees, for reuse by
/// the next cell, instead of returning it to the kernel. Every cell sets
/// up and tears down a system of hundreds of megabytes. Returned memory
/// comes back as fresh pages, and on a virtual machine that hands freed
/// pages back to its host, each fresh page costs a fault whose price
/// depends on the host's load. Without this, set-up times on a shared
/// 2-vCPU microVM doubled and swung by a third within one run. Runs
/// before any thread starts.
fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` only sets glibc allocator parameters, and no
        // other thread exists yet.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` outside a repository.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero (an empty float sum) into `0.0`.
        format!("{:?}", v + 0.0)
    } else {
        "null".to_string()
    }
}

fn identity(args: &Args, threads: usize, cells: &[cells::Cell]) -> String {
    let nproc = ndpx_bench::pool::host_cpus();
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let knobs: Vec<String> =
        PINNED_KNOBS.iter().map(|(k, v)| format!("{}:{}", json_str(k.name), json_str(v))).collect();
    let names: Vec<String> = cells.iter().map(|c| json_str(&c.name())).collect();
    format!(
        "{{\"git_rev\":{},\"profile\":\"{profile}\",\"nproc\":{nproc},\"threads\":{threads},\
         \"seed\":{},\"workload\":{},\"seconds\":{},\"trace\":{},\"knobs\":{{{}}},\"cells\":[{}]}}",
        json_str(&git_revision()),
        args.seed,
        json_str(args.workload.name()),
        args.seconds,
        args.trace,
        knobs.join(","),
        names.join(",")
    )
}

/// Tallies every cell execution: a panic, a failed output check, or a
/// digest that differs from the cell's first round is a failure.
fn tally(cells: &[cells::Cell], rounds: &[&Round]) -> (Tally, Vec<String>) {
    let mut t = Tally::default();
    let mut problems = Vec::new();
    let mut first_digest: Vec<Option<u64>> = vec![None; cells.len()];
    for (ri, round) in rounds.iter().enumerate() {
        let executions =
            (0..cells.len()).flat_map(|ci| round.executions(ci).map(move |(o, _)| (ci, o)));
        for (ci, out) in executions {
            let name = cells[ci].name();
            let ok = match out {
                Err(msg) => {
                    problems.push(format!("round {} {name}: panicked: {msg}", ri + 1));
                    false
                }
                Ok(o) => {
                    let mut ok = o.problems.is_empty();
                    for p in &o.problems {
                        problems.push(format!("round {} {name}: {p}", ri + 1));
                    }
                    match first_digest[ci] {
                        None => first_digest[ci] = Some(o.digest),
                        Some(d) if d != o.digest => {
                            problems.push(format!(
                                "round {} {name}: digest {:#018x} differs from {d:#018x}",
                                ri + 1,
                                o.digest
                            ));
                            ok = false;
                        }
                        Some(_) => {}
                    }
                    ok
                }
            };
            t.record(ok);
        }
    }
    (t, problems)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    retain_freed_memory();
    pin_knobs();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ndpx-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = ndpx_bench::pool::host_cpus().min(MAX_THREADS);
    let cells = args.workload.cells();
    println!("identity {}", identity(&args, threads, &cells));

    // Rounds until the time is up; a traced run alternates untraced and
    // traced rounds so both see the same machine conditions. Once the
    // fewest rounds are done, a round starts only if a typical round ends
    // within `--seconds`, so a run takes about `--seconds`.
    let log = SpanLog::new(origin, std::path::Path::new(OUT_DIR));
    let min_rounds = if args.trace { 2 * MIN_ROUNDS } else { MIN_ROUNDS };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut makespans = Vec::new();
    loop {
        let elapsed = origin.elapsed().as_secs_f64();
        let round_s = median(&rounds.iter().map(|(_, r)| r.wall_s).collect::<Vec<_>>());
        let enough = rounds.len() >= min_rounds && elapsed + round_s > args.seconds as f64;
        if enough || (rounds.len() >= 2 && elapsed >= LAST_START_S) {
            break;
        }
        let traced = args.trace && rounds.len() % 2 == 1;
        let round = measure::run_round(
            &cells,
            args.seed,
            threads,
            traced.then_some(&log),
            &makespans,
            args.workload.passes(),
        );
        makespans =
            round.cells.iter().map(|c| c.as_ref().ok().map(|o| o.makespan)).collect::<Vec<_>>();
        println!(
            "round {} traced={traced} wall_s={:.4} setup_s={:.4} gen_s={:.4} run_s={:.4} ops={}",
            rounds.len() + 1,
            round.wall_s,
            round.setup_s(),
            round.gen_s,
            round.run_s(),
            round.ops()
        );
        rounds.push((traced, round));
    }
    let all: Vec<&Round> = rounds.iter().map(|(_, r)| r).collect();
    let (tally, problems) = tally(&cells, &all);
    for (ci, cell) in cells.iter().enumerate() {
        let outs: Vec<&cells::CellOut> = all
            .iter()
            .flat_map(|r| r.executions(ci))
            .filter_map(|(o, _)| o.as_ref().ok())
            .collect();
        let Some(o) = outs.first() else { continue };
        println!(
            "cell {} digest={:#018x} ops={} reconfigs={} executions={} new_s={:.4} run_s={:.4}",
            cell.name(),
            o.digest,
            o.ops,
            o.counts.reconfigs,
            outs.len(),
            median(&outs.iter().map(|o| o.new_s).collect::<Vec<_>>()),
            median(&outs.iter().map(|o| o.run_s).collect::<Vec<_>>()),
        );
    }
    for p in &problems {
        println!("FAILED {p}");
    }
    println!(
        "failed_share={} ({} of {} cell executions)",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );

    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let metrics: Vec<layers::Metric> = if args.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let costs = match args.workload {
            Workload::HostTrace => layers::host_costs(),
            Workload::Runtime => {
                let streams = traced[0].streams.iter().map(|(_, n)| *n).max().unwrap_or(1);
                layers::ndp_costs(streams)
            }
        };
        let path = format!("{OUT_DIR}/spans-{}-seed{}.json", args.workload.name(), args.seed);
        match write_spans(&path, &log) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("spans not written to {path}: {e}"),
        }
        layers::metrics(&cells, &traced, &untraced, &costs, threads)
    } else {
        let run_s = measure::sum_of_cell_medians(&untraced, |c| c.run_s);
        let of_rounds = |f: fn(&Round) -> f64| untraced.iter().map(|r| f(r)).collect::<Vec<_>>();
        vec![
            ("wall_s".into(), measure::pass_wall_s(&untraced), "s"),
            ("setup_s".into(), median(&of_rounds(Round::setup_s)), "s"),
            ("sim_ops_per_s".into(), ratio(untraced[0].ops() as f64, run_s), "ops/s"),
            ("peak_rss_mb".into(), least(&of_rounds(|r| r.peak_rss_mb)), "MB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {} {unit}", json_num(*value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the recorded spans as one JSON array.
fn write_spans(path: &str, log: &SpanLog) -> std::io::Result<()> {
    let spans: Vec<String> = log
        .spans()
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"subject\":{},\"start_us\":{},\"end_us\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&s.name),
                json_str(&s.subject),
                json_num(s.start_us),
                json_num(s.end_us)
            )
        })
        .collect();
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", spans.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_with_defaults() {
        let a = parse_args(&argv("--workload runtime")).unwrap();
        assert_eq!(
            a,
            Args { workload: Workload::Runtime, seed: DEFAULT_SEED, seconds: 10, trace: false }
        );
        let a =
            parse_args(&argv("--workload host-trace --seed 0x10 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (16, 3, true));
    }

    #[test]
    fn bad_args_are_refused() {
        for bad in [
            "",
            "--workload hit",
            "--workload datapath",
            "--workload runtime --trace 2",
            "--workload runtime --seconds 0",
            "--workload",
            "--bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn tally_counts_panics_checks_and_digest_changes() {
        use measure::tests::{out, round};
        let cells = Workload::HostTrace.cells();
        let mut broken = out(1.0, 7);
        broken.problems.push("ops mismatch".into());
        let mut rounds = [
            round(vec![Ok(out(1.0, 7)), Ok(out(1.0, 8))]),
            round(vec![Ok(out(1.1, 7)), Err("boom".into())]),
            round(vec![Ok(out(1.0, 9)), Ok(out(1.0, 8))]),
            round(vec![Ok(broken), Ok(out(1.0, 8))]),
        ];
        // A repeat in a further pass is tallied like any execution.
        rounds[0].repeats.push(measure::Repeat { cell: 1, out: Ok(out(1.0, 6)), wall_s: 1.0 });
        let (t, problems) = tally(&cells, &rounds.iter().collect::<Vec<_>>());
        assert_eq!((t.attempted, t.failed), (9, 4), "{problems:?}");
        assert_eq!(t.failed_share(), 4.0 / 9.0);
        assert!(problems.iter().any(|p| p.contains("panicked: boom")));
        assert!(problems.iter().any(|p| p.contains("differs")));
        assert!(problems.iter().any(|p| p.contains("ops mismatch")));
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.1), "0.1");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
