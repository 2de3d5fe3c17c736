//! `txnbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the run's provenance, the self-time table of a traced run, and
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced). Exits
//! non-zero, with `correct: false`, when an audit fails.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locus_harness::Cluster;
use txnbench::audit::audit_with_crash;
use txnbench::gen::Generator;
use txnbench::report::{end_to_end, median_f64, per_layer, provenance, result_line, rss_kb};
use txnbench::run::{measure, CLIENTS};
use txnbench::trace::{install, write_spans, SelfTimes, Tracer};
use txnbench::workload::{build, teardown, BenchResult, Kind, Ledger, Spec};

const USAGE: &str = "usage: txnbench --workload <transfer_2pc|update_local|scan_read_mostly> --seed <n> --seconds <n> --trace <0|1>";
/// An untraced run sets up at least this many times, and keeps setting up
/// until [`SETUP_BUDGET`] has passed; `setup_s` is the median.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 500;
const SETUP_BUDGET: Duration = Duration::from_secs(4);
/// Closed-loop warm-up before the first window.
const WARMUP: Duration = Duration::from_secs(1);
/// Warm-up of the traced window's fresh clients.
const TRACED_WARMUP: Duration = Duration::from_millis(250);
/// Transactions whose spans the traced run writes out (the table covers
/// all of them).
const SPAN_FILE_TXNS: usize = 500;
/// Where spans and result records are written, inside the checkout.
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                val.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {val}"))
            };
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?.max(1)),
                "--trace" => match val.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("txnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("txnbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sets the workload up and returns the cluster to run on, every set-up
/// time, and the resident set right after the first set-up. With `repeat`
/// it sets up at least [`MIN_SETUPS`] times and until [`SETUP_BUDGET`] has
/// passed, tearing down all but the last cluster, so every run starts from
/// the same history.
fn set_up(spec: &Spec, repeat: bool) -> BenchResult<(Cluster, Vec<f64>, u64)> {
    let budget = Instant::now();
    let mut times = Vec::new();
    let mut rss = 0;
    loop {
        let t0 = Instant::now();
        let cluster = build(spec)?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == 1 {
            rss = rss_kb();
        }
        let more = repeat
            && times.len() < MAX_SETUPS
            && (times.len() < MIN_SETUPS || budget.elapsed() < SETUP_BUDGET);
        if !more {
            return Ok((cluster, times, rss));
        }
        teardown(cluster);
    }
}

fn run(args: &Args) -> BenchResult<ExitCode> {
    let name = args.kind.name();
    let spec = args.kind.spec();
    let (cluster, setup_s, setup_rss_kb) = set_up(&spec, !args.trace)?;
    let mut gens: Vec<Generator> = (0..CLIENTS)
        .map(|c| Generator::new(args.kind, args.seed, c as u64))
        .collect();
    let mut ledgers = vec![Ledger::new(&spec); CLIENTS];
    let span = Duration::from_secs(args.seconds);

    let (metrics, attempted, failed, table, steal) = if args.trace {
        // Half the time untraced, then the same cluster with every wrapper
        // installed: the pair gives the tracing overhead.
        let plain = measure(
            &cluster,
            &spec,
            &mut gens,
            &mut ledgers,
            WARMUP,
            span / 2,
            None,
        )?;
        let tracer = Arc::new(Tracer::default());
        install(&cluster, &tracer);
        let traced = measure(
            &cluster,
            &spec,
            &mut gens,
            &mut ledgers,
            TRACED_WARMUP,
            span / 2,
            Some(&tracer),
        )?;
        let spans = tracer.take_spans();
        let times = SelfTimes::of(&spans);
        let path = Path::new(OUT_DIR).join(format!("spans-{name}.tsv"));
        if let Err(e) = write_spans(&path, &spans, SPAN_FILE_TXNS) {
            eprintln!("txnbench: could not write {}: {e}", path.display());
        }
        let metrics = per_layer(&plain, &traced, &times, &tracer.wire);
        let mut table = times.table(name);
        for m in metrics.iter().filter(|m| m.name.starts_with("trace.")) {
            table += &format!("{} = {:.4} {}\n", m.name, m.value, m.unit);
        }
        (
            metrics,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            Some(table),
            median_f64(plain.slice_steal.clone()),
        )
    } else {
        let w = measure(&cluster, &spec, &mut gens, &mut ledgers, WARMUP, span, None)?;
        (
            end_to_end(&setup_s, setup_rss_kb, &w),
            w.attempted,
            w.failed,
            None,
            median_f64(w.slice_steal.clone()),
        )
    };

    let mut ledger = Ledger::new(&spec);
    for l in &ledgers {
        ledger.merge(l);
    }
    let audit = audit_with_crash(&cluster, &spec, &ledger);
    let prov = provenance(name, args.seed, args.seconds, args.trace, steal);
    println!("# provenance {prov}");
    if let Some(t) = table {
        for line in t.lines() {
            println!("# {line}");
        }
    }
    let (line, code) = match audit {
        Ok(()) => (
            result_line(true, attempted, failed, &metrics),
            ExitCode::SUCCESS,
        ),
        Err(e) => {
            eprintln!("txnbench: {e}");
            (
                result_line(false, attempted, failed, &[]),
                ExitCode::FAILURE,
            )
        }
    };
    let record = Path::new(OUT_DIR).join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let saved = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            &record,
            format!("{{\"provenance\": {prov}, \"result\": {line}}}\n"),
        )
    });
    if let Err(e) = saved {
        eprintln!("txnbench: could not write {}: {e}", record.display());
    }
    println!("{line}");
    Ok(code)
}
