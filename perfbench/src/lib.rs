//! `perfbench` — the end-to-end and per-layer benchmark of `benchkit`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the root of a checkout: it builds the release `benchkit`
//! binary there, derives every input from `--seed`, measures, checks the
//! program's outputs, and prints one JSON object as its last line. With
//! `--trace 0` that object holds the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of the traced run. See `perfbench/NOTES.md`.

pub mod inputs;
pub mod machine;
pub mod proc;
pub mod session;
pub mod stats;
pub mod trace;

use inputs::{Inputs, Workload};
use machine::{json_str, MachineState};
use session::{Ctx, Measured, Tally};
use stats::Samples;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: perfbench --workload <survey_grid|daemon_query> \
--seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was read from.
    pub n: usize,
    /// In the result line, and so bounded in `BENCHMARK.json`; otherwise
    /// only printed.
    pub gated: bool,
}

fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
        gated: true,
    }
}

fn need(name: &str, v: Option<f64>, unit: &'static str, s: &Samples) -> Result<Metric, String> {
    v.map(|v| metric(name, v, unit, s.len()))
        .ok_or_else(|| format!("{name}: too few samples ({})", s.len()))
}

/// The end-to-end metrics of a run. The tail percentiles are printed but
/// left out of the result line: a minute-long slow spell of the shared
/// host's disk moves them by 40% or more between runs of the same code,
/// past any bound the benchmark may set (see `perfbench/NOTES.md`).
fn e2e_metrics(m: &Measured) -> Result<Vec<Metric>, String> {
    let med = |name: &str, unit: &'static str, s: &Samples| need(name, s.median(), unit, s);
    let pct = |name: &str, p: f64, s: &Samples| {
        need(name, s.percentile(p), "ms", s).map(|m| Metric { gated: false, ..m })
    };
    let rss = &m.rss_kb;
    Ok(vec![
        med("survey_s", "s", &m.survey_s)?,
        med("survey_serial_s", "s", &m.survey_serial_s)?,
        med("survey_warm_s", "s", &m.survey_warm_s)?,
        med("ingest_records_per_s", "records/s", &m.ingest_rate)?,
        med("ingest_p50_ms", "ms", &m.ingest_ms)?,
        pct("ingest_p99_ms", 0.99, &m.ingest_ms)?,
        med("verdict_p50_ms", "ms", &m.verdict_ms)?,
        pct("verdict_p90_ms", 0.9, &m.verdict_ms)?,
        med("history_p50_ms", "ms", &m.history_ms)?,
        med("setup_s", "s", &m.setup_s)?,
        need("rss_mb", rss.max().map(|kb| kb / 1024.0), "MB", rss)?,
    ])
}

/// A note when separately measured records were byte-identical: the
/// daemon's content dedup then keeps one, so its verdict counts fewer
/// samples than the measurements made.
fn dedup_note(identical: u64) -> Vec<String> {
    if identical == 0 {
        return Vec::new();
    }
    vec![format!(
        "{identical} record(s) of the record set are byte-identical to another measured separately; \
         the daemon acknowledged them as duplicates"
    )]
}

/// The traced run: one survey round and one ingest round through the
/// binary for the counts the program prints, then the in-process replay,
/// alternately untraced and traced, for the per-layer metrics and the
/// tracing overhead.
fn traced(
    ctx: &Ctx,
    results: &Path,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let records = session::generate_records(ctx, tally)?;
    let mut m = Measured::default();
    session::survey_round(ctx, 0, &mut m, tally)?;
    let wal = session::ingest_round(ctx, 0, &records, &mut m, tally)?;

    // A discarded warm-up replay first, then pairs of an untraced and a
    // traced replay in alternating order. The overhead is the median of
    // the per-pair ratios, so host speed drifting between pairs cancels.
    let (mut plain, mut traced_s, mut ratios) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut last = None;
    // One kernel thread per cell, as in the single-threaded jobs-1 pass
    // the replay is set against.
    parkern::set_worker_cap(1);
    let warmup = ctx.scratch.join("replay-warmup");
    trace::replay(
        &mut trace::Recorder::new(false),
        ctx,
        &records,
        &wal.dir,
        &warmup,
    )?;
    for i in 0..OVERHEAD_PAIRS {
        let order = if i % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut pair = [0.0; 2];
        for enabled in order {
            let mut rec = trace::Recorder::new(enabled);
            let dir = ctx.scratch.join(format!("replay{i}-{enabled}"));
            let start = std::time::Instant::now();
            let out = trace::replay(&mut rec, ctx, &records, &wal.dir, &dir)?;
            let wall = start.elapsed().as_secs_f64();
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            pair[usize::from(enabled)] = wall;
            if enabled {
                traced_s.push(wall);
                last = Some((rec, out));
            } else {
                plain.push(wall);
            }
        }
        ratios.push(pair[1] / pair[0]);
    }
    let (rec, out) = last.expect("two traced replays ran");
    let workers = machine::nproc();
    let gbps = trace::triad_gbps(workers);
    let span_ns = trace::span_cost_ns();
    let spans_path = results.join(format!(
        "{}-seed{}-spans.jsonl",
        ctx.inputs.workload.name(),
        ctx.inputs.seed
    ));
    rec.write_jsonl(&spans_path)?;

    let plain_s = plain.median().expect("replays ran");
    let overhead_pct = (ratios.median().expect("replays ran") - 1.0) * 100.0;
    let ms = |name: &str| rec.total(name).0;
    let calls = |name: &str| rec.total(name).1 as f64;
    let socket_p50 = m.ingest_ms.median().ok_or("no ingest samples")?;
    let inproc_p50 = out.batch_cost_ms.median().ok_or("no batches")?;
    let (hits, misses, persisted) = m.store;
    let mut metrics = Vec::new();
    for (span, with_calls) in SPAN_TOTALS {
        let (total_ms, n) = rec.total(span);
        metrics.push(metric(&format!("{span}.ms"), total_ms, "ms", n as usize));
        if with_calls {
            metrics.push(metric(&format!("{span}.calls"), n as f64, "count", 1));
        }
    }
    let read_request = &out.read_request_ms;
    metrics.extend([
        metric(
            "benchapps.hpcg.cg_iterations",
            out.cg_iterations as f64,
            "count",
            1,
        ),
        metric("parkern.triad.gbps_computed", gbps, "GB/s", 20),
        metric(
            "harness.cell_max.ms",
            out.cell_max_ms,
            "ms",
            out.cells as usize,
        ),
        metric("spackle.store_hits", hits as f64, "count", 1),
        metric("spackle.store_misses", misses as f64, "count", 1),
        metric("spackle.store_persisted", persisted as f64, "count", 1),
        metric("perflogs.bytes", out.perflog_bytes as f64, "bytes", 1),
        need(
            "servd.read_request.ms",
            read_request.median(),
            "ms",
            read_request,
        )?,
        metric(
            "servd.wait.ms",
            socket_p50 - inproc_p50,
            "ms",
            m.ingest_ms.len(),
        ),
        metric("servd.ingest_acked", m.acked as f64, "count", 1),
        metric("servd.ingest_duplicates", m.duplicates as f64, "count", 1),
        metric("servd.rejected_503", m.rejected_503 as f64, "count", 1),
    ]);
    let layers = rec.self_ms_by_layer();
    for layer in LAYERS {
        let v = layers.get(layer).copied().unwrap_or(0.0);
        metrics.push(metric(&format!("self_ms.{layer}"), v, "ms", 1));
    }
    metrics.push(metric(
        "trace.overhead_pct",
        overhead_pct,
        "%",
        OVERHEAD_PAIRS,
    ));

    // How far the traced layers account for the blocking steps.
    let harness_ms = ms("harness.prepare_build") + ms("harness.run_prepared");
    let direct_ms = DIRECT_CALLS.iter().map(|n| ms(n)).sum::<f64>() - out.probe_ms;
    let (serial_s, par_s) = m.first_round_s;
    let mut notes = vec![
        format!(
            "survey: harness prepare+run {harness_ms:.1} ms in process = {:.0}% of the jobs-1 \
             subprocess survey ({:.1} ms; jobs-{} {:.1} ms); the layers under it called directly \
             sum to {direct_ms:.1} ms = {:.0}% of the harness",
            100.0 * harness_ms / (serial_s * 1e3),
            serial_s * 1e3,
            inputs::JOBS,
            par_s * 1e3,
            100.0 * direct_ms / harness_ms
        ),
        format!(
            "ingest: socket p50 {socket_p50:.3} ms = in-process cost p50 {inproc_p50:.3} ms \
             (read_request, parse, dedup key, {} WAL appends in all) + wait {:.3} ms",
            calls("servd.wal_append"),
            socket_p50 - inproc_p50
        ),
        format!(
            "tracing overhead: median replay {:.1} ms untraced vs {:.1} ms traced; \
             median per-pair ratio {overhead_pct:+.1}% over {OVERHEAD_PAIRS} pairs",
            plain_s * 1e3,
            traced_s.median().expect("replays ran") * 1e3
        ),
        format!(
            "span cost: {span_ns:.0} ns each × {} spans = {:.2} ms, {:.2}% of the traced replay",
            rec.spans().len(),
            span_ns * rec.spans().len() as f64 / 1e6,
            span_ns * rec.spans().len() as f64 / 1e7 / traced_s.median().expect("replays ran")
        ),
        format!(
            "triad: pool backend, {workers} workers, {} f64 per array",
            trace::TRIAD_LEN
        ),
        format!(
            "spans: {} written to {}",
            rec.spans().len(),
            spans_path.display()
        ),
    ];
    notes.extend(dedup_note(records.identical_records()));
    let mut ranked: Vec<(&String, &f64)> = layers.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(a.1));
    notes.push(format!(
        "self time by layer: {}",
        ranked
            .iter()
            .map(|(l, v)| format!("{l} {v:.1} ms"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok((metrics, notes))
}

/// Spans reported as `<span>.ms` totals, and as `<span>.calls` where
/// marked.
const SPAN_TOTALS: [(&str, bool); 20] = [
    ("benchapps.babelstream", false),
    ("benchapps.hpcg", false),
    ("benchapps.hpgmg", false),
    ("benchapps.stream", false),
    ("harness.prepare_build", true),
    ("harness.run_prepared", true),
    ("harness.walog_append", true),
    ("spackle.concretize", true),
    ("spackle.install", false),
    ("spackle.diskstore_open", false),
    ("spackle.diskstore_persist", true),
    ("batchsim.submit", true),
    ("rexpr.captures", true),
    ("perflogs.to_json_line", false),
    ("perflogs.from_json_line", false),
    ("postproc.assimilate", false),
    ("postproc.rank_frame", false),
    ("postproc.history", false),
    ("servd.wal_open", false),
    ("servd.wal_append", true),
];

/// The spans of the layers under the harness, which together should
/// account for the harness's own prepare and run time.
const DIRECT_CALLS: [&str; 8] = [
    "spackle.concretize",
    "spackle.install",
    "batchsim.submit",
    "rexpr.captures",
    "benchapps.babelstream",
    "benchapps.hpcg",
    "benchapps.hpgmg",
    "benchapps.stream",
];

/// Untraced/traced replay pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 4;

/// Crates the traced run reports self time for. `parkern` runs inside
/// `benchapps`, so its time is counted there.
const LAYERS: [&str; 8] = [
    "benchapps",
    "harness",
    "spackle",
    "batchsim",
    "rexpr",
    "perflogs",
    "postproc",
    "servd",
];

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn results_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

/// Run the benchmark; returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    match run_args(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn run_args(args: &Args) -> Result<i32, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(format!("{} is not a benchkit checkout", root.display()));
    }
    let bin = proc::ensure_benchkit(&root)?;
    proc::sync_disks();
    let state = root.join(".perfbench");
    let results = state.join("results");
    let scratch = state.join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    for d in [&results, &scratch] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let ctx = Ctx {
        bin,
        scratch: scratch.clone(),
        inputs: Inputs::new(args.workload, args.seed),
        plan: args.workload.plan(),
        seconds: args.seconds,
    };
    let before = MachineState::read();
    let mut tally = Tally::default();
    let mut raw = String::from("{}");
    let outcome = if args.trace {
        traced(&ctx, &results, &mut tally)
    } else {
        session::run_e2e(&ctx, &mut tally).and_then(|m| {
            raw = m.raw_json();
            let [survey, ingest, query] = m.phase_s;
            let mut notes = vec![format!(
                "time: survey rounds {survey:.1} s, ingest rounds {ingest:.1} s, \
                 query bursts {query:.1} s"
            )];
            notes.extend(dedup_note(m.identical_records));
            Ok((e2e_metrics(&m)?, notes))
        })
    };
    let cleanup = std::fs::remove_dir_all(&scratch);
    let (metrics, notes) = outcome?;
    cleanup.map_err(|e| format!("removing {}: {e}", scratch.display()))?;
    let after = MachineState::read();
    let machine = machine::render(&before, &after);
    report(args, &tally, &metrics, &notes, &machine, &raw, &results)
}

fn report(
    args: &Args,
    tally: &Tally,
    metrics: &[Metric],
    notes: &[String],
    machine: &str,
    raw: &str,
    results: &Path,
) -> Result<i32, String> {
    let correct = tally.problems.is_empty() && tally.failed == 0;
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine {machine}");
    for m in metrics {
        let shown = if m.gated { "" } else { "  (printed only)" };
        println!(
            "{:<34} {:>14.6} {:<9} n={}{shown}",
            m.name, m.value, m.unit, m.n
        );
    }
    for n in notes {
        println!("note: {n}");
    }
    for p in &tally.problems {
        println!("FAILED CHECK: {p}");
    }
    let line = results_json(correct, tally, metrics);
    let list = |v: &[String]| v.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(",");
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{machine},\"samples\":{{{}}},\"raw\":{raw},\"notes\":[{}],\"failed_checks\":[{}],\"result\":{line}}}\n",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        metrics
            .iter()
            .map(|m| format!("{}:{}", json_str(&m.name), m.n))
            .collect::<Vec<_>>()
            .join(","),
        list(notes),
        list(&tally.problems)
    );
    let path: PathBuf = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}
