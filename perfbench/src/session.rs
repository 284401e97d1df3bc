//! The end-to-end run: the `benchkit` binary surveyed as a subprocess and
//! `benchkit serve` driven over loopback TCP, with every output checked.
//!
//! Every run reports every end-to-end metric, so every workload runs the
//! same cycle on its own inputs, repeating it until each metric has its
//! samples and `--seconds` have passed. Spreading each metric's samples
//! over the whole run keeps a few seconds of host noise from moving a
//! median. One cycle is:
//!
//! 1. a survey round — jobs-1 (single-threaded) and jobs-2 store-free
//!    passes, then a cold and a warm `--store` pass with `--checkpoint`
//!    and `--perflog`;
//! 2. an ingest round — a fresh daemon, two closed-loop pushers sending
//!    one perflog file per request, then a restart over the WAL just
//!    written;
//! 3. a query burst — the daemon restarted over that WAL, one reader
//!    alternating `/v1/verdict` and `/v1/history` beside a writer pushing
//!    one held-back batch per verdict.

use crate::inputs::{Inputs, Plan, GRID_CASES, JOBS, SYSTEMS};
use crate::proc::{run, sync_disks, Daemon, Finished};
use crate::stats::Samples;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// The jobs-1 pass is the plain single-threaded baseline: one kernel
/// thread, as each of the jobs-2 passes' cells gets.
pub const SINGLE_THREADED: &[(&str, &str)] = &[("BENCHKIT_THREADS", "1")];

/// Survey rounds per run.
pub const MIN_ROUNDS: usize = 10;
/// Ingest requests per run: ten beyond the p99.
pub const MIN_INGEST: usize = 1000;
/// Verdicts per run: ten beyond the p90.
pub const MIN_VERDICTS: usize = 100;
/// Verdict-history pairs per query burst.
pub const BURST_PAIRS: usize = 10;
/// A run stops starting cycles after this, so it ends well inside 180 s.
const RUN_CAP: Duration = Duration::from_secs(90);

/// Operations and checks attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation or check; record why when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok));
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Everything a run shares.
pub struct Ctx {
    pub bin: PathBuf,
    pub scratch: PathBuf,
    pub inputs: Inputs,
    pub plan: Plan,
    pub seconds: f64,
}

fn survey_args(cases: &[&str], seed: u64, jobs: usize, extra: &[&str]) -> Vec<String> {
    let mut args = vec!["survey".to_string()];
    for c in cases {
        args.extend(["-c".to_string(), c.to_string()]);
    }
    for s in SYSTEMS {
        args.extend(["--system".to_string(), s.to_string()]);
    }
    args.extend(["--seed".to_string(), seed.to_string()]);
    args.extend(["--jobs".to_string(), jobs.to_string()]);
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// `(ran, skipped, failed)` from the survey summary line.
fn cell_counts(stdout: &str) -> Option<(u64, u64, u64)> {
    let line = stdout.lines().find(|l| l.starts_with("ran "))?;
    let w: Vec<&str> = line.split_whitespace().collect();
    match w.as_slice() {
        ["ran", r, "skipped", s, "failed", f, ..] => {
            Some((r.parse().ok()?, s.parse().ok()?, f.parse().ok()?))
        }
        _ => None,
    }
}

/// The FOM table of a survey report: from its header to the line naming
/// the perflog directory, which differs between passes.
fn fom_table(stdout: &str) -> String {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("sequence "))
        .take_while(|l| !l.starts_with("perflogs: "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `(hits, misses, persisted)` from the `store:` accounting line.
fn store_counts(stdout: &str) -> Option<(u64, u64, u64)> {
    let line = stdout.lines().find(|l| l.starts_with("store: "))?;
    let num = |label: &str| -> Option<u64> {
        line.split(", ")
            .find_map(|p| p.trim_start_matches("store: ").strip_suffix(label))
            .and_then(|n| n.trim().parse().ok())
    };
    Some((num(" hits")?, num(" misses")?, num(" persisted")?))
}

/// Run one survey, counting its cells against attempts. Deterministic
/// concretization skips are not failures.
fn survey(
    ctx: &Ctx,
    args: &[String],
    env: &[(&str, &str)],
    tally: &mut Tally,
) -> Result<Finished, String> {
    let fin = run(&ctx.bin, args, env, &ctx.scratch)?;
    match cell_counts(&fin.stdout) {
        Some((ran, skipped, failed)) => tally.count(ran + skipped + failed, failed),
        None => tally.check(false, || "survey printed no summary line".into()),
    }
    tally.check(fin.code == 0, || {
        format!("survey exited {}: {}", fin.code, fin.stderr.trim())
    });
    Ok(fin)
}

fn jsonl_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    Ok(files)
}

/// Check that every FOM of every perflog record in `dir` is finite and
/// positive.
fn check_foms(dir: &Path, tally: &mut Tally) -> Result<(), String> {
    for file in jsonl_files(dir)? {
        let text = std::fs::read_to_string(&file).map_err(|e| e.to_string())?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match perflogs::PerflogRecord::from_json_line(line) {
                Ok(r) => {
                    let bad: Vec<String> = r
                        .foms
                        .iter()
                        .filter(|f| !(f.value.is_finite() && f.value > 0.0))
                        .map(|f| format!("{}={}", f.name, f.value))
                        .collect();
                    tally.check(bad.is_empty(), || {
                        format!("{} on {}: bad FOMs {bad:?}", r.benchmark, r.system)
                    });
                }
                Err(e) => tally.check(false, || format!("{}: {e}", file.display())),
            }
        }
    }
    Ok(())
}

/// One perflog file, pushed as one ingest request.
#[derive(Debug, Clone)]
pub struct Batch {
    pub path: PathBuf,
    pub body: Vec<u8>,
    pub records: u64,
}

fn load_batches(files: Vec<PathBuf>) -> Result<Vec<Batch>, String> {
    files
        .into_iter()
        .map(|path| {
            let body = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let records = body
                .split(|&b| b == b'\n')
                .filter(|l| !l.iter().all(u8::is_ascii_whitespace))
                .count() as u64;
            Ok(Batch {
                path,
                body,
                records,
            })
        })
        .collect()
}

/// The daemon's inputs: perflogs of real grid surveys.
pub struct RecordSet {
    /// Pushed by every ingest round, in seeded order.
    pub wal: Vec<Batch>,
    /// Held back for the query window's writer.
    pub trickle: Vec<Batch>,
    /// `(benchmark, system, fom)` triples the reader asks history for.
    pub triples: Vec<[String; 3]>,
    /// Distinct records of the WAL batches by the daemon's dedup key, the
    /// canonical line. Surveys at different seeds can write an identical
    /// record, and the daemon then keeps one.
    pub wal_distinct: u64,
}

impl RecordSet {
    /// WAL records byte-identical to another one although measured
    /// separately.
    pub fn identical_records(&self) -> u64 {
        self.wal.iter().map(|b| b.records).sum::<u64>() - self.wal_distinct
    }
}

/// Run the record-generating grid surveys (`--perflog`) at the seeds the
/// inputs derive, and load their perflogs as batches.
pub fn generate_records(ctx: &Ctx, tally: &mut Tally) -> Result<RecordSet, String> {
    let root = ctx.scratch.join("records");
    let mut wal_files = Vec::new();
    let mut trickle_files = Vec::new();
    for (i, seed) in ctx.inputs.record_seeds().into_iter().enumerate() {
        let dir = root.join(format!("s{i:02}"));
        let dir_s = dir.to_string_lossy().into_owned();
        let args = survey_args(&GRID_CASES, seed, JOBS, &["--perflog", &dir_s]);
        survey(ctx, &args, &[], tally)?;
        check_foms(&dir, tally)?;
        let files = jsonl_files(&dir)?;
        if i < ctx.plan.wal_surveys {
            wal_files.extend(files);
        } else {
            trickle_files.extend(files);
        }
    }
    let wal = load_batches(ctx.inputs.batch_order(wal_files))?;
    let trickle = load_batches(ctx.inputs.batch_order(trickle_files))?;
    let mut triples = Vec::new();
    for b in &wal {
        for line in String::from_utf8_lossy(&b.body).lines() {
            if let Ok(r) = perflogs::PerflogRecord::from_json_line(line) {
                for f in &r.foms {
                    triples.push([r.benchmark.clone(), r.system.clone(), f.name.clone()]);
                }
            }
        }
    }
    let triples = ctx.inputs.history_order(triples);
    if triples.is_empty() {
        return Err("record generation produced no FOMs".into());
    }
    let mut keys = std::collections::BTreeSet::new();
    for b in &wal {
        for line in String::from_utf8_lossy(&b.body).lines() {
            if let Ok(r) = perflogs::PerflogRecord::from_json_line(line) {
                keys.insert(r.to_json_line());
            }
        }
    }
    Ok(RecordSet {
        wal,
        trickle,
        triples,
        wal_distinct: keys.len() as u64,
    })
}

/// Samples and counts of one run.
#[derive(Debug, Default)]
pub struct Measured {
    pub survey_s: Samples,
    pub survey_serial_s: Samples,
    pub survey_warm_s: Samples,
    pub ingest_rate: Samples,
    pub ingest_ms: Samples,
    pub verdict_ms: Samples,
    pub history_ms: Samples,
    pub setup_s: Samples,
    /// Peak resident set of every `benchkit` process the run started.
    pub rss_kb: Samples,
    /// `(hits, misses, persisted)` of the first round's cold and warm
    /// passes, summed.
    pub store: (u64, u64, u64),
    pub acked: u64,
    pub duplicates: u64,
    pub rejected_503: u64,
    /// Records of the record set byte-identical to another one although
    /// measured separately; the daemon's content dedup drops all but one.
    pub identical_records: u64,
    /// Wall time of the first round's passes: serial, jobs-2 store-free.
    pub first_round_s: (f64, f64),
    /// Wall time spent in survey rounds, ingest rounds and query bursts.
    pub phase_s: [f64; 3],
}

impl Measured {
    /// Every timing sample of the run, for the results record.
    pub fn raw_json(&self) -> String {
        let series = [
            ("survey_s", &self.survey_s),
            ("survey_serial_s", &self.survey_serial_s),
            ("survey_warm_s", &self.survey_warm_s),
            ("ingest_records_per_s", &self.ingest_rate),
            ("ingest_ms", &self.ingest_ms),
            ("verdict_ms", &self.verdict_ms),
            ("history_ms", &self.history_ms),
            ("setup_s", &self.setup_s),
        ];
        let body: Vec<String> = series
            .iter()
            .map(|(name, s)| {
                let v: Vec<String> = s.0.iter().map(|x| x.to_string()).collect();
                format!("\"{name}\":[{}]", v.join(","))
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One survey round: jobs 1, jobs 2, then a cold and a warm `--store`
/// pass, with the checks the reports must pass.
pub fn survey_round(
    ctx: &Ctx,
    round: usize,
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let seed = ctx.inputs.survey_seed(round);
    let cases = ctx.plan.cases;
    // Write back what the previous phase left dirty, so that the store
    // passes' fsyncs wait only for their own data.
    sync_disks();
    let dir = ctx.scratch.join(format!("round{round}"));
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (store, ck_cold, ck_warm, pl_cold, pl_warm) = (
        p("store"),
        p("ck-cold"),
        p("ck-warm"),
        p("pl-cold"),
        p("pl-warm"),
    );
    let serial = survey(
        ctx,
        &survey_args(cases, seed, 1, &[]),
        SINGLE_THREADED,
        tally,
    )?;
    let par = survey(ctx, &survey_args(cases, seed, JOBS, &[]), &[], tally)?;
    let cold_args = [
        "--store",
        &store,
        "--checkpoint",
        &ck_cold,
        "--perflog",
        &pl_cold,
    ];
    let cold = survey(ctx, &survey_args(cases, seed, JOBS, &cold_args), &[], tally)?;
    let warm_args = [
        "--store",
        &store,
        "--checkpoint",
        &ck_warm,
        "--perflog",
        &pl_warm,
    ];
    let warm = survey(ctx, &survey_args(cases, seed, JOBS, &warm_args), &[], tally)?;
    let fsck = run(
        &ctx.bin,
        &["store".into(), "fsck".into(), store.clone()],
        &[],
        &ctx.scratch,
    )?;

    tally.check(serial.stdout == par.stdout, || {
        format!("round {round}: jobs-1 and jobs-{JOBS} reports differ")
    });
    let table = fom_table(&serial.stdout);
    tally.check(!table.is_empty(), || format!("round {round}: no FOM table"));
    for (name, pass) in [("cold", &cold), ("warm", &warm)] {
        tally.check(fom_table(&pass.stdout) == table, || {
            format!("round {round}: {name} --store FOM table differs from the store-free one")
        });
    }
    tally.check(fsck.code == 0, || {
        format!(
            "round {round}: store fsck exited {}: {}",
            fsck.code,
            fsck.stdout.trim()
        )
    });
    check_foms(Path::new(&pl_cold), tally)?;
    let (Some(c), Some(w)) = (store_counts(&cold.stdout), store_counts(&warm.stdout)) else {
        return Err(format!("round {round}: no store: line"));
    };
    tally.check(w.0 > 0 && w.1 == 0 && c.0 == 0, || {
        format!("round {round}: store not warm on the second pass: cold {c:?}, warm {w:?}")
    });

    m.survey_serial_s.push(serial.wall_s);
    m.survey_s.push(par.wall_s);
    m.survey_warm_s.push(warm.wall_s);
    for f in [&serial, &par, &cold, &warm] {
        m.rss_kb.push(f.maxrss_kb as f64);
    }
    if round == 0 {
        m.store = (c.0 + w.0, c.1 + w.1, c.2 + w.2);
        m.first_round_s = (serial.wall_s, par.wall_s);
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(())
}

/// `(acked, duplicates)` from an ingest answer.
fn parse_ack(body: &str) -> Option<(u64, u64)> {
    let num = |key: &str| -> Option<u64> {
        let rest = &body[body.find(key)? + key.len()..];
        rest[..rest.find(|c: char| !c.is_ascii_digit())?]
            .parse()
            .ok()
    };
    Some((num("\"acked\":")?, num("\"duplicates\":")?))
}

/// Outcome of pushes from one client thread.
#[derive(Debug, Default)]
struct PushTally {
    lat_ms: Samples,
    acked: u64,
    duplicates: u64,
    sent: u64,
    requests: u64,
    failed: u64,
    rejected_503: u64,
    problems: Vec<String>,
}

impl PushTally {
    fn merge(&mut self, o: PushTally) {
        self.lat_ms.extend(&o.lat_ms);
        self.acked += o.acked;
        self.duplicates += o.duplicates;
        self.sent += o.sent;
        self.requests += o.requests;
        self.failed += o.failed;
        self.rejected_503 += o.rejected_503;
        self.problems.extend(o.problems);
    }

    /// Count the pushes against attempts and add them to the run.
    fn record(self, m: &mut Measured, tally: &mut Tally) {
        tally.count(self.requests, self.failed);
        tally.problems.extend(self.problems);
        tally.check(self.acked + self.duplicates == self.sent, || {
            format!(
                "acked {} + duplicates {} != {} records sent",
                self.acked, self.duplicates, self.sent
            )
        });
        m.acked += self.acked;
        m.duplicates += self.duplicates;
        m.rejected_503 += self.rejected_503;
        m.ingest_ms.extend(&self.lat_ms);
    }
}

/// `POST /v1/ingest` one batch over a fresh connection, as `benchkit
/// push` does. Any non-2xx answer or transport error is a failure.
fn push_one(addr: &str, batch: &Batch, t: &mut PushTally) {
    let start = Instant::now();
    let resp = servd::client::http_post(addr, "/v1/ingest", &batch.body);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    t.requests += 1;
    t.sent += batch.records;
    match resp {
        Ok(r) if r.status == 200 => {
            t.lat_ms.push(ms);
            match parse_ack(&r.body_text()) {
                Some((a, d)) => {
                    t.acked += a;
                    t.duplicates += d;
                }
                None => {
                    t.failed += 1;
                    t.problems
                        .push(format!("unparsable ingest answer: {}", r.body_text()));
                }
            }
        }
        Ok(r) => {
            t.failed += 1;
            if r.status == 503 {
                t.rejected_503 += 1;
            }
            t.problems.push(format!(
                "ingest of {} answered {}",
                batch.path.display(),
                r.status
            ));
        }
        Err(e) => {
            t.failed += 1;
            t.problems
                .push(format!("ingest of {}: {e}", batch.path.display()));
        }
    }
}

fn get(addr: &str, path: &str, lat: &mut Samples, tally: &mut Tally) -> Option<String> {
    let start = Instant::now();
    let resp = servd::client::http_get(addr, path);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match resp {
        Ok(r) if r.status == 200 => {
            tally.count(1, 0);
            lat.push(ms);
            Some(r.body_text())
        }
        Ok(r) => {
            tally.check(false, || {
                format!("GET {path} answered {}: {}", r.status, r.body_text())
            });
            None
        }
        Err(e) => {
            tally.check(false, || format!("GET {path}: {e}"));
            None
        }
    }
}

fn wal_lines(dir: &Path) -> u64 {
    std::fs::read_to_string(dir.join("servd").join("wal.jsonl"))
        .map(|t| t.lines().filter(|l| !l.trim().is_empty()).count() as u64)
        .unwrap_or(0)
}

/// Stop a daemon, checking its drain and collecting its peak RSS.
fn stop(d: Daemon, m: &mut Measured, tally: &mut Tally) -> Result<Option<u64>, String> {
    let exit = d.stop()?;
    tally.check(exit.code == 0, || {
        format!("serve exited {} after SIGTERM", exit.code)
    });
    m.rss_kb.push(exit.maxrss_kb as f64);
    Ok(exit.durable)
}

/// Restart the daemon over `dir`, timing set-up and checking that it
/// recovered exactly the records in the WAL.
fn restart(
    ctx: &Ctx,
    dir: &Path,
    expect: u64,
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<Daemon, String> {
    let d = Daemon::start(&ctx.bin, dir, &ctx.scratch.join("serve.log"))?;
    m.setup_s.push(d.setup_s);
    let lines = wal_lines(dir);
    tally.check(d.recovered == expect && lines == expect, || {
        format!(
            "restart recovered {} records; WAL holds {lines}, {expect} acked",
            d.recovered
        )
    });
    Ok(d)
}

/// The daemon verdict must be byte-identical to offline `benchkit rank`
/// over the pushed perflogs. Records byte-identical to an earlier one are
/// left out of the offline input, since the daemon's content dedup keeps
/// one of them; how many there were is reported on its own
/// (`Measured::identical_records`).
fn check_verdict(
    ctx: &Ctx,
    verdict: &str,
    batches: &[&Batch],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut jsonl = String::new();
    for b in batches {
        for line in String::from_utf8_lossy(&b.body).lines() {
            let key = perflogs::PerflogRecord::from_json_line(line)
                .map_err(|e| format!("{}: {e}", b.path.display()))?
                .to_json_line();
            if seen.insert(key) {
                jsonl.push_str(line);
                jsonl.push('\n');
            }
        }
    }
    let input = ctx.scratch.join("pushed.jsonl");
    std::fs::write(&input, jsonl).map_err(|e| format!("{}: {e}", input.display()))?;
    let args = ["rank".to_string(), input.to_string_lossy().into_owned()];
    let offline = run(&ctx.bin, &args, &[], &ctx.scratch)?;
    tally.check(offline.code == 0 && offline.stdout == verdict, || {
        "/v1/verdict differs from offline `benchkit rank` over the same perflogs".to_string()
    });
    Ok(())
}

/// A daemon store directory holding the WAL of one ingest round.
pub struct WalDir {
    pub dir: PathBuf,
    /// Records the directory's WAL holds.
    pub records: u64,
    /// Held-back batches already pushed into it.
    pub trickled: usize,
}

/// One ingest round on a fresh store directory: two closed-loop pushers
/// send every WAL batch once, then the daemon is restarted over the WAL.
pub fn ingest_round(
    ctx: &Ctx,
    round: usize,
    records: &RecordSet,
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<WalDir, String> {
    let dir = ctx.scratch.join(format!("daemon{round}"));
    // As for a survey round: the WAL's fsyncs wait only for their own data.
    sync_disks();
    let d = Daemon::start(&ctx.bin, &dir, &ctx.scratch.join("serve.log"))?;
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut pushed = PushTally::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..JOBS)
            .map(|_| {
                s.spawn(|| {
                    let mut t = PushTally::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(b) = records.wal.get(i) else { break };
                        push_one(&d.addr, b, &mut t);
                    }
                    t
                })
            })
            .collect();
        for w in workers {
            pushed.merge(w.join().expect("pusher thread panicked"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    m.ingest_rate
        .push((pushed.acked + pushed.duplicates) as f64 / elapsed);
    let acked = pushed.acked;
    pushed.record(m, tally);
    let durable = stop(d, m, tally)?;
    tally.check(durable == Some(acked), || {
        format!("drained daemon reports {durable:?} durable records, {acked} acked")
    });
    let distinct = records.wal_distinct;
    tally.check(acked == distinct, || {
        format!("fresh daemon acked {acked} of {distinct} distinct records")
    });
    let d = restart(ctx, &dir, acked, m, tally)?;
    stop(d, m, tally)?;
    Ok(WalDir {
        dir,
        records: acked,
        trickled: 0,
    })
}

/// One query burst over the daemon restarted on `wal`: a reader makes
/// [`BURST_PAIRS`] verdict-history pairs while a writer pushes one
/// held-back batch per verdict. Ends by checking the verdict against
/// offline `rank`.
pub fn query_burst(
    ctx: &Ctx,
    wal: &mut WalDir,
    records: &RecordSet,
    m: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let d = restart(ctx, &wal.dir, wal.records, m, tally)?;
    let done = AtomicBool::new(false);
    let (tick, ticks) = channel::<()>();
    let mut reads = Tally::default();
    let (mut verdict_ms, mut history_ms) = (Samples::default(), Samples::default());
    let first = wal.trickled;
    let (written, trickled) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut t = PushTally::default();
            let mut n = first;
            for () in ticks {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let Some(b) = records.trickle.get(n) else {
                    break;
                };
                push_one(&d.addr, b, &mut t);
                n += 1;
            }
            (t, n)
        });
        for i in 0..BURST_PAIRS {
            get(&d.addr, "/v1/verdict", &mut verdict_ms, &mut reads);
            let _ = tick.send(());
            let k = (m.history_ms.len() + i) % records.triples.len();
            let [b, sys, fom] = &records.triples[k];
            let path = format!("/v1/history?benchmark={b}&system={sys}&fom={fom}");
            get(&d.addr, &path, &mut history_ms, &mut reads);
        }
        done.store(true, Ordering::SeqCst);
        drop(tick);
        writer.join().expect("writer thread panicked")
    });
    tally.count(reads.attempted, reads.failed);
    tally.problems.extend(reads.problems);
    m.verdict_ms.extend(&verdict_ms);
    m.history_ms.extend(&history_ms);
    wal.records += written.acked;
    wal.trickled = trickled;
    written.record(m, tally);
    let mut unused = Samples::default();
    if let Some(v) = get(&d.addr, "/v1/verdict", &mut unused, tally) {
        let pushed: Vec<&Batch> = records
            .wal
            .iter()
            .chain(&records.trickle[..trickled])
            .collect();
        check_verdict(ctx, &v, &pushed, tally)?;
    }
    let durable = stop(d, m, tally)?;
    tally.check(durable == Some(wal.records), || {
        format!(
            "drained daemon reports {durable:?} durable records, {} expected",
            wal.records
        )
    });
    Ok(())
}

/// The whole end-to-end run: cycles until every metric has its samples
/// and `--seconds` have passed.
pub fn run_e2e(ctx: &Ctx, tally: &mut Tally) -> Result<Measured, String> {
    let records = generate_records(ctx, tally)?;
    let mut m = Measured {
        identical_records: records.identical_records(),
        ..Measured::default()
    };
    let budget = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let (mut rounds, mut ingests) = (0, 0);
    let mut wal: Option<WalDir> = None;
    for cycle in 0.. {
        let t = start.elapsed();
        if t >= RUN_CAP {
            break;
        }
        let timed = t < budget;
        let survey = timed || rounds < MIN_ROUNDS;
        let ingest = (timed && cycle % ctx.plan.ingest_every == 0)
            || m.ingest_ms.len() < MIN_INGEST
            || wal.is_none();
        let query = timed || m.verdict_ms.len() < MIN_VERDICTS;
        if !(survey || ingest || query) {
            break;
        }
        let phase = Instant::now();
        if survey {
            for _ in 0..ctx.plan.rounds_per_cycle {
                survey_round(ctx, rounds, &mut m, tally)?;
                rounds += 1;
            }
        }
        m.phase_s[0] += phase.elapsed().as_secs_f64();
        let phase = Instant::now();
        if ingest {
            if let Some(old) = wal.take() {
                std::fs::remove_dir_all(&old.dir)
                    .map_err(|e| format!("removing {}: {e}", old.dir.display()))?;
            }
            wal = Some(ingest_round(ctx, ingests, &records, &mut m, tally)?);
            ingests += 1;
        }
        m.phase_s[1] += phase.elapsed().as_secs_f64();
        let phase = Instant::now();
        if query {
            let wal = wal.as_mut().expect("an ingest round ran first");
            query_burst(ctx, wal, &records, &mut m, tally)?;
        }
        m.phase_s[2] += phase.elapsed().as_secs_f64();
    }
    Ok(m)
}
