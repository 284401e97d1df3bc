//! The traced run: spans recorded in this benchmark's own code around
//! calls into each crate's public functions, kept in memory and written
//! out at the end. No span sits inside the program.
//!
//! The survey part replays one survey round in process. Each cell goes
//! through `harness` exactly as a survey job does, and then through the
//! layers under it directly (concretize, install, the application run,
//! scheduler submission, FOM extraction), so the layer totals can be set
//! against the harness total and the subprocess wall time. The daemon
//! part replays what `servd` does per request and per restart on the
//! run's own record set.

use crate::inputs::SYSTEMS;
use crate::machine::json_str;
use crate::session::{Batch, Ctx, RecordSet};
use crate::stats::Samples;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. A disabled recorder only runs the closures,
/// which is how the untraced replay measures tracing overhead.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(total ms, calls)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + dur_ms(s), n + 1))
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// children cover, summed by the crate its name starts with. The
    /// benchmark's own `replay.*` grouping spans are left out.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += dur_ms(s);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or_default();
            if layer != "replay" {
                *out.entry(layer.to_string()).or_insert(0.0) += dur_ms(s) - child_ms[i];
            }
        }
        out
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(out.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn dur_ms(s: &Span) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
}

/// Counts the replay makes beside its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub cg_iterations: u64,
    pub cells: u64,
    pub cell_max_ms: f64,
    pub perflog_bytes: u64,
    /// Time of the probe cells, which have no harness counterpart.
    pub probe_ms: f64,
    /// In-process cost of one ingest request (parse, dedup key, WAL
    /// appends), per batch.
    pub batch_cost_ms: Samples,
    pub read_request_ms: Samples,
}

fn hpcg_iterations(stdout: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.split("Total number of optimized iterations=").nth(1))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

/// Replay one survey round of `ctx`'s case set at the round-0 seed.
fn replay_survey(
    rec: &mut Recorder,
    ctx: &Ctx,
    dir: &Path,
    out: &mut Replay,
) -> Result<(), String> {
    let seed = ctx.inputs.survey_seed(0);
    let journal = harness::walog::AppendLog::create(&dir.join("journal.jsonl"), Default::default())
        .map_err(|e| format!("journal: {e}"))?;
    let mut to_persist: BTreeMap<String, spackle::StoreEntry> = BTreeMap::new();
    let mut arena = benchapps::scratch::Arena::new();
    let repo = spackle::Repo::builtin();
    let mut families = BTreeSet::new();
    for sys in SYSTEMS {
        let (system, part_name) =
            simhpc::catalog::resolve(sys).ok_or_else(|| format!("unknown system {sys}"))?;
        let partition = system.partition(&part_name).ok_or("no partition")?.clone();
        let mode = benchapps::ExecutionMode::simulated(sys, seed).ok_or("no mode")?;
        for name in ctx.plan.cases {
            let case = benchkit::cli::case_by_name(name).map_err(|e| e.to_string())?;
            let cell = Instant::now();
            let mut h = harness::Harness::new(harness::RunOptions::on_system(sys).with_seed(seed));
            let prepared = rec.span("harness.prepare_build", |_| h.prepare_build(&case));
            let outcome = match prepared {
                Ok(p) => rec
                    .span("harness.run_prepared", |_| h.run_prepared(&case, p))
                    .map(|r| format!("{r:?}")),
                Err(e) => Err(e),
            };
            out.cell_max_ms = out.cell_max_ms.max(cell.elapsed().as_secs_f64() * 1e3);
            out.cells += 1;
            let line = match &outcome {
                Ok(r) => format!("{{\"cell\":{},\"ok\":{}}}", json_str(name), json_str(r)),
                Err(e) => format!(
                    "{{\"cell\":{},\"skip\":{}}}",
                    json_str(name),
                    json_str(&e.to_string())
                ),
            };
            rec.span("harness.walog_append", |_| journal.append(&line))
                .map_err(|e| format!("journal append: {e}"))?;

            // The layers under the harness, called directly.
            let spec = spackle::Spec::parse(&case.spack_spec).map_err(|e| e.to_string())?;
            let ctx_sys = spackle::context_for(&system, &partition);
            let Ok(concrete) = rec.span("spackle.concretize", |_| {
                spackle::concretize(&spec, &repo, &ctx_sys)
            }) else {
                continue;
            };
            let opts = spackle::InstallOptions {
                rebuild_root: true,
                ..Default::default()
            };
            let install = rec.span("spackle.install", |_| {
                spackle::install(&concrete, &mut spackle::Store::new(), opts)
            });
            for r in &install.records {
                if r.action == spackle::BuildAction::Built {
                    if let Some(node) = concrete.nodes().iter().find(|n| n.hash == r.hash) {
                        to_persist
                            .entry(r.hash.clone())
                            .or_insert_with(|| spackle::StoreEntry {
                                hash: r.hash.clone(),
                                render: node.render(),
                                record: r.clone(),
                            });
                    }
                }
            }
            let span = format!("benchapps.{}", case.app.name());
            families.insert(case.app.name());
            let Ok(run) = rec.span(&span, |_| case.app.run_with(&mode, &mut arena)) else {
                continue;
            };
            out.cg_iterations += hpcg_iterations(&run.stdout);
            let cores = partition.processor().total_cores().max(1);
            let cpus = match case.num_cpus_per_task {
                0 => cores / case.num_tasks_per_node.max(1),
                n => n,
            };
            rec.span("batchsim.submit", |_| {
                let mut sched = batchsim::Scheduler::new(
                    batchsim::Policy::Backfill,
                    partition.nodes().max(1),
                    cores,
                );
                let req = batchsim::JobRequest::new(
                    &case.name,
                    case.num_tasks,
                    case.num_tasks_per_node,
                    cpus,
                )
                .with_time_limit((run.wall_time_s * 10.0).max(60.0));
                black_box(sched.submit(req, run.wall_time_s))
            })
            .map_err(|e| format!("submit {name} on {sys}: {e}"))?;
            for var in &case.perf_vars {
                rec.span("rexpr.captures", |_| {
                    let re = rexpr::Regex::new(&var.pattern).expect("case patterns compile");
                    black_box(
                        re.captures(&run.stdout)
                            .map(|c| c.get(1).map(|m| m.as_str().len())),
                    );
                });
            }
        }
    }
    // A case set without some application family (daemon_query's cheap
    // kernels have no HPCG or HPGMG) gets one probe cell of it, so every
    // benchapps metric is measured on every workload.
    let (_, part_name) = simhpc::catalog::resolve(SYSTEMS[0]).ok_or("unknown system")?;
    let mode = benchapps::ExecutionMode::simulated(SYSTEMS[0], seed).ok_or("no mode")?;
    for probe in ["hpcg_csr", "hpgmg", "babelstream_omp", "stream"] {
        let case = benchkit::cli::case_by_name(probe).map_err(|e| e.to_string())?;
        let span = format!("benchapps.{}", case.app.name());
        if !families.contains(case.app.name()) {
            let start = Instant::now();
            let run = rec
                .span(&span, |_| case.app.run_with(&mode, &mut arena))
                .map_err(|e| format!("probe {probe} on {}:{part_name}: {e}", SYSTEMS[0]))?;
            out.probe_ms += start.elapsed().as_secs_f64() * 1e3;
            out.cg_iterations += hpcg_iterations(&run.stdout);
        }
    }

    let store_dir = dir.join("store");
    let mut disk = rec
        .span("spackle.diskstore_open", |_| {
            spackle::DiskStore::open(&store_dir)
        })
        .map_err(|e| format!("store open: {e}"))?;
    for entry in to_persist.values() {
        rec.span("spackle.diskstore_persist", |_| disk.persist(entry))
            .map_err(|e| format!("persist: {e}"))?;
    }
    Ok(())
}

fn body_lines(b: &Batch) -> impl Iterator<Item = &str> {
    std::str::from_utf8(&b.body)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.trim().is_empty())
}

/// Replay the daemon's per-record and per-request work on the record set.
fn replay_daemon(
    rec: &mut Recorder,
    records: &RecordSet,
    wal_dir: &Path,
    dir: &Path,
    out: &mut Replay,
) -> Result<(), String> {
    let mut parsed = Vec::new();
    for b in &records.wal {
        out.perflog_bytes += b.body.len() as u64;
        for line in body_lines(b) {
            let r = rec
                .span("perflogs.from_json_line", |_| {
                    perflogs::PerflogRecord::from_json_line(line)
                })
                .map_err(|e| e.to_string())?;
            parsed.push(r);
        }
    }
    for r in &parsed {
        rec.span("perflogs.to_json_line", |_| black_box(r.to_json_line()));
    }

    let jsonl: String = records
        .wal
        .iter()
        .map(|b| String::from_utf8_lossy(&b.body))
        .collect();
    let frame = rec
        .span("postproc.assimilate", |_| postproc::assimilate(&[jsonl]))
        .map_err(|e| e.to_string())?;
    let policy = postproc::RankPolicy {
        direction: postproc::Direction::HigherIsBetter,
        jobs: 1,
    };
    rec.span("postproc.rank_frame", |_| {
        postproc::rank_frame(&frame, &policy).map(|r| r.render_text())
    })
    .map_err(|e| e.to_string())?;
    let [b, s, f] = &records.triples[0];
    rec.span("postproc.history", |_| {
        postproc::History::from_frame(&frame, b, s, f)
    })
    .map_err(|e| e.to_string())?;

    // Restart replay over a copy of the WAL the run's ingest round wrote.
    let copy = dir.join("walcopy");
    std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
    std::fs::copy(
        wal_dir.join("servd").join("wal.jsonl"),
        copy.join("wal.jsonl"),
    )
    .map_err(|e| format!("copying the WAL: {e}"))?;
    rec.span("servd.wal_open", |_| {
        servd::wal::IngestWal::open(&copy, Default::default())
    })
    .map_err(|e| format!("WAL open: {e}"))?;

    // Per request: parse the HTTP request, parse each record, key it for
    // dedup, and append it durably — the daemon's ingest path minus the
    // socket, the accept poll and the lock.
    let fresh = dir.join("walfresh");
    let (mut wal, _) = servd::wal::IngestWal::open(&fresh, Default::default())
        .map_err(|e| format!("WAL open: {e}"))?;
    let conn = servd::netfault::NetShim::Real.conn(0);
    let mut seen = BTreeSet::new();
    for b in &records.wal {
        let mut bytes = format!(
            "POST /v1/ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            b.body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(&b.body);
        let start = Instant::now();
        let req = rec
            .span("servd.read_request", |_| {
                servd::http::read_request(&mut std::io::Cursor::new(bytes), &conn, 4 << 20)
            })
            .map_err(|e| format!("read_request: {e:?}"))?;
        out.read_request_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        let text = String::from_utf8_lossy(&req.body).into_owned();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let r = perflogs::PerflogRecord::from_json_line(line).map_err(|e| e.to_string())?;
            if seen.insert(r.to_json_line()) {
                rec.span("servd.wal_append", |_| wal.append(&r))
                    .map_err(|e| format!("WAL append: {e}"))?;
            }
        }
        out.batch_cost_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// One full replay in `dir`.
pub fn replay(
    rec: &mut Recorder,
    ctx: &Ctx,
    records: &RecordSet,
    wal_dir: &Path,
    dir: &Path,
) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Replay::default();
    rec.span("replay.survey", |rec| {
        replay_survey(rec, ctx, dir, &mut out)
    })?;
    rec.span("replay.daemon", |rec| {
        replay_daemon(rec, records, wal_dir, dir, &mut out)
    })?;
    Ok(out)
}

/// Cost of recording one span, in ns: the recorder's own overhead, which
/// paired replays cannot resolve under a few percent of host noise.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut rec = Recorder::new(true);
    let start = Instant::now();
    for _ in 0..N {
        rec.span("probe", |_| black_box(()));
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}

/// Array length of the triad probe: 32 MiB per array, well past the
/// last-level cache.
pub const TRIAD_LEN: usize = 1 << 22;

/// STREAM triad on the pool backend at `workers` threads, in GB/s
/// computed from the bytes the kernel moves (three arrays of f64).
pub fn triad_gbps(workers: usize) -> f64 {
    let backend = parkern::PoolBackend::new(workers);
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    parkern::kernels::triad(&backend, 3.0, &b, &c, &mut a);
    let mut times = Samples::default();
    for _ in 0..20 {
        let start = Instant::now();
        parkern::kernels::triad(&backend, 3.0, black_box(&b), black_box(&c), &mut a);
        times.push(start.elapsed().as_secs_f64());
        black_box(&a);
    }
    let secs = times.median().expect("twenty samples");
    (3 * 8 * TRIAD_LEN) as f64 / secs / 1e9
}
