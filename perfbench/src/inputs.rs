//! Workloads and the inputs derived from the benchmark seed.
//!
//! The program never sees the seed itself: every survey seed, the order
//! in which batches are pushed, and the history triples a reader asks
//! for are drawn here from `(workload, seed)` with SplitMix64, so one
//! seed always yields byte-identical inputs.

use std::path::PathBuf;

/// The six simulated systems of every survey. `native` is left out: it
/// times the host rather than the framework.
pub const SYSTEMS: [&str; 6] = [
    "archer2",
    "cosma8",
    "csd3",
    "isambard",
    "isambard-macs",
    "noctua2",
];

/// All 16 benchmarks: 96 cells over [`SYSTEMS`], 79 of which run and 17
/// are deterministic concretization skips.
pub const GRID_CASES: [&str; 16] = [
    "babelstream_omp",
    "babelstream_kokkos",
    "babelstream_cuda",
    "babelstream_ocl",
    "babelstream_std-data",
    "babelstream_std-indices",
    "babelstream_std-ranges",
    "babelstream_tbb",
    "babelstream_serial",
    "hpcg_csr",
    "hpcg_avx2",
    "hpcg_sell",
    "hpcg_matfree",
    "hpcg_lfric",
    "hpgmg",
    "stream",
];

/// The cheap kernels: the seven CPU BabelStream models plus STREAM.
pub const CHEAP_CASES: [&str; 8] = [
    "babelstream_omp",
    "babelstream_kokkos",
    "babelstream_std-data",
    "babelstream_std-indices",
    "babelstream_std-ranges",
    "babelstream_tbb",
    "babelstream_serial",
    "stream",
];

/// Concurrent survey jobs, equal to the core count of the 2-core hosts
/// the baseline was measured on; fixed so results compare across hosts.
pub const JOBS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SurveyGrid,
    DaemonQuery,
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Benchmarks surveyed in the survey rounds, over all [`SYSTEMS`].
    pub cases: &'static [&'static str],
    /// Grid surveys whose perflogs make up the daemon's record set.
    pub wal_surveys: usize,
    /// Further grid surveys held back for the query writer.
    pub trickle_surveys: usize,
    /// Survey rounds per cycle of the end-to-end run.
    pub rounds_per_cycle: usize,
    /// An ingest round every this many cycles; the query bursts between
    /// reuse the last round's WAL.
    pub ingest_every: usize,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SurveyGrid, Workload::DaemonQuery];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SurveyGrid => "survey_grid",
            Workload::DaemonQuery => "daemon_query",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn plan(self) -> Plan {
        match self {
            // About 320 records: verdicts are cheap, so the daemon's
            // fixed per-request cost dominates its metrics.
            Workload::SurveyGrid => Plan {
                cases: &GRID_CASES,
                wal_surveys: 4,
                trickle_surveys: 2,
                rounds_per_cycle: 1,
                ingest_every: 1,
            },
            // About 1k records: a verdict then costs ~50 ms, so
            // recomputation over every record dominates, while a run still
            // collects the 100 verdicts a p90 needs. The survey rounds use
            // the cheap kernels, so the disk store's fsync'd persists and
            // the checkpoint journal take a large share of the `--store`
            // passes.
            Workload::DaemonQuery => Plan {
                cases: &CHEAP_CASES,
                wal_surveys: 13,
                trickle_surveys: 4,
                rounds_per_cycle: 3,
                ingest_every: 3,
            },
        }
    }
}

/// SplitMix64: one step of the generator, as a pure function of its
/// state, so every draw is addressable by (seed, stream, index).
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_SURVEY: u64 = 1;
const STREAM_RECORDS: u64 = 2;
const STREAM_ORDER: u64 = 3;
const STREAM_HISTORY: u64 = 4;

/// Every input a run derives from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        Inputs { workload, seed }
    }

    fn draw(&self, stream: u64, index: u64) -> u64 {
        let tag = self.workload.name().bytes().fold(0u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        splitmix64(splitmix64(splitmix64(self.seed ^ tag) ^ stream) ^ index)
    }

    /// `--seed` of the survey phase's round `round`.
    pub fn survey_seed(&self, round: usize) -> u64 {
        self.draw(STREAM_SURVEY, round as u64) >> 32
    }

    /// `--seed`s of the record-generating grid surveys: first the WAL
    /// surveys, then the query writer's reserve.
    pub fn record_seeds(&self) -> Vec<u64> {
        let plan = self.workload.plan();
        (0..plan.wal_surveys + plan.trickle_surveys)
            .map(|i| self.draw(STREAM_RECORDS, i as u64) >> 32)
            .collect()
    }

    /// Fisher–Yates shuffle keyed by the seed.
    fn shuffle<T>(&self, stream: u64, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.draw(stream, i as u64) % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// The order in which perflog batches are pushed.
    pub fn batch_order(&self, mut files: Vec<PathBuf>) -> Vec<PathBuf> {
        files.sort();
        self.shuffle(STREAM_ORDER, &mut files);
        files
    }

    /// The order in which a reader cycles through history triples.
    pub fn history_order(&self, mut triples: Vec<[String; 3]>) -> Vec<[String; 3]> {
        triples.sort();
        triples.dedup();
        self.shuffle(STREAM_HISTORY, &mut triples);
        triples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn grid_and_cheap_cases_are_listed_once() {
        let mut g = GRID_CASES.to_vec();
        g.sort();
        g.dedup();
        assert_eq!(g.len(), 16);
        assert!(CHEAP_CASES.iter().all(|c| GRID_CASES.contains(c)));
    }
}
