//! Inputs are a pure function of (workload, seed): the same seed gives
//! byte-identical survey seeds, batch order and record set, and another
//! seed gives another set.

use perfbench::inputs::{Inputs, Workload};
use perfbench::session::{generate_records, Ctx, RecordSet, Tally};
use std::path::{Path, PathBuf};

#[test]
fn derived_seeds_and_orders_repeat_per_seed_and_differ_across_seeds() {
    let files: Vec<PathBuf> = (0..48)
        .map(|i| PathBuf::from(format!("f{i:02}.jsonl")))
        .collect();
    for w in Workload::ALL {
        let (a, b, c) = (Inputs::new(w, 7), Inputs::new(w, 7), Inputs::new(w, 8));
        let rounds = |i: &Inputs| (0..16).map(|r| i.survey_seed(r)).collect::<Vec<_>>();
        assert_eq!(rounds(&a), rounds(&b));
        assert_ne!(rounds(&a), rounds(&c));
        assert_eq!(a.record_seeds(), b.record_seeds());
        assert_ne!(a.record_seeds(), c.record_seeds());
        assert_eq!(a.batch_order(files.clone()), b.batch_order(files.clone()));
        assert_ne!(a.batch_order(files.clone()), c.batch_order(files.clone()));
        let mut sorted = a.batch_order(files.clone());
        sorted.sort();
        assert_eq!(sorted, files, "the order is a permutation");
    }
}

fn record_set(bin: &Path, scratch: &Path, seed: u64) -> (RecordSet, Tally) {
    let workload = Workload::SurveyGrid;
    let ctx = Ctx {
        bin: bin.to_path_buf(),
        scratch: scratch.join(format!("seed{seed}-{}", std::process::id())),
        inputs: Inputs::new(workload, seed),
        plan: workload.plan(),
        seconds: 1.0,
    };
    std::fs::create_dir_all(&ctx.scratch).unwrap();
    let mut tally = Tally::default();
    let set = generate_records(&ctx, &mut tally).unwrap();
    std::fs::remove_dir_all(&ctx.scratch).unwrap();
    (set, tally)
}

/// Everything of a record set the daemon sees, in push order.
fn pushed_bytes(set: &RecordSet) -> Vec<(String, Vec<u8>)> {
    set.wal
        .iter()
        .chain(&set.trickle)
        .map(|b| {
            (
                b.path.file_name().unwrap().to_string_lossy().into_owned(),
                b.body.clone(),
            )
        })
        .collect()
}

#[test]
fn record_set_is_byte_identical_per_seed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let bin = perfbench::proc::ensure_benchkit(root).unwrap();
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism");
    let (a, ta) = record_set(&bin, &scratch, 7);
    let (b, _) = record_set(&bin, &scratch, 7);
    let (c, _) = record_set(&bin, &scratch, 8);
    assert!(ta.problems.is_empty(), "{:?}", ta.problems);
    assert!(a.wal_distinct > 0);
    assert_eq!(pushed_bytes(&a), pushed_bytes(&b));
    assert_eq!(a.triples, b.triples);
    assert_ne!(pushed_bytes(&a), pushed_bytes(&c));
}
