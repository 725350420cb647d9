//! Checkpoint/resume golden: a serve run interrupted at **any** tick and
//! resumed from its checkpoint — in a fresh engine or in a fresh OS
//! process — must produce a [`ServeReport`](vvd::serve::ServeReport) whose
//! digest is **bit-identical** to the uninterrupted run.  The resume
//! replays nothing: the workload rebuild re-derives every fit product
//! deterministically and the checkpoint restores exactly the streaming
//! state (estimator state, trace, cursor, schedule position).
//!
//! Also pinned here: the on-disk checkpoint store heals — corrupt,
//! truncated or wrong-version frames surface typed errors on direct loads
//! and are skipped in favour of the newest intact frame.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use vvd::serve::wire::WireError;
use vvd::serve::{
    load_checkpoint_file, serve, CheckpointError, CheckpointStore, DirCheckpointStore,
    EngineCheckpoint, LoadGenerator, ServeEngine, ServeOptions, SessionSpec, Workload,
};
use vvd::testbed::{Campaign, EvalConfig};

/// Env var carrying the checkpoint directory into the re-executed child.
const CHILD_DIR_ENV: &str = "VVD_CKPT_GOLDEN_DIR";
/// Env var carrying the expected digest into the re-executed child.
const CHILD_DIGEST_ENV: &str = "VVD_CKPT_GOLDEN_DIGEST";

fn golden_config() -> EvalConfig {
    let mut cfg = EvalConfig::smoke();
    cfg.n_sets = 3;
    cfg.packets_per_set = 24;
    cfg.kalman_warmup_packets = 4;
    cfg.max_vvd_training_samples = 40;
    cfg
}

/// The mixed 8-session campaign: two scenarios, heterogeneous arrival
/// schedules, and every estimator family that carries streaming state —
/// including a VVD head (model-cache rehydration) and a fallback chain
/// (recursive state).
fn golden_specs() -> Vec<SessionSpec> {
    let scenarios = ["paper", "rician:k=6,doppler=30"];
    let estimators = [
        "ground-truth",
        "previous:100ms",
        "vvd:current",
        "fallback:preamble,vvd:current",
        "kalman:ar=2",
        "standard",
        "preamble",
        "fallback:preamble,kalman:ar=2",
    ];
    (0..8)
        .map(|i| {
            SessionSpec::new(scenarios[i % 2], estimators[i])
                .every((i % 3 + 1) as u64)
                .offset((i % 4) as u64)
        })
        .collect()
}

/// Builds the golden workload, sharing pre-generated campaigns so repeated
/// builds inside one test don't regenerate them (generation is
/// deterministic, so sharing is a pure speedup — the child process proves
/// that by regenerating from scratch).
fn build_workload(campaigns: &BTreeMap<String, Arc<Campaign>>) -> Workload {
    let mut generator = LoadGenerator::new(golden_config());
    for (spec, campaign) in campaigns {
        generator = generator.with_campaign(spec.clone(), Arc::clone(campaign));
    }
    generator.build(&golden_specs()).expect("specs are valid")
}

fn golden_campaigns() -> BTreeMap<String, Arc<Campaign>> {
    let cfg = golden_config();
    ["paper", "rician:k=6,doppler=30"]
        .into_iter()
        .map(|s| {
            (
                s.to_string(),
                Arc::new(Campaign::generate_spec(&cfg, s).expect("scenario is valid")),
            )
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vvd-ckpt-golden-{tag}-{}", std::process::id()))
}

#[test]
fn resume_at_first_mid_and_last_tick_matches_the_uninterrupted_digest() {
    let campaigns = golden_campaigns();

    // The uninterrupted reference.
    let reference = serve(build_workload(&campaigns), &ServeOptions { shards: 2 });
    let total_ticks = reference.ticks;
    assert!(total_ticks > 2, "campaign too small to split");

    // T = 0 (nothing served yet), mid-stream, and the final tick (the
    // engine is already drained; resume must be a no-op replay).
    for at_tick in [0, total_ticks / 2, total_ticks] {
        let mut engine = ServeEngine::new(build_workload(&campaigns), &ServeOptions { shards: 2 });
        engine.run_ticks(at_tick);
        assert_eq!(engine.ticks(), at_tick);
        let frame = engine
            .checkpoint()
            .expect("tick boundaries always checkpoint")
            .to_frame()
            .expect("frame fits the payload cap");
        drop(engine);

        // A fresh engine over a freshly rebuilt workload, different shard
        // count — topology must stay invisible.
        let checkpoint = EngineCheckpoint::from_frame(&frame).expect("own frame decodes");
        let mut resumed = ServeEngine::resume(
            build_workload(&campaigns),
            &ServeOptions { shards: 5 },
            &checkpoint,
        )
        .expect("own checkpoint resumes");
        assert_eq!(resumed.ticks(), at_tick);
        while !resumed.finished() {
            resumed.run_ticks(7);
        }
        let report = resumed.finish();
        assert_eq!(
            report.digest(),
            reference.digest(),
            "resume at tick {at_tick}/{total_ticks} diverged"
        );
        assert_eq!(report.packets_streamed, reference.packets_streamed);
    }
}

/// The helper half of the fresh-process golden: only runs when re-executed
/// by [`resume_in_a_fresh_process_matches_the_uninterrupted_digest`] with
/// the env vars set.  Rebuilds the whole workload from scratch (campaign
/// regeneration, model retraining — all deterministic), resumes from the
/// newest on-disk checkpoint and checks the digest it was promised.
#[test]
fn helper_resume_from_disk_in_child_process() {
    let (Ok(dir), Ok(digest)) = (
        std::env::var(CHILD_DIR_ENV),
        std::env::var(CHILD_DIGEST_ENV),
    ) else {
        return; // Not the child: nothing to do.
    };
    let expected: u64 = digest.parse().expect("digest env var is a u64");
    let store = DirCheckpointStore::new(&dir).expect("checkpoint dir exists");
    let checkpoint = store
        .load_latest()
        .expect("stored frames are intact")
        .expect("the parent saved at least one frame");
    let mut engine = ServeEngine::resume(
        build_workload(&golden_campaigns()),
        &ServeOptions { shards: 3 },
        &checkpoint,
    )
    .expect("checkpoint from the parent process resumes");
    while !engine.finished() {
        engine.run_ticks(16);
    }
    assert_eq!(
        engine.finish().digest(),
        expected,
        "fresh-process resume diverged from the uninterrupted run"
    );
}

#[test]
fn resume_in_a_fresh_process_matches_the_uninterrupted_digest() {
    let campaigns = golden_campaigns();
    let reference = serve(build_workload(&campaigns), &ServeOptions { shards: 2 });

    // Run the first half with a periodic on-disk checkpoint policy, then
    // abandon the engine — the "crash".
    let dir = temp_dir("proc");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirCheckpointStore::new(&dir).expect("temp dir is creatable");
    let mut engine = ServeEngine::new(build_workload(&campaigns), &ServeOptions { shards: 2 })
        .with_checkpoints(Box::new(store), 3);
    engine.run_ticks(reference.ticks / 2);
    assert!(
        engine.checkpoint_error().is_none(),
        "periodic checkpointing failed: {:?}",
        engine.checkpoint_error()
    );
    drop(engine);

    // Re-execute this test binary filtered to the helper test: a genuinely
    // fresh process resumes from disk and verifies the digest itself.  The
    // child's output is captured, not inherited, so its harness lines never
    // interleave with this process's own test report.
    let exe = std::env::current_exe().expect("test binary path");
    let output = Command::new(exe)
        .args([
            "--exact",
            "helper_resume_from_disk_in_child_process",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(CHILD_DIR_ENV, &dir)
        .env(CHILD_DIGEST_ENV, reference.digest().to_string())
        .output()
        .expect("child test process spawns");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("1 passed"),
        "fresh-process resume failed: {}\n--- child stdout ---\n{stdout}\n--- child stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_store_surfaces_typed_errors_and_heals_to_the_previous_good_frame() {
    let campaigns = golden_campaigns();
    let dir = temp_dir("heal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DirCheckpointStore::new(&dir).expect("temp dir is creatable");

    // Two good frames at ticks 2 and 4.
    let mut engine = ServeEngine::new(build_workload(&campaigns), &ServeOptions { shards: 1 });
    engine.run_ticks(2);
    store
        .save(&engine.checkpoint().expect("tick boundary"))
        .expect("first frame saves");
    engine.run_ticks(2);
    let good = engine.checkpoint().expect("tick boundary");
    store.save(&good).expect("second frame saves");

    // Direct loads of damaged files are typed errors, not panics.
    let good_path = dir.join("ckpt-00000000000000000004.vvdc");
    let bytes = std::fs::read(&good_path).expect("saved frame is readable");

    let truncated = dir.join("ckpt-00000000000000000006.vvdc");
    std::fs::write(&truncated, &bytes[..bytes.len() - 7]).expect("writable");
    assert!(matches!(
        load_checkpoint_file(&truncated),
        Err(CheckpointError::Wire(WireError::Truncated { .. }))
    ));

    let mut wrong_version = bytes.clone();
    wrong_version[4] = 0xEE;
    wrong_version[5] = 0xEE;
    let versioned = dir.join("ckpt-00000000000000000008.vvdc");
    std::fs::write(&versioned, &wrong_version).expect("writable");
    assert!(matches!(
        load_checkpoint_file(&versioned),
        Err(CheckpointError::Wire(WireError::UnsupportedVersion {
            found: 0xEEEE
        }))
    ));

    let mut corrupt = bytes.clone();
    corrupt[0] = b'X';
    let corrupted = dir.join("ckpt-00000000000000000010.vvdc");
    std::fs::write(&corrupted, &corrupt).expect("writable");
    assert!(matches!(
        load_checkpoint_file(&corrupted),
        Err(CheckpointError::Wire(WireError::BadMagic { .. }))
    ));

    // load_latest skips all three damaged (lexicographically newer) files
    // and heals to the newest intact frame — the tick-4 checkpoint.
    let healed = store
        .load_latest()
        .expect("an intact frame exists")
        .expect("frames were saved");
    assert_eq!(healed.ticks, 4);
    assert_eq!(
        healed.to_frame().expect("frame fits the payload cap"),
        good.to_frame().expect("frame fits the payload cap"),
        "healed frame differs"
    );

    // And the healed frame is actually resumable to the reference digest.
    let reference = serve(build_workload(&campaigns), &ServeOptions { shards: 1 });
    let mut resumed = ServeEngine::resume(
        build_workload(&campaigns),
        &ServeOptions { shards: 1 },
        &healed,
    )
    .expect("healed checkpoint resumes");
    while !resumed.finished() {
        resumed.run_ticks(9);
    }
    assert_eq!(resumed.finish().digest(), reference.digest());
    let _ = std::fs::remove_dir_all(&dir);
}
