//! Multi-link serving: 64 concurrent sessions over a mixed-scenario
//! campaign, with cross-session batched VVD inference.
//!
//! Builds a 64-session workload (two scenarios, six estimator families,
//! heterogeneous arrival intervals) through the `vvd-serve` load
//! generator, runs it sharded and once on a single shard, and reports
//! throughput, per-phase timings (DSP synthesis vs batched inference),
//! the synthesis memo's counters (requests vs syntheses — the 64 sessions
//! replay two test streams), batch occupancy (NN images per forward call
//! — the quantity the serving layer exists to maximise), and the shared
//! model cache's counters.  All runs must digest identically: sharding,
//! batch composition and synthesis sharing are invisible in every decoded
//! result.
//!
//! A third run serves the same workload as a **cluster of worker
//! processes** (`vvd-net`, self-exec backend, `VVD_PROCS` sizes the
//! fleet) over a shared on-disk model cache, printing per-worker cache
//! counters and verifying that (a) the cluster digest matches the
//! in-process runs bit-exactly and (b) the cluster trains no more models
//! than a single process does — the shared-cache staggered-fit guarantee.
//!
//! Set `VVD_BENCH_JSON=<path>` to write the headline numbers as a JSON
//! snapshot (`BENCH_serve.json` at the repo root is the committed
//! reference of the tiny preset).

use std::collections::BTreeMap;
use vvd_bench::{bench_config, print_header};
use vvd_net::{serve_cluster_detailed, ClusterOptions, WorkerBackend};
use vvd_serve::{mixed_session_specs, serve, LoadGenerator, ServeOptions};

const SCENARIOS: [&str; 2] = ["paper", "rician:k=6,doppler=30"];

const ESTIMATORS: [&str; 6] = [
    "vvd:current",
    "fallback:preamble,vvd:current",
    "kalman:ar=5",
    "previous:100ms",
    "ground-truth",
    "preamble",
];

const SESSIONS: usize = 64;

fn main() {
    // Under the self-exec cluster backend this process doubles as the
    // worker binary; worker invocations never return from this call.
    vvd_net::maybe_run_worker();
    print_header(
        "Serve campaign",
        "64 concurrent link sessions, sharded serving with batched VVD inference",
    );
    let mut cfg = bench_config();
    // One combination per session keeps the bench in minutes at every
    // preset; the serving layer itself is combination-agnostic.
    cfg.n_combinations = cfg.n_combinations.min(2);

    let specs = mixed_session_specs(SESSIONS, &SCENARIOS, &ESTIMATORS);
    let generator = LoadGenerator::new(cfg);

    println!(
        "\nbuilding workload: {} sessions over {} scenarios … ",
        SESSIONS,
        SCENARIOS.len()
    );
    let workload = generator.build(&specs).expect("bench specs are valid");
    let campaigns = workload.campaigns.clone();

    let shards = vvd_dsp::worker_budget();
    let report = serve(workload, &ServeOptions { shards });
    println!(
        "sharded ({shards} shards): {} packets ({} scored) in {} ticks, {:.2?} wall ({:.0} pkt/s)",
        report.packets_streamed,
        report.packets_served,
        report.ticks,
        report.wall,
        report.packets_streamed as f64 / report.wall.as_secs_f64().max(1e-9),
    );
    println!(
        "phase timings: dsp {:.1}ms, infer {:.1}ms",
        report.phases.dsp_ms(),
        report.phases.infer_ms(),
    );
    println!(
        "synthesis memo: {} requests / {} syntheses, peak {:.1} MiB resident",
        report.synth.requests,
        report.synth.syntheses,
        report.synth.peak_resident_bytes as f64 / (1024.0 * 1024.0),
    );
    println!(
        "batched inference: {} forward calls / {} images — occupancy {:.2}, max batch {}",
        report.batches.batch_calls,
        report.batches.images,
        report.batch_occupancy(),
        report.batches.max_batch,
    );
    println!("model cache: {}", report.model_cache);

    // Aggregate quality per estimator label.
    let mut per: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in &report.sessions {
        let entry = per.entry(s.estimator.as_str()).or_insert((0.0, 0));
        entry.0 += s.per;
        entry.1 += 1;
    }
    println!(
        "\n{:<32} {:>10} {:>10}",
        "estimator", "sessions", "mean PER"
    );
    for (label, (sum, n)) in &per {
        println!("{:<32} {:>10} {:>10.3}", label, n, sum / *n as f64);
    }

    // The serving layer's raison d'être, enforced on every smoke run: the
    // engine issued fewer NN forward calls than it served packets.
    assert!(
        report.batch_occupancy() > 1.0,
        "batch occupancy {} must exceed 1",
        report.batch_occupancy()
    );
    assert!(report.batches.batch_calls < report.packets_served);

    // Sessions of a scenario replay the same test stream, so the memo
    // synthesizes far fewer packets than the sessions request.
    assert!(
        report.synth.syntheses < report.synth.requests,
        "the synthesis memo never shared a packet"
    );

    // Single-shard rerun over the same campaigns: bit-identical outcomes,
    // whatever the speedup.
    let mut generator = generator;
    for (spec, campaign) in &campaigns {
        generator = generator.with_campaign(spec.clone(), campaign.clone());
    }
    let workload = generator.build(&specs).expect("bench specs are valid");
    let single = serve(workload, &ServeOptions { shards: 1 });
    println!(
        "\nsingle shard: {:.2?} wall — sharded speedup {:.2}x",
        single.wall,
        single.wall.as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
    );
    assert_eq!(
        report.digest(),
        single.digest(),
        "shard count must be invisible in the served results"
    );
    println!(
        "digest: {:016x} (identical at 1 and {shards} shards)",
        report.digest()
    );

    // Cluster rerun: the same workload over worker *processes* with a
    // shared on-disk model cache.  `VVD_PROCS` sizes the fleet (default 2
    // here: one process would skip the wire entirely).
    let workers = vvd_dsp::proc_budget().max(2);
    let cache_dir =
        std::env::temp_dir().join(format!("vvd-serve-bench-cache-{}", std::process::id()));
    let cluster = serve_cluster_detailed(
        generator.config(),
        &specs,
        &ClusterOptions {
            workers,
            shards: vvd_dsp::per_process_worker_budget(workers),
            granularity: 64,
            cache_dir: Some(cache_dir.clone()),
            backend: WorkerBackend::SelfExec,
            checkpoints: false,
            fault: None,
        },
    )
    .expect("cluster serve succeeds");
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "\ncluster ({workers} worker processes, shared disk cache): {:.2?} wall",
        cluster.report.wall
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "worker", "ticks", "trainings", "mem hits", "disk hits", "fwd calls"
    );
    for (w, stats) in cluster.per_worker.iter().enumerate() {
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>10} {:>10}",
            w,
            stats.ticks,
            stats.cache.misses,
            stats.cache.hits,
            stats.cache.disk_hits,
            stats.batches.batch_calls,
        );
    }
    println!("cluster-wide model cache: {}", cluster.report.model_cache);

    assert_eq!(
        cluster.report.digest(),
        report.digest(),
        "worker processes must be invisible in the served results"
    );
    // The shared disk cache with staggered fits: the cluster trains no
    // more models than the single process did.
    assert!(
        cluster.report.model_cache.misses <= report.model_cache.misses,
        "cluster trained {} models, single process trained {}",
        cluster.report.model_cache.misses,
        report.model_cache.misses,
    );
    // The spec mix pairs every VVD head with every scenario, so
    // same-provenance models span the worker partition: at least one
    // worker must have loaded a sibling's published model from disk.
    assert!(
        cluster.report.model_cache.disk_hits > 0,
        "the workload never exercised the shared disk cache"
    );
    println!(
        "digest: {:016x} (identical in-process and across {workers} processes)",
        cluster.report.digest()
    );

    if let Ok(path) = std::env::var("VVD_BENCH_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"serve\",\n",
                "  \"preset\": {preset:?},\n",
                "  \"sessions\": {sessions},\n",
                "  \"packets_streamed\": {streamed},\n",
                "  \"packets_served\": {served},\n",
                "  \"ticks\": {ticks},\n",
                "  \"forward_calls\": {calls},\n",
                "  \"images\": {images},\n",
                "  \"occupancy\": {occupancy:.4},\n",
                "  \"max_batch\": {max_batch},\n",
                "  \"trainings\": {trainings},\n",
                "  \"cache_hits\": {hits},\n",
                "  \"dsp_ms\": {dsp_ms:.2},\n",
                "  \"infer_ms\": {infer_ms:.2},\n",
                "  \"synth_requests\": {synth_requests},\n",
                "  \"synth_syntheses\": {synth_syntheses},\n",
                "  \"cluster_workers\": {workers},\n",
                "  \"cluster_trainings\": {cluster_trainings},\n",
                "  \"cluster_disk_hits\": {cluster_disk_hits},\n",
                "  \"digest\": \"{digest:016x}\"\n",
                "}}\n"
            ),
            preset = std::env::var("VVD_BENCH_PRESET").unwrap_or_else(|_| "tiny".to_string()),
            sessions = SESSIONS,
            streamed = report.packets_streamed,
            served = report.packets_served,
            ticks = report.ticks,
            calls = report.batches.batch_calls,
            images = report.batches.images,
            occupancy = report.batch_occupancy(),
            max_batch = report.batches.max_batch,
            trainings = report.model_cache.misses,
            hits = report.model_cache.hits,
            dsp_ms = report.phases.dsp_ms(),
            infer_ms = report.phases.infer_ms(),
            synth_requests = report.synth.requests,
            synth_syntheses = report.synth.syntheses,
            workers = workers,
            cluster_trainings = cluster.report.model_cache.misses,
            cluster_disk_hits = cluster.report.model_cache.disk_hits,
            digest = report.digest(),
        );
        std::fs::write(&path, json).expect("snapshot path is writable");
        println!("wrote snapshot to {path}");
    }
}
