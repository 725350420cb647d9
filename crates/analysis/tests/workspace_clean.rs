//! The live workspace must be clean, and the binary must gate.
//!
//! This is the test that turns the analyzer from a tool into an
//! invariant: `cargo test` fails the moment anyone reintroduces a
//! nondeterminism hazard anywhere in `crates/*/src`, with the finding's
//! `file:line` in the failure message.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use vvd_analyze::scanner::scan;
use vvd_analyze::{analyze_workspace, scan_set, Config};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn live_workspace_has_zero_findings() {
    let report = analyze_workspace(&workspace_root(), &Config::default())
        .expect("workspace sources are readable");
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan set ({} files) — did the walker lose crates/*?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "the workspace violates its own determinism invariants:\n{}",
        report.human()
    );
}

#[test]
fn serve_stopwatch_is_the_only_clock_and_no_source_is_waived() {
    // One wall-clock module, and every other hazard fixed rather than
    // waived.  The analyzer's own sources are exempt: they quote the
    // waiver grammar in docs and test strings.
    assert_eq!(
        Config::default().timing_modules,
        ["crates/serve/src/timing.rs"]
    );
    let root = workspace_root();
    for rel in scan_set(&root).expect("workspace sources are readable") {
        if rel.starts_with("crates/analysis") {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel)).expect("source is readable");
        assert!(
            !source.contains("vvd-allow:"),
            "{} carries a vvd-allow waiver",
            rel.display()
        );
    }
}

#[test]
fn dsp_fan_out_is_the_only_thread_scope() {
    // One thread fan-out: `vvd_dsp::fan_out` holds the workspace's only
    // `thread::scope`.  Scanned tokens, so comments, strings and test
    // regions do not count.  vvd-net's long-lived loopback `thread::spawn`
    // workers are a transport, not a fan-out, and stay.
    let root = workspace_root();
    let mut files = BTreeSet::new();
    for rel in scan_set(&root).expect("workspace sources are readable") {
        let source = std::fs::read_to_string(root.join(&rel)).expect("source is readable");
        let unit = scan(&source);
        let toks = &unit.tokens;
        let scoped = (3..toks.len()).any(|i| {
            !unit.in_test[i]
                && toks[i].ident() == Some("scope")
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].ident() == Some("thread")
        });
        if scoped {
            files.insert(rel.display().to_string());
        }
    }
    assert_eq!(
        files,
        BTreeSet::from(["crates/dsp/src/workers.rs".to_string()]),
        "thread::scope outside the one fan-out helper"
    );
}

#[test]
fn serde_has_left_the_workspace() {
    // One serialization format: every byte that leaves a process or lands
    // on disk is a wire frame.  No manifest names a serde crate, the
    // lockfile resolves none, and no source mentions one.
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for group in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(group)).expect("workspace is readable") {
            let manifest = entry
                .expect("workspace is readable")
                .path()
                .join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    assert!(manifests.len() > 12, "only {} manifests", manifests.len());
    let mut sources: Vec<PathBuf> = scan_set(&root)
        .expect("workspace sources are readable")
        .into_iter()
        .map(|rel| root.join(rel))
        .collect();
    let mut dirs = vec![root.join("tests"), root.join("examples")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("workspace is readable") {
            let path = entry.expect("workspace is readable").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                sources.push(path);
            }
        }
    }

    let mentions: Vec<String> = manifests
        .iter()
        .chain(&sources)
        .filter(|path| {
            std::fs::read_to_string(path)
                .expect("file is readable")
                .contains("serde")
        })
        .map(|path| {
            path.strip_prefix(&root)
                .unwrap_or(path)
                .display()
                .to_string()
        })
        .collect();
    assert!(mentions.is_empty(), "serde is named in {mentions:?}");
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock is readable");
    assert!(
        !lock.lines().any(|line| line.starts_with("name = \"serde")),
        "Cargo.lock still resolves a serde crate"
    );
}

#[test]
fn nn_parallelism_lives_in_the_model_passes() {
    // vvd-nn fans out once per model pass, over sample shards: no kernel
    // or layer calls the fan-out or sizes one.  Scanned tokens, so
    // comments, strings and test regions do not count.
    let root = workspace_root();
    let (mut scanned, mut files) = (0, BTreeSet::new());
    for rel in scan_set(&root).expect("workspace sources are readable") {
        let path = rel.display().to_string();
        if !(path.starts_with("crates/nn/src/kernels") || path.starts_with("crates/nn/src/layers"))
        {
            continue;
        }
        scanned += 1;
        let source = std::fs::read_to_string(root.join(&rel)).expect("source is readable");
        let unit = scan(&source);
        let toks = &unit.tokens;
        let calls = (0..toks.len().saturating_sub(1)).any(|i| {
            !unit.in_test[i]
                && matches!(toks[i].ident(), Some("fan_out" | "worker_budget"))
                && toks[i + 1].is_punct('(')
        });
        if calls {
            files.insert(path);
        }
    }
    assert!(
        scanned >= 10,
        "only {scanned} nn kernel and layer files scanned"
    );
    assert!(
        files.is_empty(),
        "fan_out( or worker_budget( in nn kernels or layers: {files:?}"
    );
}

#[test]
fn binary_exits_zero_on_clean_workspace_and_emits_json() {
    let out = Command::new(env!("CARGO_BIN_EXE_vvd-analyze"))
        .args(["--root"])
        .arg(workspace_root())
        .args(["--format", "json"])
        .output()
        .expect("vvd-analyze binary runs");
    assert!(
        out.status.success(),
        "vvd-analyze exited nonzero on a clean workspace:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"clean\": true"), "unexpected JSON: {json}");
    assert!(json.contains("\"files_scanned\""));
}

#[test]
fn binary_fails_on_a_planted_hashmap_in_serve() {
    // Build a miniature workspace with a deliberate violation in
    // crates/serve and check the gate trips with exit code 1.
    let dir = std::env::temp_dir().join(format!(
        "vvd-analyze-planted-{}-{:x}",
        std::process::id(),
        std::ptr::from_ref(&workspace_root) as usize
    ));
    let serve_src = dir.join("crates/serve/src");
    std::fs::create_dir_all(&serve_src).expect("temp workspace is writable");
    std::fs::write(
        serve_src.join("lib.rs"),
        "#![deny(missing_docs)]\n#![deny(unsafe_code)]\n//! planted\nuse std::collections::HashMap;\npub type T = HashMap<u32, u32>;\n",
    )
    .expect("temp workspace is writable");

    let out = Command::new(env!("CARGO_BIN_EXE_vvd-analyze"))
        .args(["--root"])
        .arg(&dir)
        .args(["--format", "json"])
        .output()
        .expect("vvd-analyze binary runs");
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "planted HashMap did not trip the gate: {json}"
    );
    assert!(
        json.contains("\"rule\": \"nondet-map\""),
        "unexpected JSON: {json}"
    );
    assert!(json.contains("\"clean\": false"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_modules_are_governed_by_the_critical_crate_rules() {
    // The session-durability layer (`crates/serve/src/checkpoint.rs` and
    // the cluster recovery path in `crates/net`) must stay inside the
    // critical-crate set: a message-less panic path planted in a
    // checkpoint module trips the gate like any other serve/net file.
    let cfg = Config::default();
    for governed in ["serve", "net"] {
        assert!(
            cfg.critical_crates.iter().any(|c| c == governed),
            "crate `{governed}` left the critical set — checkpoint modules would go unlinted"
        );
    }

    let dir = std::env::temp_dir().join(format!(
        "vvd-analyze-ckpt-{}-{:x}",
        std::process::id(),
        std::ptr::from_ref(&workspace_root) as usize
    ));
    let serve_src = dir.join("crates/serve/src");
    std::fs::create_dir_all(&serve_src).expect("temp workspace is writable");
    std::fs::write(
        serve_src.join("checkpoint.rs"),
        "//! planted\n/// d\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("temp workspace is writable");

    let out = Command::new(env!("CARGO_BIN_EXE_vvd-analyze"))
        .args(["--root"])
        .arg(&dir)
        .args(["--format", "json"])
        .output()
        .expect("vvd-analyze binary runs");
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "planted unwrap in a checkpoint module did not trip the gate: {json}"
    );
    assert!(
        json.contains("checkpoint.rs"),
        "finding does not point at the checkpoint module: {json}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_rejects_unknown_arguments() {
    let out = Command::new(env!("CARGO_BIN_EXE_vvd-analyze"))
        .arg("--frobnicate")
        .output()
        .expect("vvd-analyze binary runs");
    assert_eq!(out.status.code(), Some(2));
}
