//! Per-rule fixture self-tests.
//!
//! Every rule ships three fixtures under `fixtures/<rule>/`:
//!
//! * `violating.rs` — must produce at least one finding of that rule,
//! * `clean.rs` — must produce no findings at all,
//! * `allowed.rs` — the same hazard under a well-formed `vvd-allow`
//!   waiver, must produce no findings at all.
//!
//! Each fixture is scanned under the workspace-relative path that puts it
//! in the rule's scope (a determinism-critical crate, a kernels/ file, a
//! crate root, ...).

use std::fs;
use std::path::PathBuf;

use vvd_analyze::{analyze_source, Config, Finding, Rule};

/// The path context each rule's fixtures are scanned under.
fn scan_path_for(rule: Rule) -> &'static str {
    match rule {
        Rule::NondetMap => "crates/estimation/src/fixture.rs",
        Rule::AmbientEnv => "crates/serve/src/fixture.rs",
        Rule::WallClock => "crates/serve/src/fixture.rs",
        Rule::AmbientEntropy => "crates/channel/src/fixture.rs",
        Rule::FloatReduce => "crates/nn/src/kernels/fixture.rs",
        Rule::AttrDrift => "crates/serve/src/lib.rs",
        Rule::Panic => "crates/serve/src/fixture.rs",
        Rule::AllowSyntax => "crates/serve/src/fixture.rs",
    }
}

fn fixture(rule: Rule, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule.id())
        .join(name);
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn run(rule: Rule, name: &str) -> Vec<Finding> {
    analyze_source(
        scan_path_for(rule),
        &fixture(rule, name),
        &Config::default(),
    )
}

#[test]
fn violating_fixtures_fire_their_rule() {
    for rule in Rule::ALL {
        let findings = run(rule, "violating.rs");
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "fixtures/{}/violating.rs produced no {} finding; got: {findings:#?}",
            rule.id(),
            rule.id()
        );
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for rule in Rule::ALL {
        let findings = run(rule, "clean.rs");
        assert!(
            findings.is_empty(),
            "fixtures/{}/clean.rs is not clean: {findings:#?}",
            rule.id()
        );
    }
}

#[test]
fn allowed_fixtures_are_waived() {
    for rule in Rule::ALL {
        let findings = run(rule, "allowed.rs");
        assert!(
            findings.is_empty(),
            "fixtures/{}/allowed.rs still fires: {findings:#?}",
            rule.id()
        );
    }
}

#[test]
fn every_registered_env_var_fires_when_read_outside_its_module() {
    // VVD_WORKERS and VVD_CHECKPOINT_TICKS are registered to
    // crates/dsp/src/workers.rs, VVD_PIPELINE to no module at all —
    // reading any of them from unregistered code is one finding per read
    // site.
    let findings = run(Rule::AmbientEnv, "violating.rs");
    let env_findings = findings
        .iter()
        .filter(|f| f.rule == Rule::AmbientEnv)
        .count();
    assert_eq!(
        env_findings, 3,
        "expected one ambient-env finding per registered-variable read; got: {findings:#?}"
    );
}

#[test]
fn timing_module_dispensation_does_not_extend_to_fixture_paths() {
    // The wall-clock fixture scans under crates/serve/src/fixture.rs —
    // adjacent to the allowlisted crates/serve/src/timing.rs — and must
    // still fire: the timing allowlist is exact-path, not per-directory.
    let findings = run(Rule::WallClock, "violating.rs");
    assert!(
        findings.iter().any(|f| f.rule == Rule::WallClock),
        "wall-clock fixture no longer fires: {findings:#?}"
    );
}

#[test]
fn violating_fixtures_fire_at_real_spans() {
    // Findings must point into the fixture, not at synthetic positions
    // (attr-drift anchors the crate root's first line by design).
    for rule in Rule::ALL {
        let source = fixture(rule, "violating.rs");
        let lines = source.lines().count();
        for f in run(rule, "violating.rs") {
            assert!(
                f.line >= 1 && f.line <= lines,
                "{}: finding line {} outside fixture ({} lines)",
                rule.id(),
                f.line,
                lines
            );
            assert!(f.col >= 1);
        }
    }
}
