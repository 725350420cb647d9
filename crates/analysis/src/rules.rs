//! The rule engine: what each determinism/safety invariant means at the
//! token level, and how a file is checked against all of them.
//!
//! Every rule protects one leg of the workspace's core contract — reports
//! and goldens are **bit-identical across worker counts, cache states and
//! refactors**.  The rules are deliberately syntactic: they fire at the
//! line that introduces a nondeterminism hazard, not hours later when a
//! golden happens to flex.  See `DESIGN.md` § "Determinism invariants and
//! the analysis pass" for the prose rationale behind each rule.
//!
//! ## The waiver grammar
//!
//! A finding is waived by an inline comment:
//!
//! ```text
//! // vvd-allow: <rule> — <reason>
//! ```
//!
//! The rule name is the [`Rule::id`] string, the separator is an em dash
//! (ASCII `-`/`--` accepted) and the reason is mandatory — a reason-less
//! waiver is itself reported (`allow-syntax`).  A trailing comment waives
//! its own line; a comment standing alone on a line waives the line below.

use crate::report::Finding;
use crate::scanner::{scan, ScanUnit, Token, TokenKind};

/// The built-in rules, in the order they are checked and reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in determinism-critical crates.
    NondetMap,
    /// `std::env::var*` outside the designated config modules.
    AmbientEnv,
    /// `Instant::now`/`SystemTime` outside bench code.
    WallClock,
    /// `thread_rng`/`from_entropy` anywhere.
    AmbientEntropy,
    /// Unpinned float reductions in kernel/parallel-scope files.
    FloatReduce,
    /// Crate roots missing the `#![deny(..)]` lint headers.
    AttrDrift,
    /// `unwrap()`/message-less `expect()` in non-test code.
    Panic,
    /// Malformed `vvd-allow` waivers.
    AllowSyntax,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 8] = [
        Rule::NondetMap,
        Rule::AmbientEnv,
        Rule::WallClock,
        Rule::AmbientEntropy,
        Rule::FloatReduce,
        Rule::AttrDrift,
        Rule::Panic,
        Rule::AllowSyntax,
    ];

    /// The rule's stable identifier — also the `vvd-allow:` key.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NondetMap => "nondet-map",
            Rule::AmbientEnv => "ambient-env",
            Rule::WallClock => "wall-clock",
            Rule::AmbientEntropy => "ambient-entropy",
            Rule::FloatReduce => "float-reduce",
            Rule::AttrDrift => "attr-drift",
            Rule::Panic => "panic",
            Rule::AllowSyntax => "allow-syntax",
        }
    }

    /// One-line description shown by `--list-rules`.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NondetMap => {
                "HashMap/HashSet in determinism-critical crates (iteration order is \
                 randomized per process; use BTreeMap/BTreeSet)"
            }
            Rule::AmbientEnv => {
                "std::env reads outside the designated config modules (ambient \
                 configuration must flow through one audited site per concern)"
            }
            Rule::WallClock => {
                "Instant::now/SystemTime outside bench code (the engine runs on a \
                 simulated clock; wall time may only be observability)"
            }
            Rule::AmbientEntropy => {
                "thread_rng/from_entropy (all randomness must flow from \
                 caller-seeded RNGs)"
            }
            Rule::FloatReduce => {
                ".sum()/.product() in kernel files or thread fan-out files \
                 (thread::scope, fan_out, par_map) without a pinned order (use \
                 vvd_dsp::accum or an integer turbofish)"
            }
            Rule::AttrDrift => "crate root missing #![deny(unsafe_code)] / #![deny(missing_docs)]",
            Rule::Panic => {
                "unwrap() or message-less expect() in non-test code (state the \
                 invariant in an expect message, or justify with vvd-allow: panic)"
            }
            Rule::AllowSyntax => {
                "malformed vvd-allow waiver (grammar: `vvd-allow: <rule> — <reason>`; \
                 the reason is mandatory)"
            }
        }
    }
}

/// Workspace policy: which crates and files each rule governs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose outputs feed digests/goldens — rule `nondet-map`
    /// applies here (test code included: flaky tests are still flaky).
    pub critical_crates: Vec<String>,
    /// The designated ambient-configuration modules, one per concern
    /// (workspace-relative paths).  Rule `ambient-env` fires everywhere
    /// else.
    pub env_modules: Vec<String>,
    /// Crates whose whole purpose is wall-clock measurement — rule
    /// `wall-clock` does not apply.
    pub bench_crates: Vec<String>,
    /// The designated observability-timing modules outside the bench
    /// crates (workspace-relative paths) — rule `wall-clock` does not
    /// apply.  Each entry quarantines wall-clock reads behind one audited
    /// type whose output is report-only (never fed into digests).
    pub timing_modules: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            critical_crates: [
                "core",
                "nn",
                "dsp",
                "channel",
                "estimation",
                "serve",
                "net",
                "testbed",
                "phy",
                "vision",
            ]
            .map(str::to_string)
            .to_vec(),
            env_modules: [
                // VVD_WORKERS / VVD_PROCS / VVD_CHECKPOINT_TICKS — the
                // execution-policy knobs.
                "crates/dsp/src/workers.rs",
                // VVD_BENCH_PRESET — bench campaign scale.
                "crates/bench/src/lib.rs",
                // VVD_MODEL_CACHE_DIR — the on-disk model cache mount.
                "crates/testbed/src/stream.rs",
            ]
            .map(str::to_string)
            .to_vec(),
            bench_crates: vec!["bench".to_string()],
            timing_modules: vec![
                // The serve stopwatch: report-only phase and cluster wall
                // timings, excluded from digests.
                "crates/serve/src/timing.rs".to_string(),
            ],
        }
    }
}

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Debug, Clone)]
struct FileContext {
    /// Crate directory name (`serve`, `nn`, ...; `vvd` for the root
    /// façade).
    crate_name: String,
    /// `true` for `src/lib.rs` / `src/main.rs` — the files that must carry
    /// the lint headers.
    is_crate_root: bool,
    /// `true` when the path is under a `kernels/` directory.
    in_kernels_dir: bool,
}

fn file_context(rel_path: &str) -> FileContext {
    let norm = rel_path.replace('\\', "/");
    let parts: Vec<&str> = norm.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        // The root façade package.
        "vvd".to_string()
    };
    let is_crate_root = matches!(
        parts.as_slice(),
        ["crates", _, "src", "lib.rs"] | ["crates", _, "src", "main.rs"] | ["src", "lib.rs"]
    );
    let in_kernels_dir = parts.contains(&"kernels");
    FileContext {
        crate_name,
        is_crate_root,
        in_kernels_dir,
    }
}

/// Analyzes one source file; `rel_path` is workspace-relative and drives
/// the per-crate / per-file rule scoping.
pub fn analyze_source(rel_path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let ctx = file_context(rel_path);
    let unit = scan(source);
    let mut findings = Vec::new();

    check_allow_syntax(rel_path, &unit, &mut findings);
    if cfg.critical_crates.contains(&ctx.crate_name) {
        check_nondet_map(rel_path, &unit, &mut findings);
    }
    if !cfg.env_modules.iter().any(|m| m == rel_path) {
        check_ambient_env(rel_path, &unit, &mut findings);
    }
    if !cfg.bench_crates.contains(&ctx.crate_name)
        && !cfg.timing_modules.iter().any(|m| m == rel_path)
    {
        check_wall_clock(rel_path, &unit, &mut findings);
    }
    check_ambient_entropy(rel_path, &unit, &mut findings);
    check_float_reduce(rel_path, &ctx, &unit, &mut findings);
    if ctx.is_crate_root {
        check_attr_drift(rel_path, &unit, &mut findings);
    }
    check_panic(rel_path, &unit, &mut findings);

    findings.sort_by(|a, b| (a.line, a.col, a.rule.id()).cmp(&(b.line, b.col, b.rule.id())));
    findings
}

/// Pushes a finding unless a well-formed waiver covers its line.
fn emit(
    findings: &mut Vec<Finding>,
    unit: &ScanUnit,
    rule: Rule,
    rel_path: &str,
    token: &Token,
    message: String,
) {
    if unit.is_allowed(rule.id(), token.line) {
        return;
    }
    findings.push(Finding {
        rule,
        path: rel_path.to_string(),
        line: token.line,
        col: token.col,
        message,
    });
}

/// `tokens[i]` is an identifier reached through `<seg>::`.
fn preceded_by_path_seg(tokens: &[Token], i: usize, seg: &str) -> bool {
    i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].ident() == Some(seg)
}

/// `tokens[i]` is an identifier invoked as a method (`.ident`).
fn preceded_by_dot(tokens: &[Token], i: usize) -> bool {
    i >= 1 && tokens[i - 1].is_punct('.')
}

fn check_nondet_map(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    for t in &unit.tokens {
        if let Some(id @ ("HashMap" | "HashSet")) = t.ident() {
            let replacement = if id == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            emit(
                findings,
                unit,
                Rule::NondetMap,
                rel_path,
                t,
                format!(
                    "`{id}` iteration order is randomized per process; use `{replacement}` \
                     (or justify with `// vvd-allow: nondet-map — <reason>` if it is \
                     provably never iterated)"
                ),
            );
        }
    }
}

fn check_ambient_env(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    const BANNED: [&str; 6] = ["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];
    for (i, t) in unit.tokens.iter().enumerate() {
        let Some(id) = t.ident() else { continue };
        if BANNED.contains(&id) && preceded_by_path_seg(&unit.tokens, i, "env") {
            emit(
                findings,
                unit,
                Rule::AmbientEnv,
                rel_path,
                t,
                format!(
                    "ambient environment read `env::{id}` outside the designated config \
                     modules; route it through the module that owns this concern \
                     (e.g. `vvd_dsp::workers::worker_budget()` for VVD_WORKERS)"
                ),
            );
        }
    }
}

fn check_wall_clock(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    for (i, t) in unit.tokens.iter().enumerate() {
        if unit.in_test[i] {
            continue;
        }
        match t.ident() {
            Some("now") if preceded_by_path_seg(&unit.tokens, i, "Instant") => {
                emit(
                    findings,
                    unit,
                    Rule::WallClock,
                    rel_path,
                    t,
                    "`Instant::now()` outside bench code: the engine runs on a simulated \
                     clock, wall time must never influence results"
                        .to_string(),
                );
            }
            Some(id @ ("SystemTime" | "UNIX_EPOCH")) => {
                emit(
                    findings,
                    unit,
                    Rule::WallClock,
                    rel_path,
                    t,
                    format!(
                        "`{id}` outside bench code: the engine runs on a simulated clock, \
                         wall time must never influence results"
                    ),
                );
            }
            _ => {}
        }
    }
}

fn check_ambient_entropy(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    for t in &unit.tokens {
        if let Some(id @ ("thread_rng" | "from_entropy")) = t.ident() {
            emit(
                findings,
                unit,
                Rule::AmbientEntropy,
                rel_path,
                t,
                format!(
                    "`{id}` draws ambient entropy; all randomness must flow from a \
                     caller-seeded RNG so runs are reproducible"
                ),
            );
        }
    }
}

/// `tokens[i]` (a `sum`/`product` method call) carries a turbofish naming
/// an integer type — the one reduction shape that cannot reassociate.
fn has_integer_turbofish(tokens: &[Token], i: usize) -> Option<bool> {
    // Expect `:: < ident`.
    if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct('<'))
    {
        let ty = tokens.get(i + 4).and_then(|t| t.ident());
        let integer = matches!(
            ty,
            Some(
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            )
        );
        Some(integer)
    } else {
        None
    }
}

fn check_float_reduce(
    rel_path: &str,
    ctx: &FileContext,
    unit: &ScanUnit,
    findings: &mut Vec<Finding>,
) {
    // Scope: kernel files and files that fan work out across threads —
    // `thread::scope` itself or a call of `vvd_dsp::fan_out` / `par_map` —
    // exactly where reduction order is the bit-identity contract.
    let toks = &unit.tokens;
    let is_scope_file = ctx.in_kernels_dir
        || toks.iter().enumerate().any(|(i, t)| match t.ident() {
            Some("scope") => preceded_by_path_seg(toks, i, "thread"),
            Some("fan_out" | "par_map") => toks.get(i + 1).is_some_and(|n| n.is_punct('(')),
            _ => false,
        });
    if !is_scope_file {
        return;
    }
    for (i, t) in unit.tokens.iter().enumerate() {
        if unit.in_test[i] {
            continue;
        }
        let Some(id @ ("sum" | "product")) = t.ident() else {
            continue;
        };
        if !preceded_by_dot(&unit.tokens, i) {
            continue;
        }
        match has_integer_turbofish(&unit.tokens, i) {
            Some(true) => {} // integer reduction: order-free by construction
            Some(false) => emit(
                findings,
                unit,
                Rule::FloatReduce,
                rel_path,
                t,
                format!(
                    "float `.{id}::<..>()` in a kernel/parallel-scope file: route the \
                     reduction through `vvd_dsp::accum` so the accumulation order is \
                     pinned explicitly"
                ),
            ),
            None => {
                // Bare `.sum()` / `.product()` — only a method call (next
                // token `(`) is a reduction; `cfg.sum` field access is not.
                if unit.tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                    emit(
                        findings,
                        unit,
                        Rule::FloatReduce,
                        rel_path,
                        t,
                        format!(
                            "`.{id}()` in a kernel/parallel-scope file hides its reduction \
                             order; use an integer turbofish (`.{id}::<usize>()`) for \
                             counts or `vvd_dsp::accum` for floats"
                        ),
                    );
                }
            }
        }
    }
}

fn check_attr_drift(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    // Collect every `#![deny(<lint>)]` in the file.
    let mut denied: Vec<&str> = Vec::new();
    let toks = &unit.tokens;
    for i in 0..toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 3).and_then(|t| t.ident()) == Some("deny")
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            let mut j = i + 5;
            while j < toks.len() && !toks[j].is_punct(')') {
                if let Some(id) = toks[j].ident() {
                    denied.push(id);
                }
                j += 1;
            }
        }
    }
    let anchor = Token {
        kind: TokenKind::Punct('#'),
        line: 1,
        col: 1,
    };
    for required in ["unsafe_code", "missing_docs"] {
        if !denied.contains(&required) {
            emit(
                findings,
                unit,
                Rule::AttrDrift,
                rel_path,
                &anchor,
                format!(
                    "crate root is missing `#![deny({required})]`; every crate keeps both \
                     lint headers so drift is caught here, not in review"
                ),
            );
        }
    }
}

fn check_panic(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    for (i, t) in unit.tokens.iter().enumerate() {
        if unit.in_test[i] {
            continue;
        }
        match t.ident() {
            Some("unwrap")
                if preceded_by_dot(&unit.tokens, i)
                    && unit.tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && unit.tokens.get(i + 2).is_some_and(|n| n.is_punct(')')) =>
            {
                emit(
                    findings,
                    unit,
                    Rule::Panic,
                    rel_path,
                    t,
                    "`unwrap()` in non-test code: state the invariant in an \
                     `expect(\"...\")` message, or justify with \
                     `// vvd-allow: panic — <reason>`"
                        .to_string(),
                );
            }
            Some("expect")
                if preceded_by_dot(&unit.tokens, i)
                    && unit.tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                let arg = unit.tokens.get(i + 2);
                let literal_message =
                    matches!(arg.map(|a| &a.kind), Some(TokenKind::Str { empty: false }));
                if !literal_message {
                    emit(
                        findings,
                        unit,
                        Rule::Panic,
                        rel_path,
                        t,
                        "`expect()` without a literal invariant message in non-test code: \
                         the message is the documentation of why this cannot fail"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

fn check_allow_syntax(rel_path: &str, unit: &ScanUnit, findings: &mut Vec<Finding>) {
    for allow in &unit.raw_allows {
        if allow.well_formed {
            continue;
        }
        findings.push(Finding {
            rule: Rule::AllowSyntax,
            path: rel_path.to_string(),
            line: allow.line,
            col: 1,
            message: format!(
                "malformed vvd-allow waiver (rule `{}`): the grammar is \
                 `vvd-allow: <rule> — <reason>` and the reason is mandatory",
                allow.rule
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        analyze_source(path, src, &Config::default())
    }

    #[test]
    fn hashmap_in_critical_crate_fires() {
        let f = run("crates/serve/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::NondetMap);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn hashmap_in_non_critical_crate_is_fine() {
        assert!(run("crates/bench/src/x.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn env_read_fires_outside_designated_modules() {
        let f = run(
            "crates/serve/src/x.rs",
            "fn f() -> String { std::env::var(\"X\").unwrap_or_default() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::AmbientEnv);
    }

    #[test]
    fn env_read_in_designated_module_is_fine() {
        assert!(run(
            "crates/dsp/src/workers.rs",
            "fn f() { let _ = std::env::var(\"VVD_WORKERS\"); }\n"
        )
        .is_empty());
    }

    #[test]
    fn instant_now_fires_outside_bench() {
        let f = run(
            "crates/serve/src/x.rs",
            "fn f() { let _t = std::time::Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn instant_now_in_bench_crate_is_fine() {
        assert!(run(
            "crates/bench/src/x.rs",
            "fn f() { let _t = std::time::Instant::now(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn instant_now_in_timing_module_is_fine() {
        assert!(run(
            "crates/serve/src/timing.rs",
            "fn f() { let _t = std::time::Instant::now(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn timing_module_allowlist_is_exact_path_match() {
        // A sibling file in the same directory gets no timing dispensation.
        let f = run(
            "crates/serve/src/engine.rs",
            "fn f() { let _t = std::time::Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
    }

    #[test]
    fn pipeline_env_read_outside_workers_module_fires() {
        // Only crates/dsp/src/workers.rs may read the environment: a stray
        // read anywhere else is an ambient-env violation regardless of the
        // variable's name, registered knob (VVD_CHECKPOINT_TICKS, read
        // from a sibling of workers.rs) or not (VVD_PIPELINE).
        let f = run(
            "crates/serve/src/engine.rs",
            "fn f() -> bool { std::env::var(\"VVD_PIPELINE\").is_ok() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::AmbientEnv);
        let f = run(
            "crates/dsp/src/fir.rs",
            "fn f() -> bool { std::env::var(\"VVD_CHECKPOINT_TICKS\").is_ok() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::AmbientEnv);
    }

    #[test]
    fn bare_unwrap_fires_and_expect_with_message_does_not() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"always set by new()\") }\n";
        let f = run("crates/serve/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Panic);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(run("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(x: Option<u32>) { x.unwrap(); }\n}\n";
        assert!(run("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_sum_in_kernels_dir_fires() {
        let f = run(
            "crates/nn/src/kernels/x.rs",
            "fn f(v: &[f32]) -> f32 { v.iter().sum::<f32>() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatReduce);
    }

    #[test]
    fn integer_turbofish_sum_in_scope_file_is_fine() {
        let src = "fn f(v: &[Vec<u8>]) -> usize {\n\
                   std::thread::scope(|_| ());\n\
                   v.iter().map(|x| x.len()).sum::<usize>()\n}\n";
        assert!(run("crates/testbed/src/x.rs", src).is_empty());
    }

    #[test]
    fn bare_float_sum_in_fan_out_file_fires() {
        // A file that only calls `fan_out(` — no `thread::scope` token —
        // is a parallel-scope file all the same.
        let src = "fn f(v: &mut [f64]) -> f64 {\n\
                   vvd_dsp::fan_out(v, 2, |_, _| ());\n\
                   v.iter().sum()\n}\n";
        let f = run("crates/testbed/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatReduce);
    }

    #[test]
    fn bare_sum_outside_scope_files_is_fine() {
        assert!(run(
            "crates/serve/src/x.rs",
            "fn f(v: &[f32]) -> f32 { v.iter().sum() }\n"
        )
        .is_empty());
    }

    #[test]
    fn attr_drift_fires_on_missing_headers() {
        let f = run("crates/serve/src/lib.rs", "//! docs\npub fn x() {}\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == Rule::AttrDrift));
    }

    #[test]
    fn attr_drift_satisfied_by_both_headers() {
        let src = "//! docs\n#![deny(missing_docs)]\n#![deny(unsafe_code)]\npub fn x() {}\n";
        assert!(run("crates/serve/src/lib.rs", src).is_empty());
    }

    #[test]
    fn waiver_suppresses_and_malformed_waiver_reports() {
        let ok = "// vvd-allow: ambient-entropy — seeded upstream, fixture only\n\
                  fn f() { thread_rng(); }\n";
        assert!(run("crates/serve/src/x.rs", ok).is_empty());
        let bad = "// vvd-allow: ambient-entropy\nfn f() { thread_rng(); }\n";
        let f = run("crates/serve/src/x.rs", bad);
        assert_eq!(f.len(), 2); // the violation AND the malformed waiver
        assert!(f.iter().any(|f| f.rule == Rule::AllowSyntax));
        assert!(f.iter().any(|f| f.rule == Rule::AmbientEntropy));
    }

    #[test]
    fn root_facade_is_checked_for_attrs() {
        let f = run("src/lib.rs", "//! facade\npub use vvd_core as core;\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == Rule::AttrDrift));
    }
}
