//! Serve-run reporting: per-session quality, throughput, batching and
//! cache accounting, plus a stable outcome digest.

use crate::memo::SynthCounters;
use crate::planner::BatchCounters;
use std::error::Error;
use std::fmt;
use std::time::Duration;
use vvd_estimation::ModelCacheStats;
use vvd_testbed::stream::EstimatorTrace;
use vvd_testbed::TechniqueMetrics;

/// Quality summary of one served session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Workload-wide session identifier.
    pub session_id: usize,
    /// Scenario spec of the session's environment.
    pub scenario: String,
    /// Label the session's estimator reports under.
    pub estimator: String,
    /// Packets streamed through the estimator (warm-up included).
    pub packets_streamed: usize,
    /// Packets actually decoded and scored.
    pub packets_scored: usize,
    /// Packet error rate over the scored packets.
    pub per: f64,
    /// Chip error rate over the scored packets.
    pub cer: f64,
    /// Eq.-9 MSE (None for estimators that produce no channel estimate).
    pub mse: Option<f64>,
}

/// Per-phase wall-clock accounting of the tick engine, accumulated over a
/// whole run.
///
/// Pure observability: none of these numbers feed the
/// [`digest`](ServeReport::digest), and they legitimately vary run to run.
/// `dsp` covers the DSP-bound phases (the synthesis memo's fill, packet
/// prepare and decode/commit), `infer` the batched NN forward passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Wall time spent in the DSP-bound phases (synthesis, prepare,
    /// complete).
    pub dsp: Duration,
    /// Wall time spent in the batched-inference phase.
    pub infer: Duration,
}

impl PhaseTimings {
    /// DSP-phase wall time in milliseconds.
    pub fn dsp_ms(&self) -> f64 {
        self.dsp.as_secs_f64() * 1e3
    }

    /// Inference-phase wall time in milliseconds.
    pub fn infer_ms(&self) -> f64 {
        self.infer.as_secs_f64() * 1e3
    }
}

/// Everything a serve run reports.
///
/// The per-session traces are carried verbatim (they are what the golden
/// tests compare against the offline streaming pipeline); the summary
/// numbers are derived from them.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-session summaries, in session-id order.
    pub sessions: Vec<SessionReport>,
    /// Per-session traces, in session-id order (bit-comparable to
    /// [`stream_estimators`](vvd_testbed::stream::stream_estimators)
    /// traces).
    pub traces: Vec<EstimatorTrace>,
    /// Number of ticks the engine actually processed (ticks in which at
    /// least one packet was due).
    pub ticks: u64,
    /// Total packets streamed across all sessions.
    pub packets_streamed: u64,
    /// Total packets decoded and scored across all sessions.
    pub packets_served: u64,
    /// Cross-session batching counters of the inference planner.
    pub batches: BatchCounters,
    /// Counters of the synthesis memo (for a report merged from a
    /// cluster, every worker's counters [absorbed](SynthCounters::absorb)).
    pub synth: SynthCounters,
    /// Counters of the model cache shared across the workload's trainings.
    pub model_cache: ModelCacheStats,
    /// Wall-clock duration of the serve loop (excludes workload build).
    pub wall: Duration,
    /// Per-phase wall-clock breakdown of the tick engine (zeroed for
    /// reports reassembled from remote workers — per-phase accounting is
    /// per-engine observability, not part of the merged outcome).
    pub phases: PhaseTimings,
}

/// What can make a set of per-session results unassemblable into one
/// [`ServeReport`].
///
/// Before this existed, `assemble` blindly zipped metadata with traces,
/// so a duplicated or dropped session report (a real hazard once reports
/// are collected from remote workers) silently mis-attributed every
/// session after the defect.  Now each defect is a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportAssemblyError {
    /// `meta` and `traces` have different lengths.
    LengthMismatch {
        /// Metadata tuples supplied.
        meta: usize,
        /// Traces supplied.
        traces: usize,
    },
    /// The same session id appears twice.
    DuplicateSession {
        /// The repeated id.
        id: usize,
    },
    /// Session ids are not in increasing order.
    MisorderedSession {
        /// The id that went backwards.
        id: usize,
    },
    /// A complete assembly (every session of a workload) is missing an id.
    MissingSession {
        /// The absent id.
        id: usize,
    },
    /// A complete assembly got the wrong number of sessions.
    CountMismatch {
        /// Sessions the workload has.
        expected: usize,
        /// Sessions supplied.
        found: usize,
    },
    /// A session's trace has estimates and truths that do not pair up, so
    /// its MSE is undefined.
    InconsistentTrace {
        /// The session's id.
        id: usize,
        /// What disagreed.
        context: String,
    },
}

impl fmt::Display for ReportAssemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportAssemblyError::LengthMismatch { meta, traces } => {
                write!(f, "{meta} session metadata tuples but {traces} traces")
            }
            ReportAssemblyError::DuplicateSession { id } => {
                write!(f, "session {id} reported twice")
            }
            ReportAssemblyError::MisorderedSession { id } => {
                write!(f, "session {id} out of order (ids must be increasing)")
            }
            ReportAssemblyError::MissingSession { id } => {
                write!(f, "session {id} missing from the assembled report")
            }
            ReportAssemblyError::CountMismatch { expected, found } => {
                write!(f, "expected {expected} session reports, got {found}")
            }
            ReportAssemblyError::InconsistentTrace { id, context } => {
                write!(f, "session {id} has an inconsistent trace: {context}")
            }
        }
    }
}

impl Error for ReportAssemblyError {}

impl ServeReport {
    /// Assembles the report from the drained sessions' traces.
    ///
    /// `meta` is one `(session_id, scenario, estimator label, packets
    /// streamed)` tuple per trace, in the same order as `traces`.  This is
    /// public so the cross-process coordinator (`vvd-net`) can reassemble
    /// one merged report from per-worker traces collected over the wire;
    /// merging in fixed global-session order makes the merged
    /// [`digest`](Self::digest) bit-identical to the in-process run's.
    ///
    /// Ids must be strictly increasing but need not be contiguous (a
    /// single worker's subset of a workload is a legitimate partial
    /// report); use [`assemble_complete`](Self::assemble_complete) when
    /// the result must cover a whole workload.
    ///
    /// # Errors
    /// [`ReportAssemblyError`] on mismatched lengths, duplicate ids,
    /// misordered ids or a trace whose estimates and truths do not pair up.
    pub fn assemble(
        meta: Vec<(usize, String, String, usize)>,
        traces: Vec<EstimatorTrace>,
        ticks: u64,
        batches: BatchCounters,
        model_cache: ModelCacheStats,
        wall: Duration,
    ) -> Result<Self, ReportAssemblyError> {
        if meta.len() != traces.len() {
            return Err(ReportAssemblyError::LengthMismatch {
                meta: meta.len(),
                traces: traces.len(),
            });
        }
        let mut prev: Option<usize> = None;
        for ((id, _, _, _), trace) in meta.iter().zip(&traces) {
            match prev {
                Some(p) if *id == p => {
                    return Err(ReportAssemblyError::DuplicateSession { id: *id })
                }
                Some(p) if *id < p => {
                    return Err(ReportAssemblyError::MisorderedSession { id: *id })
                }
                _ => prev = Some(*id),
            }
            trace
                .check_estimates()
                .map_err(|context| ReportAssemblyError::InconsistentTrace { id: *id, context })?;
        }
        let sessions: Vec<SessionReport> = meta
            .into_iter()
            .zip(&traces)
            .map(|(meta, trace)| {
                let (session_id, scenario, estimator, packets_streamed) = meta;
                let metrics = TechniqueMetrics::from_trace(trace);
                SessionReport {
                    session_id,
                    scenario,
                    estimator,
                    packets_streamed,
                    packets_scored: metrics.packets,
                    per: metrics.per,
                    cer: metrics.cer,
                    mse: metrics.mse,
                }
            })
            .collect();
        let packets_streamed = sessions.iter().map(|s| s.packets_streamed as u64).sum();
        let packets_served = sessions.iter().map(|s| s.packets_scored as u64).sum();
        Ok(ServeReport {
            sessions,
            traces,
            ticks,
            packets_streamed,
            packets_served,
            batches,
            synth: SynthCounters::default(),
            model_cache,
            wall,
            phases: PhaseTimings::default(),
        })
    }

    /// Like [`assemble`](Self::assemble), but for a *complete* report over
    /// a workload of `expected` sessions: additionally requires exactly
    /// `expected` reports with ids `0..expected` — the invariant the
    /// cross-process coordinator needs after collecting per-worker reports
    /// (a crashed worker whose sessions were never recovered shows up here
    /// as a typed [`ReportAssemblyError::MissingSession`], not as a
    /// silently mis-zipped report).
    ///
    /// # Errors
    /// Everything [`assemble`](Self::assemble) rejects, plus
    /// [`ReportAssemblyError::CountMismatch`] and
    /// [`ReportAssemblyError::MissingSession`].
    pub fn assemble_complete(
        expected: usize,
        meta: Vec<(usize, String, String, usize)>,
        traces: Vec<EstimatorTrace>,
        ticks: u64,
        batches: BatchCounters,
        model_cache: ModelCacheStats,
        wall: Duration,
    ) -> Result<Self, ReportAssemblyError> {
        if meta.len() != expected {
            return Err(ReportAssemblyError::CountMismatch {
                expected,
                found: meta.len(),
            });
        }
        let report = Self::assemble(meta, traces, ticks, batches, model_cache, wall)?;
        // Ids are now known strictly increasing with exactly `expected` of
        // them, so at the first position whose id differs from its index
        // that index is the smallest absent id.
        if let Some((index, _)) = report
            .sessions
            .iter()
            .enumerate()
            .find(|(index, s)| s.session_id != *index)
        {
            return Err(ReportAssemblyError::MissingSession { id: index });
        }
        Ok(report)
    }

    /// Mean images per batched NN forward call (see
    /// [`BatchCounters::occupancy`]).
    pub fn batch_occupancy(&self) -> f64 {
        self.batches.occupancy()
    }

    /// Packets streamed (warm-up included) per processed tick — the
    /// engine's scheduling throughput.  Scored-packet throughput is
    /// `packets_served / ticks`.
    pub fn packets_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.packets_streamed as f64 / self.ticks as f64
        }
    }

    /// A stable digest of every session's *outcomes* (labels, decode
    /// results, estimates and truths) — and of nothing else.
    ///
    /// Timing statistics (ticks, wall-clock, batch composition) are
    /// deliberately excluded: the digest is the quantity the concurrency
    /// property tests hold fixed while they randomise arrival orders,
    /// intervals and shard counts, all of which may legitimately change
    /// *when* work happened but never *what* was computed.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for trace in &self.traces {
            h.write_bytes(trace.label.as_bytes());
            h.write_u64(trace.scored.len() as u64);
            for o in &trace.scored {
                h.write_outcome(o);
            }
            h.write_u64(trace.per_packet.len() as u64);
            for o in &trace.per_packet {
                h.write_outcome(o);
            }
            h.write_u64(trace.estimates.len() as u64);
            for f in trace.estimates.iter().chain(trace.truths.iter()) {
                h.write_u64(f.len() as u64);
                for tap in f.taps().iter() {
                    h.write_u64(tap.re.to_bits());
                    h.write_u64(tap.im.to_bits());
                }
            }
        }
        h.0
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} packets ({} scored) from {} sessions in {} ticks ({:.1} pkt/tick, {:.2?} wall)",
            self.packets_streamed,
            self.packets_served,
            self.sessions.len(),
            self.ticks,
            self.packets_per_tick(),
            self.wall,
        )?;
        writeln!(
            f,
            "batched inference: {} forward calls for {} images (occupancy {:.2}, max batch {})",
            self.batches.batch_calls,
            self.batches.images,
            self.batch_occupancy(),
            self.batches.max_batch,
        )?;
        writeln!(
            f,
            "synthesis memo: {} requests served by {} syntheses (peak {:.1} MiB resident)",
            self.synth.requests,
            self.synth.syntheses,
            self.synth.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        )?;
        writeln!(f, "model cache: {}", self.model_cache)?;
        for s in &self.sessions {
            writeln!(
                f,
                "  session {:>3} [{} | {}] {} pkts  PER {:.3}  CER {:.4}{}",
                s.session_id,
                s.scenario,
                s.estimator,
                s.packets_scored,
                s.per,
                s.cer,
                match s.mse {
                    Some(mse) => format!("  MSE {mse:.3e}"),
                    None => String::new(),
                },
            )?;
        }
        Ok(())
    }
}

/// FNV-1a-64 over a canonical little-endian encoding (the digest only has
/// to be stable and collision-resistant across test runs, not
/// cryptographic).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_outcome(&mut self, o: &vvd_phy::DecodeOutcome) {
        self.write_u64(u64::from(o.crc_ok));
        self.write_u64(o.chip_errors as u64);
        self.write_u64(o.chip_count as u64);
        self.write_u64(o.symbol_errors as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Meta = Vec<(usize, String, String, usize)>;

    fn meta_for(ids: &[usize]) -> (Meta, Vec<EstimatorTrace>) {
        let meta = ids
            .iter()
            .map(|&id| (id, "paper".to_string(), format!("est-{id}"), 5))
            .collect();
        let traces = ids
            .iter()
            .map(|&id| EstimatorTrace::new(format!("est-{id}")))
            .collect();
        (meta, traces)
    }

    fn assemble_ids(ids: &[usize]) -> Result<ServeReport, ReportAssemblyError> {
        let (meta, traces) = meta_for(ids);
        ServeReport::assemble(
            meta,
            traces,
            10,
            BatchCounters::default(),
            ModelCacheStats::default(),
            Duration::ZERO,
        )
    }

    fn assemble_complete_ids(
        expected: usize,
        ids: &[usize],
    ) -> Result<ServeReport, ReportAssemblyError> {
        let (meta, traces) = meta_for(ids);
        ServeReport::assemble_complete(
            expected,
            meta,
            traces,
            10,
            BatchCounters::default(),
            ModelCacheStats::default(),
            Duration::ZERO,
        )
    }

    #[test]
    fn assemble_accepts_increasing_possibly_sparse_ids() {
        // A single worker's subset of a workload is a legitimate partial
        // report: increasing but non-contiguous ids assemble fine.
        let report = assemble_ids(&[1, 4, 6]).unwrap();
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.sessions[1].session_id, 4);
    }

    #[test]
    fn assemble_rejects_each_defect_with_a_typed_error() {
        // Duplicated session report — the exact bug the old blind zip let
        // through silently.
        assert_eq!(
            assemble_ids(&[0, 1, 1, 2]).unwrap_err(),
            ReportAssemblyError::DuplicateSession { id: 1 }
        );
        // Misordered reports.
        assert_eq!(
            assemble_ids(&[0, 2, 1]).unwrap_err(),
            ReportAssemblyError::MisorderedSession { id: 1 }
        );
        // Metadata/trace length mismatch.
        let (meta, mut traces) = meta_for(&[0, 1]);
        traces.pop();
        assert_eq!(
            ServeReport::assemble(
                meta,
                traces,
                10,
                BatchCounters::default(),
                ModelCacheStats::default(),
                Duration::ZERO,
            )
            .unwrap_err(),
            ReportAssemblyError::LengthMismatch { meta: 2, traces: 1 }
        );
        // A trace whose estimates and truths do not pair up — what a
        // corrupt worker report would otherwise panic the MSE with.
        let (meta, mut traces) = meta_for(&[0, 3]);
        traces[1]
            .estimates
            .push(vvd_dsp::FirFilter::from_taps(&[vvd_dsp::Complex::ONE; 4]));
        assert!(matches!(
            ServeReport::assemble(
                meta,
                traces,
                10,
                BatchCounters::default(),
                ModelCacheStats::default(),
                Duration::ZERO,
            ),
            Err(ReportAssemblyError::InconsistentTrace { id: 3, .. })
        ));
    }

    #[test]
    fn assemble_complete_requires_exactly_the_whole_workload() {
        assert!(assemble_complete_ids(3, &[0, 1, 2]).is_ok());
        // Too few reports.
        assert_eq!(
            assemble_complete_ids(3, &[0, 1]).unwrap_err(),
            ReportAssemblyError::CountMismatch {
                expected: 3,
                found: 2
            }
        );
        // Right count, but a dropped session replaced by a later id — the
        // smallest absent id is reported.
        assert_eq!(
            assemble_complete_ids(3, &[0, 2, 3]).unwrap_err(),
            ReportAssemblyError::MissingSession { id: 1 }
        );
        // Duplicates are still caught by the underlying validation.
        assert_eq!(
            assemble_complete_ids(3, &[0, 1, 1]).unwrap_err(),
            ReportAssemblyError::DuplicateSession { id: 1 }
        );
    }
}
