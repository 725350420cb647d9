//! Measurement-campaign simulation.
//!
//! One [`Campaign`] mirrors the structure of the published trace: a number
//! of measurement sets, each containing a packet every 100 ms and a depth
//! frame every 33.3 ms, with every packet associated to the frame captured
//! closest to its transmission time (the LED-blink synchronisation of
//! Fig. 3).  For every packet the campaign stores the block-fading channel
//! realisation, the perfect (ground-truth) LS estimate obtained from the
//! simulated sniffer capture, and the preamble-detection outcome; the raw
//! waveform itself is regenerated on demand from the stored noise seed so
//! that campaigns stay small in memory.
//!
//! The environment itself is pluggable: [`Campaign::generate`] runs the
//! paper's scenario, while [`Campaign::generate_spec`] /
//! [`Campaign::generate_scenario`] accept any
//! [`vvd_channel::ChannelScenario`] — crowds, stochastic
//! fading, noise overlays — built from a spec string such as
//! `"room:large,humans=4,speed=1.5"` (see `vvd_channel::scenario`).
//!
//! # Determinism and parallelism
//!
//! Generation has two phases per set.  The *scenario phase* is sequential:
//! it drives the scenario's RNG stream (trajectory, per-packet CIR, crystal
//! phase) in transmission order, exactly like the pre-scenario harness, so
//! `"paper"` campaigns are bit-identical to the historical ones
//! (`tests/scenario_golden.rs`).  The *synthesis phase* — depth-image
//! rendering, waveform modulation, channel application, LS estimation,
//! synchronisation — is embarrassingly parallel across frames and packets
//! (each packet's receiver noise comes from its own seeded RNG) and fans
//! out through [`vvd_dsp::par_map`]; its outputs are identical at any
//! worker count.
//!
//! Neither synthesis stage redoes immutable work.  The blocker-free room is
//! traced once per campaign over the 50 × 90 crop window ([`camera_view`]),
//! so a frame only intersects the people with the stored rays
//! ([`render_frame`]); the perfect LS estimate forms its normal equations
//! from correlations instead of the dense convolution matrix.  Both are
//! bit-identical to the direct computations (see `vvd_vision::render` and
//! `vvd_estimation::ls`).

use crate::config::EvalConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vvd_channel::noise::{component_std_for_noise_power, noise_power_for_snr};
use vvd_channel::scenario::{PacketChannel, PaperScenario, ScenarioRegistry, SpecParseError};
use vvd_channel::{apply_channel, ChannelRealization, ChannelScenario, Room};
use vvd_dsp::{par_map, CVec, Complex, FirFilter};
use vvd_estimation::ls::perfect_estimate;
use vvd_phy::{modulate_frame, ModulatedFrame, PsduBuilder, Receiver};
use vvd_vision::scene::{Aabb, Plane, Scene, Vec3, VerticalCylinder};
use vvd_vision::{DepthImage, PinholeCamera, PreprocessConfig, StaticView};

/// One camera frame of a measurement set.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Frame index within the set.
    pub index: usize,
    /// Capture time relative to the start of the set (seconds).
    pub time_s: f64,
    /// Preprocessed (cropped, normalised) depth image.
    pub image: DepthImage,
    /// Blocker positions at capture time, in blocker order (empty for
    /// scenarios without physical blockers; the paper's scenario has one).
    pub blockers: Vec<(f64, f64)>,
}

/// One transmitted packet of a measurement set.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Packet index within the set.
    pub index: usize,
    /// Transmission time relative to the start of the set (seconds).
    pub time_s: f64,
    /// Sequence number carried in the PSDU.
    pub sequence: u16,
    /// Blocker positions at transmission time, in blocker order.
    pub blockers: Vec<(f64, f64)>,
    /// Block-fading channel realisation of this packet.
    pub realization: ChannelRealization,
    /// Seed used to regenerate the receiver noise of this packet.
    pub noise_seed: u64,
    /// Perfect channel estimation (LS over the whole packet) — the paper's
    /// ground truth, including the packet's crystal phase offset.
    pub perfect_cir: FirFilter,
    /// The perfect estimate with the crystal phase offset removed; this is
    /// the "channel state" history used for training time-series predictors
    /// and VVD (the per-packet phase is re-attached at decode time via the
    /// Eq.-8 alignment).
    pub aligned_cir: FirFilter,
    /// Whether the preamble correlation exceeded the detection threshold.
    pub preamble_detected: bool,
    /// Peak normalized preamble correlation.
    pub preamble_correlation: f64,
    /// Index of the camera frame synchronised with this packet.
    pub frame_index: usize,
}

/// One measurement set ("take") of the campaign.
#[derive(Debug, Clone)]
pub struct MeasurementSet {
    /// 1-based set identifier (matching Table 2's numbering).
    pub set_id: usize,
    /// Packets in transmission order.
    pub packets: Vec<PacketRecord>,
    /// Camera frames in capture order.
    pub frames: Vec<FrameRecord>,
}

/// A complete simulated measurement campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The configuration the campaign was generated with.
    pub config: EvalConfig,
    /// Canonical spec of the scenario the campaign was generated from
    /// (`"paper"` for [`Campaign::generate`]).
    pub scenario: String,
    /// The room geometry shared by the radio and camera simulators.
    pub room: Room,
    /// The measurement sets.
    pub sets: Vec<MeasurementSet>,
}

/// Builds the depth-camera scene for the room with the given blockers
/// standing in it (each rendered as the standard human cylinder).
pub fn build_scene(room: &Room, blockers: &[(f64, f64)]) -> Scene {
    Scene {
        planes: vec![
            Plane::Z(0.0),
            Plane::X(0.0),
            Plane::X(room.width),
            Plane::Y(room.depth),
        ],
        boxes: room
            .scatterers
            .iter()
            .map(|s| Aabb::from_footprint(s.position.x, s.position.y, s.half_extent, s.height))
            .collect(),
        cylinders: human_cylinders(blockers),
        max_depth: 12.0,
    }
}

/// The standard human stand-in for each blocker position: a 0.25 m radius,
/// 1.8 m tall cylinder on the floor.
fn human_cylinders(blockers: &[(f64, f64)]) -> Vec<VerticalCylinder> {
    blockers
        .iter()
        .map(|&(x, y)| VerticalCylinder {
            x,
            y,
            radius: 0.25,
            z_min: 0.0,
            z_max: 1.8,
        })
        .collect()
}

/// The surveillance camera of the room.
pub fn build_camera(room: &Room) -> PinholeCamera {
    PinholeCamera::surveillance(
        Vec3::new(room.camera.x, room.camera.y, room.camera.z),
        Vec3::new(
            room.camera_target.x,
            room.camera_target.y,
            room.camera_target.z,
        ),
    )
}

/// The camera's view of the blocker-free room over the preprocessing crop
/// window, traced once per campaign.
///
/// `PreprocessConfig::default()` renders at the already-downsampled
/// resolution (downsample factor 1), so its crop is a plain window of the
/// rendered frame and [`render_frame`] equals rendering the full frame and
/// preprocessing it.
pub fn camera_view(room: &Room, camera: &PinholeCamera) -> StaticView {
    let crop = PreprocessConfig::default();
    StaticView::new(
        &build_scene(room, &[]),
        camera,
        crop.crop_row_start..crop.crop_row_start + crop.crop_rows,
        crop.crop_col_start..crop.crop_col_start + crop.crop_cols,
    )
}

/// Renders one preprocessed (cropped, normalised) depth frame with the
/// given blockers standing in the room of `view`.
pub fn render_frame(view: &StaticView, blockers: &[(f64, f64)]) -> DepthImage {
    view.render(&human_cylinders(blockers))
        .scaled(PreprocessConfig::default().normalization_depth)
}

/// Renders the preprocessed depth image of the room with the given
/// blockers standing in it, through a fresh [`camera_view`].
pub fn render_preprocessed(
    room: &Room,
    camera: &PinholeCamera,
    blockers: &[(f64, f64)],
) -> DepthImage {
    render_frame(&camera_view(room, camera), blockers)
}

/// Sequential-phase output for one packet: everything the scenario decided,
/// before the (parallel) waveform synthesis.
struct PacketDraw {
    time_s: f64,
    blockers: Vec<(f64, f64)>,
    channel: PacketChannel,
    frame_index: usize,
}

impl Campaign {
    /// Generates a campaign of the paper's scenario (laboratory room,
    /// single random-waypoint human) according to the configuration.
    pub fn generate(config: &EvalConfig) -> Campaign {
        let mut scenario = PaperScenario::new(config.cir);
        Self::generate_scenario(config, &mut scenario)
    }

    /// Generates a campaign of the scenario described by `spec` (built
    /// through the default [`ScenarioRegistry`] with this configuration's
    /// CIR settings), e.g. `"rician:k=6,doppler=30"` or
    /// `"paper+burst-noise:p=0.01"`.
    pub fn generate_spec(config: &EvalConfig, spec: &str) -> Result<Campaign, SpecParseError> {
        let registry = ScenarioRegistry::new().with_cir_config(config.cir);
        let mut scenario = registry.build(spec)?;
        Ok(Self::generate_scenario(config, &mut scenario))
    }

    /// Generates a campaign of an arbitrary scenario, fanning the per-set
    /// synthesis work out over the available parallelism.
    pub fn generate_scenario(config: &EvalConfig, scenario: &mut dyn ChannelScenario) -> Campaign {
        Self::generate_scenario_with(config, scenario, vvd_dsp::worker_budget())
    }

    /// [`generate_scenario`](Self::generate_scenario) with an explicit
    /// synthesis worker count (1 = fully sequential).  The output is
    /// bit-identical at every worker count; the knob exists for tests and
    /// for embedding into outer parallel sweeps.
    pub fn generate_scenario_with(
        config: &EvalConfig,
        scenario: &mut dyn ChannelScenario,
        workers: usize,
    ) -> Campaign {
        let room = scenario.room().clone();
        let view = camera_view(&room, &build_camera(&room));
        let receiver = Receiver::new(config.phy);
        let builder = PsduBuilder::new(&config.phy);

        // Noise level calibrated against the scenario's nominal (unblocked)
        // channel.
        let nominal = scenario.nominal_cir();
        let probe = modulate_frame(&config.phy, &builder.build(0));
        let nominal_rx_power = probe.waveform.power() * nominal.energy();
        let noise_std =
            component_std_for_noise_power(noise_power_for_snr(nominal_rx_power, config.snr_db));

        let mut sets = Vec::with_capacity(config.n_sets);
        for set_idx in 0..config.n_sets {
            let set_id = set_idx + 1;
            let mut rng = StdRng::seed_from_u64(config.seed ^ (set_id as u64 * 0x9E37_79B9));

            // --- Scenario phase (sequential, owns the RNG stream) --------
            // Blocker trajectory at the camera frame rate; packet-time
            // positions are interpolated from it.
            let duration = config.set_duration_s();
            let n_frames = (duration / config.frame_period_s()).ceil() as usize + 4;
            let snapshots = scenario.begin_set(config.frame_period_s(), n_frames, &mut rng);

            let draws: Vec<PacketDraw> = (0..config.packets_per_set)
                .map(|k| {
                    let time_s = k as f64 * config.packet_period_s();
                    let blockers =
                        interpolate_snapshot(&snapshots, config.frame_period_s(), time_s);
                    let channel = scenario.packet_channel(time_s, &blockers, &mut rng);
                    let frame_index =
                        nearest_frame(snapshots.len(), config.frame_period_s(), time_s);
                    PacketDraw {
                        time_s,
                        blockers,
                        channel,
                        frame_index,
                    }
                })
                .collect();

            // --- Synthesis phase (parallel, pure per item) ---------------
            let frames: Vec<FrameRecord> =
                par_map(&snapshots, workers, |i, blockers| FrameRecord {
                    index: i,
                    time_s: i as f64 * config.frame_period_s(),
                    image: render_frame(&view, blockers),
                    blockers: blockers.clone(),
                });

            let packets: Vec<PacketRecord> = par_map(&draws, workers, |k, draw| {
                let realization = ChannelRealization {
                    fir: draw.channel.fir.clone(),
                    phase_offset: draw.channel.phase_offset,
                    noise_std: noise_std * draw.channel.noise_scale,
                };
                let noise_seed = config.seed
                    ^ (set_id as u64).wrapping_mul(0x517C_C1B7_2722_0A95)
                    ^ (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);

                let sequence = (k % u16::MAX as usize) as u16;
                let tx = modulate_frame(&config.phy, &builder.build(sequence));
                let mut noise_rng = StdRng::seed_from_u64(noise_seed);
                let received = apply_channel(&tx.waveform, &realization, &mut noise_rng);

                let perfect_cir =
                    perfect_estimate(&tx, received.as_slice(), config.equalizer.channel_taps)
                        .unwrap_or_else(|_| {
                            FirFilter::from_taps(&vec![
                                Complex::ZERO;
                                config.equalizer.channel_taps
                            ])
                        });
                let aligned_cir = perfect_cir.rotated(Complex::cis(-draw.channel.phase_offset));
                let sync = receiver.synchronize(received.as_slice(), &tx);

                PacketRecord {
                    index: k,
                    time_s: draw.time_s,
                    sequence,
                    blockers: draw.blockers.clone(),
                    realization,
                    noise_seed,
                    perfect_cir,
                    aligned_cir,
                    preamble_detected: sync.preamble_detected,
                    preamble_correlation: sync.correlation,
                    frame_index: draw.frame_index,
                }
            });

            sets.push(MeasurementSet {
                set_id,
                packets,
                frames,
            });
        }

        Campaign {
            config: *config,
            scenario: scenario.spec(),
            room,
            sets,
        }
    }

    /// Returns the measurement set with the given 1-based identifier.
    pub fn set(&self, set_id: usize) -> &MeasurementSet {
        &self.sets[set_id - 1]
    }

    /// Regenerates the transmitted frame and the raw received waveform of a
    /// packet (bit-identical to what was used during generation).
    pub fn received_waveform(&self, set_id: usize, packet_index: usize) -> (ModulatedFrame, CVec) {
        let record = &self.set(set_id).packets[packet_index];
        let builder = PsduBuilder::new(&self.config.phy);
        let tx = modulate_frame(&self.config.phy, &builder.build(record.sequence));
        let mut rng = StdRng::seed_from_u64(record.noise_seed);
        let received = apply_channel(&tx.waveform, &record.realization, &mut rng);
        (tx, received)
    }

    /// Total number of packets across all sets.
    pub fn total_packets(&self) -> usize {
        self.sets.iter().map(|s| s.packets.len()).sum::<usize>()
    }
}

/// Element-wise linear interpolation of the blocker positions at an
/// arbitrary time from the frame-rate trajectory (blocker `j` of
/// consecutive snapshots is the same person).
///
/// When the two bracketing snapshots disagree in length — a scenario whose
/// population changes mid-set, e.g. a replayed `MobilityTrace` with people
/// entering or leaving — blending would pair positions of different
/// people, so the nearer snapshot is used as-is instead (piecewise
/// constant across the membership change).
fn interpolate_snapshot(
    snapshots: &[Vec<(f64, f64)>],
    frame_period: f64,
    time_s: f64,
) -> Vec<(f64, f64)> {
    if snapshots.is_empty() {
        return Vec::new();
    }
    let idx = time_s / frame_period;
    let lo = (idx.floor() as usize).min(snapshots.len() - 1);
    let hi = (lo + 1).min(snapshots.len() - 1);
    let frac = idx - lo as f64;
    if snapshots[lo].len() != snapshots[hi].len() {
        let nearest = if frac < 0.5 { lo } else { hi };
        return snapshots[nearest].clone();
    }
    snapshots[lo]
        .iter()
        .zip(&snapshots[hi])
        .map(|(a, b)| (a.0 + (b.0 - a.0) * frac, a.1 + (b.1 - a.1) * frac))
        .collect()
}

/// Index of the camera frame captured closest to the given time.
fn nearest_frame(n_frames: usize, frame_period: f64, time_s: f64) -> usize {
    ((time_s / frame_period).round() as usize).min(n_frames.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 2;
        cfg.packets_per_set = 12;
        Campaign::generate(&cfg)
    }

    #[test]
    fn campaign_has_expected_structure() {
        let campaign = tiny_campaign();
        assert_eq!(campaign.scenario, "paper");
        assert_eq!(campaign.sets.len(), 2);
        assert_eq!(campaign.total_packets(), 24);
        for set in &campaign.sets {
            assert_eq!(set.packets.len(), 12);
            assert!(set.frames.len() >= 36, "expected ≥3 frames per packet");
            // Packet ↔ frame association points inside the frame list.
            for p in &set.packets {
                assert!(p.frame_index < set.frames.len());
                let frame_time = set.frames[p.frame_index].time_s;
                assert!((frame_time - p.time_s).abs() <= 0.017 + 1e-9);
            }
        }
    }

    #[test]
    fn images_are_paper_sized_and_normalised() {
        let campaign = tiny_campaign();
        let frame = &campaign.sets[0].frames[0];
        assert_eq!(frame.image.height(), 50);
        assert_eq!(frame.image.width(), 90);
        assert!(frame.image.max() <= 1.0 + 1e-6);
        assert!(frame.image.min() >= 0.0);
    }

    #[test]
    fn received_waveform_regeneration_is_deterministic() {
        let campaign = tiny_campaign();
        let (tx_a, rx_a) = campaign.received_waveform(1, 3);
        let (tx_b, rx_b) = campaign.received_waveform(1, 3);
        assert_eq!(tx_a.frame.psdu, tx_b.frame.psdu);
        assert_eq!(rx_a, rx_b);
        // And the stored perfect CIR matches a re-estimation from the
        // regenerated waveform.
        let record = &campaign.sets[0].packets[3];
        let re_est = perfect_estimate(
            &tx_a,
            rx_a.as_slice(),
            campaign.config.equalizer.channel_taps,
        )
        .unwrap();
        assert!(re_est.taps().squared_error(record.perfect_cir.taps()) < 1e-18);
    }

    #[test]
    fn ground_truth_estimates_track_the_true_channel() {
        // At the campaign's low operating SNR the LS estimate of a deeply
        // body-shadowed packet is noise-dominated, so the check is on the
        // median relative error across packets rather than on every packet.
        let campaign = tiny_campaign();
        let mut rels: Vec<f64> = Vec::new();
        for set in &campaign.sets {
            for p in &set.packets {
                let truth = p.realization.effective_fir();
                rels.push(p.perfect_cir.taps().squared_error(truth.taps()) / truth.energy());
            }
        }
        rels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rels[rels.len() / 2];
        assert!(median < 1.0, "median relative estimation error {median}");
    }

    #[test]
    fn aligned_cir_removes_the_crystal_phase() {
        let campaign = tiny_campaign();
        let p = &campaign.sets[0].packets[0];
        let expected = p
            .perfect_cir
            .rotated(Complex::cis(-p.realization.phase_offset));
        assert!(expected.taps().squared_error(p.aligned_cir.taps()) < 1e-24);
    }

    #[test]
    fn most_preambles_are_detected() {
        let campaign = tiny_campaign();
        let total: usize = campaign.sets.iter().map(|s| s.packets.len()).sum();
        let detected: usize = campaign
            .sets
            .iter()
            .flat_map(|s| s.packets.iter())
            .filter(|p| p.preamble_detected)
            .count();
        assert!(
            detected * 3 >= total,
            "fewer than a third of the preambles detected ({detected}/{total})"
        );
    }

    #[test]
    fn different_sets_have_different_trajectories() {
        let campaign = tiny_campaign();
        let a = &campaign.sets[0].packets[5].blockers;
        let b = &campaign.sets[1].packets[5].blockers;
        assert_ne!(a, b);
    }

    #[test]
    fn worker_count_does_not_change_the_campaign() {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 1;
        cfg.packets_per_set = 8;
        let mut sequential_scenario = PaperScenario::new(cfg.cir);
        let sequential = Campaign::generate_scenario_with(&cfg, &mut sequential_scenario, 1);
        let mut parallel_scenario = PaperScenario::new(cfg.cir);
        let parallel = Campaign::generate_scenario_with(&cfg, &mut parallel_scenario, 7);
        assert_eq!(sequential.sets.len(), parallel.sets.len());
        for (s, p) in sequential.sets.iter().zip(&parallel.sets) {
            assert_eq!(s.packets.len(), p.packets.len());
            for (a, b) in s.packets.iter().zip(&p.packets) {
                assert_eq!(a.perfect_cir.taps(), b.perfect_cir.taps());
                assert_eq!(a.realization, b.realization);
                assert_eq!(a.preamble_detected, b.preamble_detected);
                assert_eq!(a.blockers, b.blockers);
            }
            for (a, b) in s.frames.iter().zip(&p.frames) {
                assert_eq!(a.image.data(), b.image.data());
            }
        }
    }

    #[test]
    fn spec_generation_labels_the_campaign_and_validates() {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 1;
        cfg.packets_per_set = 6;
        let campaign = Campaign::generate_spec(&cfg, "rayleigh:doppler=10").unwrap();
        assert_eq!(campaign.scenario, "rayleigh:doppler=10");
        // No physical blockers: frames and packets carry empty positions.
        assert!(campaign.sets[0]
            .frames
            .iter()
            .all(|f| f.blockers.is_empty()));
        assert!(campaign.sets[0]
            .packets
            .iter()
            .all(|p| p.blockers.is_empty()));
        assert!(Campaign::generate_spec(&cfg, "nonsense").is_err());
    }

    #[test]
    fn membership_changes_interpolate_piecewise_constant() {
        // Equal-length snapshots blend linearly.
        let steady = vec![vec![(0.0, 0.0)], vec![(1.0, 2.0)]];
        assert_eq!(interpolate_snapshot(&steady, 1.0, 0.5), vec![(0.5, 1.0)]);
        // A person appears between samples: no cross-person blending — the
        // nearer snapshot wins wholesale.
        let changing = vec![vec![(0.0, 0.0)], vec![(1.0, 2.0), (5.0, 5.0)]];
        assert_eq!(interpolate_snapshot(&changing, 1.0, 0.25), vec![(0.0, 0.0)]);
        assert_eq!(
            interpolate_snapshot(&changing, 1.0, 0.75),
            vec![(1.0, 2.0), (5.0, 5.0)]
        );
    }

    /// Per window pixel, the frame must equal tracing the whole scene
    /// through that pixel and normalising, bit for bit.
    fn assert_frame_matches_trace(room: &Room, blockers: &[(f64, f64)], frame: &DepthImage) {
        let camera = build_camera(room);
        let scene = build_scene(room, blockers);
        let crop = PreprocessConfig::default();
        assert_eq!(
            (frame.height(), frame.width()),
            (crop.crop_rows, crop.crop_cols)
        );
        for r in 0..crop.crop_rows {
            for c in 0..crop.crop_cols {
                let ray = camera.ray_for_pixel(crop.crop_row_start + r, crop.crop_col_start + c);
                let expected = scene.trace(&ray) as f32 / 12.0;
                assert_eq!(
                    frame.get(r, c).to_bits(),
                    expected.to_bits(),
                    "pixel ({r}, {c}) with blockers {blockers:?}"
                );
            }
        }
    }

    /// Pixels a blocker changes in the full frame, (inside, outside) the
    /// crop window.
    fn visible_pixels(room: &Room, blocker: (f64, f64)) -> (usize, usize) {
        let camera = build_camera(room);
        let full = StaticView::new(
            &build_scene(room, &[]),
            &camera,
            0..camera.height,
            0..camera.width,
        );
        let empty = full.render(&[]);
        let with = full.render(&human_cylinders(&[blocker]));
        let crop = PreprocessConfig::default();
        let (mut inside, mut outside) = (0, 0);
        for r in 0..camera.height {
            for c in 0..camera.width {
                if with.get(r, c) != empty.get(r, c) {
                    let in_rows =
                        (crop.crop_row_start..crop.crop_row_start + crop.crop_rows).contains(&r);
                    let in_cols =
                        (crop.crop_col_start..crop.crop_col_start + crop.crop_cols).contains(&c);
                    if in_rows && in_cols {
                        inside += 1;
                    } else {
                        outside += 1;
                    }
                }
            }
        }
        (inside, outside)
    }

    #[test]
    fn window_frames_match_tracing_the_whole_scene() {
        // Per room: a blocker inside the crop window, one visible only
        // outside it, one straddling its edge, and a crowd of three.
        let rooms = [
            (
                Room::laboratory(),
                [(4.0, 3.0), (0.5, 3.0), (4.0, 1.2)],
                [(3.0, 2.5), (4.0, 3.0), (5.0, 4.0)],
            ),
            (
                Room::small_office(),
                [(2.5, 2.0), (0.3, 1.3), (2.5, 1.0)],
                [(1.5, 2.0), (2.5, 2.0), (3.5, 3.0)],
            ),
            (
                Room::large_hall(),
                [(7.0, 5.0), (7.0, 1.5), (7.0, 2.0)],
                [(5.0, 4.0), (7.0, 5.0), (9.0, 7.0)],
            ),
        ];
        for (room, [in_view, out_of_view, straddling], crowd) in rooms {
            let (inside, outside) = visible_pixels(&room, in_view);
            assert!(
                inside > 0 && outside == 0,
                "{in_view:?}: {inside}/{outside}"
            );
            let (inside, outside) = visible_pixels(&room, out_of_view);
            assert!(
                inside == 0 && outside > 0,
                "{out_of_view:?}: {inside}/{outside}"
            );
            let (inside, outside) = visible_pixels(&room, straddling);
            assert!(
                inside > 0 && outside > 0,
                "{straddling:?}: {inside}/{outside}"
            );

            let view = camera_view(&room, &build_camera(&room));
            let blocker_sets: [&[(f64, f64)]; 5] =
                [&[], &[in_view], &[out_of_view], &[straddling], &crowd];
            for blockers in blocker_sets {
                assert_frame_matches_trace(&room, blockers, &render_frame(&view, blockers));
            }
        }
    }

    #[test]
    fn campaign_frames_match_tracing_the_whole_scene() {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 1;
        cfg.packets_per_set = 4;
        for spec in ["paper", "room:small,humans=3", "room:large,humans=2"] {
            let campaign = Campaign::generate_spec(&cfg, spec).unwrap();
            for frame in &campaign.sets[0].frames {
                assert_frame_matches_trace(&campaign.room, &frame.blockers, &frame.image);
            }
        }
    }

    #[test]
    fn crowd_campaigns_render_every_blocker() {
        let mut cfg = EvalConfig::smoke();
        cfg.n_sets = 1;
        cfg.packets_per_set = 6;
        let campaign = Campaign::generate_spec(&cfg, "room:lab,humans=3,speed=1").unwrap();
        let set = &campaign.sets[0];
        assert!(set.frames.iter().all(|f| f.blockers.len() == 3));
        assert!(set.packets.iter().all(|p| p.blockers.len() == 3));
        // A crowd of three darkens the depth image relative to an empty
        // room somewhere in the set.
        let room = &campaign.room;
        let camera = build_camera(room);
        let empty = render_preprocessed(room, &camera, &[]);
        assert!(set
            .frames
            .iter()
            .any(|f| f.image.mean_abs_diff(&empty) > 1e-4));
    }
}
