//! Synthesis of the sample-spaced channel impulse response.
//!
//! The estimators in the paper treat the channel as an 11-tap FIR filter at
//! the 8 MHz sampling grid, with pre-cursor taps allowed so that the
//! dominant energy sits around taps 6–8 (Fig. 5a).  This module turns the
//! enumerated multipath components, the current human position and a small
//! stochastic residual into exactly that kind of filter.
//!
//! One deliberate modelling knob is documented here and in `DESIGN.md`:
//! `delay_taps_per_meter` maps the *excess* geometric path length of a
//! component to a (fractional) tap offset.  With a physically exact mapping
//! (8 MHz ⇒ 37.5 m per tap) every indoor path would collapse onto a single
//! tap and inter-symbol interference would vanish, which would make all
//! equalization-based techniques indistinguishable; the original testbed
//! sees a wider effective delay spread because of the analog front end,
//! sampling filters and higher-order reflections.  The default of 1.0
//! taps/m reproduces the paper's tap structure (dominant taps in the middle
//! of the window, weaker leakage taps around them).

use crate::blockage::blockage_factor;
use crate::human::Human;
use crate::paths::{enumerate_paths, human_scatter_path, MultipathComponent};
use crate::room::Room;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use vvd_dsp::{CVec, Complex, FirFilter};

/// Configuration of the tapped-delay-line synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CirConfig {
    /// Number of FIR taps of the true channel (the paper estimates 11).
    pub n_taps: usize,
    /// Tap index (0-based) at which the line-of-sight component lands,
    /// i.e. the number of pre-cursor taps.
    pub los_tap: usize,
    /// Fractional taps of delay per metre of excess path length (see module
    /// docs for why this is a modelling knob rather than `fs/c`).
    pub delay_taps_per_meter: f64,
    /// Amplitude reflectivity of the human body for the dynamic
    /// TX → human → RX scatter path.
    pub human_scatter_reflectivity: f64,
    /// Standard deviation of the diffuse residual per tap, relative to the
    /// magnitude of the strongest deterministic tap.
    pub diffuse_relative_std: f64,
    /// Exponential decay (per tap) of the diffuse residual profile.
    pub diffuse_decay: f64,
}

vvd_dsp::wire_struct!(CirConfig {
    n_taps,
    los_tap,
    delay_taps_per_meter,
    human_scatter_reflectivity,
    diffuse_relative_std,
    diffuse_decay
});

impl Default for CirConfig {
    fn default() -> Self {
        CirConfig {
            n_taps: 11,
            los_tap: 5,
            delay_taps_per_meter: 1.0,
            human_scatter_reflectivity: 0.25,
            diffuse_relative_std: 0.02,
            diffuse_decay: 0.75,
        }
    }
}

/// Synthesises per-packet channel impulse responses for a given room.
#[derive(Debug, Clone)]
pub struct CirSynthesizer {
    room: Room,
    static_paths: Vec<MultipathComponent>,
    config: CirConfig,
}

impl CirSynthesizer {
    /// Builds a synthesizer for a room, enumerating the static multipath
    /// components once.
    pub fn new(room: Room, config: CirConfig) -> Self {
        let static_paths = enumerate_paths(&room);
        CirSynthesizer {
            room,
            static_paths,
            config,
        }
    }

    /// The room this synthesizer models.
    pub fn room(&self) -> &Room {
        &self.room
    }

    /// The synthesis configuration.
    pub fn config(&self) -> &CirConfig {
        &self.config
    }

    /// The enumerated static multipath components.
    pub fn static_paths(&self) -> &[MultipathComponent] {
        &self.static_paths
    }

    /// Normalised sinc used for fractional-delay tap placement.
    fn sinc(x: f64) -> f64 {
        if x.abs() < 1e-9 {
            1.0
        } else {
            let px = std::f64::consts::PI * x;
            px.sin() / px
        }
    }

    /// Places a component of complex amplitude `amp` at fractional tap
    /// position `pos` onto the tap grid by band-limited (sinc) interpolation.
    fn place(taps: &mut CVec, amp: Complex, pos: f64) {
        for (k, tap) in taps.iter_mut().enumerate() {
            let w = Self::sinc(k as f64 - pos);
            if w.abs() > 1e-6 {
                *tap += amp.scale(w);
            }
        }
    }

    /// The deterministic part of the CIR for a given human position
    /// (no diffuse residual) — what a perfect geometry-aware oracle could
    /// predict from the camera image alone.
    pub fn deterministic_cir(&self, human: &Human) -> FirFilter {
        self.deterministic_cir_for(std::slice::from_ref(human))
    }

    /// [`deterministic_cir`](Self::deterministic_cir) generalised to any
    /// blocker population: every static component is attenuated by the
    /// *product* of the per-blocker shadowing factors, and each blocker
    /// contributes its own TX → body → RX scatter bounce.  With a single
    /// blocker this is bit-identical to the single-human path (the crowd
    /// scenarios are strict supersets of the paper's model).
    pub fn deterministic_cir_for(&self, humans: &[Human]) -> FirFilter {
        let cfg = &self.config;
        let los_len = self.room.los_distance();
        let mut taps = CVec::zeros(cfg.n_taps);

        for component in &self.static_paths {
            let factor = humans
                .iter()
                .fold(1.0, |f, human| f * blockage_factor(component, human));
            let amp = component.gain.scale(factor);
            let pos =
                cfg.los_tap as f64 + component.excess_length(los_len) * cfg.delay_taps_per_meter;
            Self::place(&mut taps, amp, pos);
        }

        // Dynamic bounces off the blockers' bodies themselves.
        for human in humans {
            let scatter =
                human_scatter_path(&self.room, human.x, human.y, cfg.human_scatter_reflectivity);
            let pos =
                cfg.los_tap as f64 + scatter.excess_length(los_len) * cfg.delay_taps_per_meter;
            Self::place(&mut taps, scatter.gain, pos);
        }

        FirFilter::new(taps)
    }

    /// A full per-packet channel realisation: deterministic part plus the
    /// diffuse stochastic residual drawn from `rng`.
    pub fn cir<R: Rng + ?Sized>(&self, human: &Human, rng: &mut R) -> FirFilter {
        self.cir_for(std::slice::from_ref(human), rng)
    }

    /// [`cir`](Self::cir) generalised to any blocker population (see
    /// [`deterministic_cir_for`](Self::deterministic_cir_for)).
    pub fn cir_for<R: Rng + ?Sized>(&self, humans: &[Human], rng: &mut R) -> FirFilter {
        let cfg = &self.config;
        let deterministic = self.deterministic_cir_for(humans);
        let peak = deterministic.taps().max_abs();
        let normal = Normal::new(0.0, 1.0).expect("valid normal");
        let mut taps = deterministic.into_taps();
        for (k, tap) in taps.iter_mut().enumerate() {
            let distance_from_main = (k as f64 - cfg.los_tap as f64).abs();
            let std = cfg.diffuse_relative_std * peak * cfg.diffuse_decay.powf(distance_from_main);
            let re: f64 = normal.sample(rng) * std;
            let im: f64 = normal.sample(rng) * std;
            *tap += Complex::new(re, im);
        }
        FirFilter::new(taps)
    }

    /// The nominal (human absent from all paths) channel: the human is
    /// parked far outside the movement area.  Used to calibrate noise power
    /// for a target SNR.
    pub fn nominal_cir(&self) -> FirFilter {
        let parked = Human::at(-100.0, -100.0);
        self.deterministic_cir(&parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synth() -> CirSynthesizer {
        CirSynthesizer::new(Room::laboratory(), CirConfig::default())
    }

    #[test]
    fn cir_has_configured_length_and_dominant_tap_near_los() {
        let s = synth();
        let h = Human::at(2.0, 4.5); // away from every path
        let cir = s.deterministic_cir(&h);
        assert_eq!(cir.len(), 11);
        let dom = cir.dominant_tap().unwrap();
        assert!(
            (4..=7).contains(&dom),
            "dominant tap {dom} not in the middle of the window"
        );
    }

    #[test]
    fn blocking_the_los_reduces_channel_energy() {
        let s = synth();
        let clear = s.deterministic_cir(&Human::at(2.0, 4.7));
        let blocked = s.deterministic_cir(&Human::at(4.0, 3.0));
        assert!(
            blocked.energy() < 0.6 * clear.energy(),
            "blocked energy {} vs clear {}",
            blocked.energy(),
            clear.energy()
        );
    }

    #[test]
    fn hypothesis_same_position_gives_similar_cir() {
        // Hypothesis 2: same displacement at different times => similar MPCs.
        let s = synth();
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(999);
        let a = s.cir(&Human::at(3.4, 2.6), &mut rng1);
        let b = s.cir(&Human::at(3.4, 2.6), &mut rng2);
        let rel_err = a.taps().squared_error(b.taps()) / a.energy();
        assert!(
            rel_err < 0.05,
            "same position should give similar CIR, rel_err={rel_err}"
        );
    }

    #[test]
    fn hypothesis_different_position_gives_different_cir() {
        // Hypothesis 1: displacement changes MPC amplitude/phase.
        let s = synth();
        let a = s.deterministic_cir(&Human::at(4.0, 3.0));
        let b = s.deterministic_cir(&Human::at(2.2, 4.5));
        let rel_err = a.taps().squared_error(b.taps()) / b.energy();
        assert!(
            rel_err > 0.1,
            "different positions too similar, rel_err={rel_err}"
        );
    }

    #[test]
    fn diffuse_residual_is_small_but_nonzero() {
        let s = synth();
        let h = Human::at(3.0, 2.0);
        let det = s.deterministic_cir(&h);
        let mut rng = StdRng::seed_from_u64(7);
        let noisy = s.cir(&h, &mut rng);
        let rel = noisy.taps().squared_error(det.taps()) / det.energy();
        assert!(rel > 0.0);
        assert!(rel < 0.05, "diffuse residual too large: {rel}");
    }

    #[test]
    fn nominal_cir_is_stronger_than_blocked() {
        let s = synth();
        let nominal = s.nominal_cir();
        let blocked = s.deterministic_cir(&Human::at(4.0, 3.0));
        assert!(nominal.energy() > blocked.energy());
    }

    #[test]
    fn single_blocker_slice_matches_single_human_path() {
        let s = synth();
        let h = Human::at(3.1, 2.9);
        assert_eq!(
            s.deterministic_cir(&h).taps(),
            s.deterministic_cir_for(&[h]).taps()
        );
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        assert_eq!(
            s.cir(&h, &mut rng_a).taps(),
            s.cir_for(&[h], &mut rng_b).taps()
        );
    }

    #[test]
    fn extra_blockers_only_remove_deterministic_energy_from_static_paths() {
        // A second person standing on the LoS drains energy compared to the
        // same scene without them (their own scatter bounce is far weaker
        // than what body shadowing removes).
        let s = synth();
        let bystander = Human::at(2.2, 4.5); // away from every path
        let on_los = Human::at(4.0, 3.0);
        let one = s.deterministic_cir_for(&[bystander]);
        let two = s.deterministic_cir_for(&[bystander, on_los]);
        assert!(
            two.energy() < 0.7 * one.energy(),
            "crowding the LoS should shadow it: {} vs {}",
            two.energy(),
            one.energy()
        );
    }

    #[test]
    fn empty_population_is_the_unobstructed_room() {
        let s = synth();
        let empty = s.deterministic_cir_for(&[]);
        // No blockage and no body scatter: strictly the static paths.
        assert_eq!(empty.len(), 11);
        assert!(empty.energy() > 0.0);
        let clear = s.deterministic_cir(&Human::at(-100.0, -100.0));
        // The parked human of `nominal_cir` still contributes a (tiny)
        // scatter bounce, so the two differ — but only marginally.
        let rel = empty.taps().squared_error(clear.taps()) / clear.energy();
        assert!(rel < 1e-4, "rel {rel}");
    }

    #[test]
    fn sinc_interpolation_preserves_integer_positions() {
        let mut taps = CVec::zeros(5);
        CirSynthesizer::place(&mut taps, Complex::new(1.0, 0.0), 2.0);
        assert!((taps[2] - Complex::ONE).abs() < 1e-9);
        assert!(taps[0].abs() < 1e-9);
        assert!(taps[4].abs() < 1e-9);
    }

    #[test]
    fn fractional_position_spreads_energy() {
        let mut taps = CVec::zeros(7);
        CirSynthesizer::place(&mut taps, Complex::new(1.0, 0.0), 3.5);
        assert!(taps[3].abs() > 0.4);
        assert!(taps[4].abs() > 0.4);
        assert!(taps[0].abs() < 0.2);
    }
}
