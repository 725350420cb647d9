//! Quarantined wall-clock access for serve observability.
//!
//! The engine runs on a simulated tick clock; wall time is *observability
//! only* ([`ServeReport::digest`](crate::ServeReport::digest) deliberately
//! excludes every timing statistic).  This module is the single place the
//! workspace reads the wall clock outside bench code — the serve engine's
//! phase timings and the vvd-net coordinator's cluster wall time both go
//! through [`Stopwatch`] — and it is the only entry in vvd-analyze's
//! `timing_modules` allowlist.  An `Instant::now()` anywhere else in a
//! checked crate is a lint violation, which is how "wall time never
//! influences results" stays enforced while timings are still measured.

/// A started wall-clock timer (a minimal `Instant` wrapper).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Wall time elapsed since [`start`](Self::start).
    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let first = sw.elapsed();
        assert!(sw.elapsed() >= first);
    }
}
