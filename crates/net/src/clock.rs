//! Wall-clock time as the live counterpart of the simulation clock.
//!
//! The whole telemetry pipeline (events, span trees, windowed metrics,
//! SLO burn rates) thinks in `f64` seconds on a monotone axis. In the DES
//! that axis is simulated time starting at zero; live, it is seconds since
//! the server's epoch [`Instant`]. Using "seconds since server start"
//! rather than Unix time keeps the numbers small (full `f64` precision on
//! microsecond deltas) and makes live exports directly comparable with
//! simulated ones.

use std::time::Instant;

/// A shared epoch whose elapsed seconds are telemetry seconds.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Starts the clock: `now_s()` is 0.0 at this instant.
    #[must_use]
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Seconds elapsed since the epoch.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_starts_near_zero() {
        let clock = WallClock::start();
        let a = clock.now_s();
        let b = clock.now_s();
        assert!(a >= 0.0);
        assert!(b >= a);
        assert!(a < 1.0, "epoch is 'now', not Unix time");
    }
}
