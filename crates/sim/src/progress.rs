//! Live per-round progress reporting and stall detection.
//!
//! Long simulations (hundreds of thousands of rounds on large instances)
//! were previously silent until the final report. A [`RoundTicker`] hooks
//! the per-round telemetry point shared by the round model and the
//! executor and adds:
//!
//! * **Progress lines** — `[sim] round 1200/40000 (3.0%) … eta 12.4s` on
//!   stderr, throttled to one line per 200 ms, behind an
//!   explicit opt-in ([`set_progress`], the CLI's `--progress` flag) so
//!   batch runs and tests stay quiet.
//! * **Stall detection** — each round's wall duration is checked against
//!   [`STALL_FACTOR`] × the rolling median of recent rounds
//!   ([`StallDetector`]); a round that blows past it increments the
//!   `sim.stalls` counter and, when progress is on, prints a warning.
//! * **Obs events** — every round records `sim.progress_pct` and the
//!   `live.*` gauges, so a `--metrics-out` snapshot of a hung run shows
//!   where it stopped. The round's wall time stays in the ticker: it is
//!   a host timing, which only the stall check and the ETA read.
//!
//! Ticker state is per-simulation (no globals beyond the print opt-in), and
//! nothing here feeds back into the simulation: enabling progress can never
//! change a simulation result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A round is a stall when it takes more than this many times the rolling
/// median round duration.
pub const STALL_FACTOR: f64 = 8.0;

/// Rolling window of recent round durations the median is taken over.
const WINDOW: usize = 64;

/// Stall checks only start once this many rounds have been observed — a
/// median over fewer samples is noise.
const MIN_SAMPLES: usize = 5;

/// Minimum gap between progress lines.
const PRINT_INTERVAL: Duration = Duration::from_millis(200);

static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Turns stderr progress lines on or off (process-global; default off).
pub fn set_progress(enabled: bool) {
    PROGRESS.store(enabled, Ordering::Relaxed);
}

/// Whether progress lines are enabled.
#[must_use]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Flags rounds whose duration blows past [`STALL_FACTOR`] × the rolling
/// median of the last 64 rounds. Pure state machine — no clocks,
/// no I/O — so the threshold logic is unit-testable with synthetic
/// durations.
#[derive(Debug, Default)]
pub struct StallDetector {
    recent: Vec<u64>,
    next: usize,
}

impl StallDetector {
    /// Feeds one round duration; returns `Some(median_ns)` when the round
    /// is a stall relative to the rolling median *before* this observation.
    pub fn observe(&mut self, dur_ns: u64) -> Option<u64> {
        let verdict = if self.recent.len() >= MIN_SAMPLES {
            let med = self.median();
            (med > 0 && dur_ns as f64 > STALL_FACTOR * med as f64).then_some(med)
        } else {
            None
        };
        // The stalled round still enters the window: under a persistent
        // slowdown (cluster-wide degradation, not a one-off hang) the
        // median adapts instead of flagging every subsequent round.
        if self.recent.len() < WINDOW {
            self.recent.push(dur_ns);
        } else {
            self.recent[self.next] = dur_ns;
            self.next = (self.next + 1) % WINDOW;
        }
        verdict
    }

    fn median(&self) -> u64 {
        let mut sorted = self.recent.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    /// Snapshot of the rolling window for executor checkpoints: the raw
    /// samples in ring order plus the next overwrite slot.
    #[must_use]
    pub fn window(&self) -> (&[u64], usize) {
        (&self.recent, self.next)
    }

    /// Rebuilds a detector from a [`window`](Self::window) snapshot, so a
    /// restored executor sees exactly the median the interrupted run saw.
    /// Samples beyond the window are dropped defensively.
    #[must_use]
    pub fn from_window(mut samples: Vec<u64>, next: usize) -> StallDetector {
        samples.truncate(WINDOW);
        // `next` only steers overwrites once the window is full; a partial
        // window still appends, exactly as a fresh detector would.
        let next = if samples.len() < WINDOW {
            0
        } else {
            next % WINDOW
        };
        StallDetector {
            recent: samples,
            next,
        }
    }
}

/// Per-simulation progress/stall tracker; one instance per run.
#[derive(Debug)]
pub struct RoundTicker {
    total: usize,
    done: usize,
    items: u64,
    started: Instant,
    round_started: Instant,
    last_print: Instant,
    detector: StallDetector,
}

impl RoundTicker {
    /// Starts tracking a simulation of `total_rounds` rounds.
    #[must_use]
    pub fn new(total_rounds: usize) -> RoundTicker {
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_PHASE, dmig_obs::phase::SIMULATE);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ROUND, 0);
        let now = Instant::now();
        RoundTicker {
            total: total_rounds,
            done: 0,
            items: 0,
            started: now,
            round_started: now,
            // Backdate so the first eligible round prints immediately.
            last_print: now.checked_sub(PRINT_INTERVAL).unwrap_or(now),
            detector: StallDetector::default(),
        }
    }

    /// Marks one round complete: records obs events, runs the stall check,
    /// and prints a throttled progress line when enabled.
    pub fn round_done(&mut self, transfers: usize) {
        let now = Instant::now();
        let dur = now.duration_since(self.round_started);
        self.round_started = now;
        self.done += 1;
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let pct = (self.done * 100).checked_div(self.total).unwrap_or(100) as u64;
        dmig_obs::gauge_set(dmig_obs::keys::SIM_PROGRESS_PCT, pct);
        self.items += transfers as u64;
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ROUND, self.done as u64);
        dmig_obs::gauge_set(dmig_obs::keys::LIVE_ITEMS_DONE, self.items);

        if let Some(median_ns) = self.detector.observe(dur_ns) {
            dmig_obs::counter_add(dmig_obs::keys::SIM_STALLS, 1);
            if progress_enabled() {
                // Wall-clock stall events are interactive-only: their
                // payloads carry host timings, which would break the
                // byte-identical-JSONL guarantee batch runs rely on.
                dmig_obs::events::emit(dmig_obs::events::Event::Stall {
                    round: self.done as u64,
                    duration: dur_ns as f64 / 1e9,
                    median: median_ns as f64 / 1e9,
                    time: f64::NAN,
                });
                eprintln!(
                    "[sim] stall: round {}/{} took {:.1}ms (> {STALL_FACTOR}x rolling median {:.1}ms)",
                    self.done,
                    self.total,
                    dur_ns as f64 / 1e6,
                    median_ns as f64 / 1e6,
                );
            }
        }

        if progress_enabled()
            && (self.done == self.total || now.duration_since(self.last_print) >= PRINT_INTERVAL)
        {
            self.last_print = now;
            let elapsed = now.duration_since(self.started).as_secs_f64();
            let eta = if self.done == 0 {
                0.0
            } else {
                elapsed / self.done as f64 * self.total.saturating_sub(self.done) as f64
            };
            eprintln!(
                "[sim] round {}/{} ({pct}%) {transfers} transfers, elapsed {elapsed:.1}s eta {eta:.1}s",
                self.done, self.total,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_until_enough_samples() {
        let mut d = StallDetector::default();
        for _ in 0..MIN_SAMPLES - 1 {
            assert_eq!(d.observe(100), None);
        }
        // 5th observation: window has 4 samples, still below MIN_SAMPLES.
        assert_eq!(d.observe(1_000_000), None);
    }

    #[test]
    fn flags_outlier_against_rolling_median() {
        let mut d = StallDetector::default();
        for _ in 0..10 {
            assert_eq!(d.observe(100), None);
        }
        assert_eq!(d.observe(800), None, "exactly 8x median is not a stall");
        assert_eq!(d.observe(801), Some(100), "strictly above 8x median is");
    }

    #[test]
    fn median_adapts_to_persistent_slowdown() {
        let mut d = StallDetector::default();
        for _ in 0..WINDOW {
            d.observe(100);
        }
        // A 10x step change: first rounds flag, but once the window fills
        // with the new regime the median catches up and flagging stops.
        let flagged: usize = (0..2 * WINDOW)
            .filter(|_| d.observe(1_000).is_some())
            .count();
        assert!(flagged >= 1, "step change must be flagged at least once");
        assert!(
            flagged < WINDOW,
            "median must adapt before the window cycles twice (flagged {flagged})"
        );
        assert_eq!(d.observe(1_000), None, "new regime is the new normal");
    }

    #[test]
    fn zero_median_never_divides_or_flags() {
        let mut d = StallDetector::default();
        for _ in 0..10 {
            d.observe(0);
        }
        assert_eq!(d.observe(u64::MAX), None, "zero median disables the check");
    }
}
