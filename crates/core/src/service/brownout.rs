//! The brownout controller: service-level graceful degradation
//! (DESIGN.md §13, tier "brownout → shed").
//!
//! Under sustained pressure the service degrades *deterministically*
//! instead of timing out unpredictably. The controller watches two
//! counter-derived signals over fixed submission windows — the
//! deadline-abort rate and the admission-rejection rate — and steps a
//! ladder of rungs, each strictly cheaper than the one before:
//!
//! 1. [`BrownoutRung::Normal`] — full service, nothing changes.
//! 2. [`BrownoutRung::CoarsePlans`] — the adaptive planner prices only
//!    its coarsest resolution, trading refinement precision *of the
//!    cost estimate* (never of the answer) for cheaper hardware passes.
//! 3. [`BrownoutRung::ForceSoftware`] — planning is skipped and every
//!    query refines in exact software, shedding all device pressure.
//! 4. [`BrownoutRung::Shed`] — queries are refused before admission
//!    with [`ServiceError::Overloaded`], carrying a deterministic
//!    retry hint.
//!
//! Invariant 13 holds at every rung: all backends are exact, so a
//! brownout changes *cost and counters only* — the rows of every query
//! that completes are bit-identical to an un-browned-out run. The shed
//! rung refuses queries outright (typed, never silently) rather than
//! returning partial rows.
//!
//! Determinism: the controller is driven purely by submission counts
//! and counter deltas — no wall-clock reads, no sampling. The same
//! sequence of submissions and outcomes always walks the same rungs,
//! which is what lets the engine's brownout tests cross-check a
//! browned-out engine against a clean one row-for-row.
//!
//! [`ServiceError::Overloaded`]: crate::service::ServiceError::Overloaded

/// Brownout knobs, validated by `ServiceConfig::validate`
/// (`window == 0` is a [`ConfigError::ZeroBrownoutWindow`]
/// construction error).
///
/// [`ConfigError::ZeroBrownoutWindow`]: crate::engine::ConfigError::ZeroBrownoutWindow
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Submissions per evaluation window. The ladder moves at most one
    /// rung per window, in either direction.
    pub window: u32,
    /// Step up when deadline aborts reach this percentage of the
    /// window's submissions.
    pub abort_pct: u8,
    /// Step up when admission rejections reach this percentage of the
    /// window's submissions.
    pub reject_pct: u8,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            window: 32,
            abort_pct: 25,
            reject_pct: 50,
        }
    }
}

/// One rung of the degradation ladder, ordered from full service to
/// full shedding (the derived `Ord` follows that ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutRung {
    /// Full service.
    #[default]
    Normal,
    /// Adaptive planning prices only the coarsest configured
    /// resolution.
    CoarsePlans,
    /// Every query refines in software; no device is touched.
    ForceSoftware,
    /// Queries are refused before admission with
    /// `ServiceError::Overloaded`.
    Shed,
}

impl BrownoutRung {
    fn up(self) -> Option<BrownoutRung> {
        match self {
            BrownoutRung::Normal => Some(BrownoutRung::CoarsePlans),
            BrownoutRung::CoarsePlans => Some(BrownoutRung::ForceSoftware),
            BrownoutRung::ForceSoftware => Some(BrownoutRung::Shed),
            BrownoutRung::Shed => None,
        }
    }

    fn down(self) -> Option<BrownoutRung> {
        match self {
            BrownoutRung::Normal => None,
            BrownoutRung::CoarsePlans => Some(BrownoutRung::Normal),
            BrownoutRung::ForceSoftware => Some(BrownoutRung::CoarsePlans),
            BrownoutRung::Shed => Some(BrownoutRung::ForceSoftware),
        }
    }
}

/// What one submission learned from the controller: the rung it runs
/// under, whether this submission's window boundary moved the ladder,
/// and (for the shed rung) the deterministic retry hint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BrownoutDecision {
    pub rung: BrownoutRung,
    pub stepped_up: bool,
    pub stepped_down: bool,
    /// Submissions until the next window-boundary evaluation — the
    /// earliest point shedding can stop.
    pub retry_after_queries: u32,
}

/// The controller itself. One per `QueryEngine`, locked alongside the
/// stats ledger.
#[derive(Debug)]
pub(crate) struct Brownout {
    cfg: BrownoutConfig,
    rung: BrownoutRung,
    /// Submissions counted against the current window.
    seen: u32,
    /// Deadline aborts noted since the last boundary.
    aborts: u32,
    /// Admission rejections noted since the last boundary.
    rejects: u32,
}

impl Brownout {
    pub(crate) fn new(cfg: BrownoutConfig) -> Self {
        Brownout {
            cfg,
            rung: BrownoutRung::Normal,
            seen: 0,
            aborts: 0,
            rejects: 0,
        }
    }

    pub(crate) fn rung(&self) -> BrownoutRung {
        self.rung
    }

    /// Accounts one submission. If the previous window just filled,
    /// first evaluates it: a threshold breach steps the ladder up one
    /// rung; a fully clean window (no aborts, no rejections) steps it
    /// down one. Shed submissions count toward the window but produce
    /// neither signal, so a fully-shedding window is clean by
    /// construction and the ladder always walks back down.
    pub(crate) fn on_submit(&mut self) -> BrownoutDecision {
        let mut stepped_up = false;
        let mut stepped_down = false;
        if self.seen >= self.cfg.window {
            let w = self.seen;
            let breach = self.aborts * 100 >= u32::from(self.cfg.abort_pct) * w
                || self.rejects * 100 >= u32::from(self.cfg.reject_pct) * w;
            if breach {
                if let Some(next) = self.rung.up() {
                    self.rung = next;
                    stepped_up = true;
                }
            } else if self.aborts == 0 && self.rejects == 0 {
                if let Some(next) = self.rung.down() {
                    self.rung = next;
                    stepped_down = true;
                }
            }
            self.seen = 0;
            self.aborts = 0;
            self.rejects = 0;
        }
        self.seen += 1;
        BrownoutDecision {
            rung: self.rung,
            stepped_up,
            stepped_down,
            // Never 0, even for a shed landing exactly on the window
            // boundary: a hint of 0 would tell clients to retry
            // immediately back into `Shed`. The boundary submission
            // itself just re-evaluated, so the earliest useful retry is
            // always at least one submission away.
            retry_after_queries: (self.cfg.window.saturating_sub(self.seen) + 1).max(1),
        }
    }

    /// Notes an admission rejection against the current window.
    pub(crate) fn note_rejected(&mut self) {
        self.rejects += 1;
    }

    /// Notes a deadline abort against the current window.
    pub(crate) fn note_deadline_abort(&mut self) {
        self.aborts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u32) -> BrownoutConfig {
        BrownoutConfig {
            window,
            ..BrownoutConfig::default()
        }
    }

    /// Walk `n` submissions, marking every one a deadline abort.
    fn dirty_window(b: &mut Brownout, n: u32) -> (u32, u32) {
        let mut ups = 0;
        let mut downs = 0;
        for _ in 0..n {
            let d = b.on_submit();
            ups += u32::from(d.stepped_up);
            downs += u32::from(d.stepped_down);
            b.note_deadline_abort();
        }
        (ups, downs)
    }

    /// Walk `n` clean submissions.
    fn clean_window(b: &mut Brownout, n: u32) -> (u32, u32) {
        let mut ups = 0;
        let mut downs = 0;
        for _ in 0..n {
            let d = b.on_submit();
            ups += u32::from(d.stepped_up);
            downs += u32::from(d.stepped_down);
        }
        (ups, downs)
    }

    #[test]
    fn ladder_steps_up_one_rung_per_breached_window() {
        let mut b = Brownout::new(cfg(4));
        assert_eq!(b.rung(), BrownoutRung::Normal);
        dirty_window(&mut b, 4);
        // The step happens at the *next* submission (the boundary).
        let d = b.on_submit();
        assert!(d.stepped_up);
        assert_eq!(d.rung, BrownoutRung::CoarsePlans);
    }

    #[test]
    fn ladder_climbs_to_shed_and_saturates() {
        let mut b = Brownout::new(cfg(2));
        // Three breached windows climb Normal → CoarsePlans →
        // ForceSoftware → Shed; further breaches saturate.
        for _ in 0..8 {
            dirty_window(&mut b, 2);
        }
        assert_eq!(b.rung(), BrownoutRung::Shed);
        dirty_window(&mut b, 2);
        let d = b.on_submit();
        assert!(!d.stepped_up, "Shed is the top rung");
        assert_eq!(d.rung, BrownoutRung::Shed);
    }

    #[test]
    fn clean_windows_recover_one_rung_at_a_time() {
        let mut b = Brownout::new(cfg(2));
        for _ in 0..6 {
            dirty_window(&mut b, 2);
        }
        assert_eq!(b.rung(), BrownoutRung::Shed);
        // Each fully clean window steps down exactly one rung.
        let mut downs = 0;
        for _ in 0..4 {
            downs += clean_window(&mut b, 2).1;
        }
        assert_eq!(b.rung(), BrownoutRung::Normal);
        assert_eq!(downs, 3, "Shed → ForceSoftware → CoarsePlans → Normal");
    }

    #[test]
    fn mixed_window_below_thresholds_holds_the_rung() {
        // 1 abort in a window of 8 is 12.5% < the 25% threshold: not a
        // breach, but not clean either — the rung holds.
        let mut b = Brownout::new(cfg(8));
        dirty_window(&mut b, 1);
        clean_window(&mut b, 7);
        let d = b.on_submit();
        assert!(!d.stepped_up && !d.stepped_down);
        assert_eq!(d.rung, BrownoutRung::Normal);
    }

    #[test]
    fn retry_hint_counts_down_to_the_boundary() {
        let mut b = Brownout::new(cfg(4));
        // First submission of a window: 3 more fill it, the 5th
        // evaluates — 4 submissions until the boundary.
        assert_eq!(b.on_submit().retry_after_queries, 4);
        assert_eq!(b.on_submit().retry_after_queries, 3);
        assert_eq!(b.on_submit().retry_after_queries, 2);
        assert_eq!(b.on_submit().retry_after_queries, 1);
        // Boundary submission starts the next window.
        assert_eq!(b.on_submit().retry_after_queries, 4);
    }

    /// The retry hint is never 0 — in particular not for the submission
    /// landing exactly on a window boundary while the ladder sits on
    /// `Shed` (a 0 hint would invite an immediate retry straight back
    /// into the shed rung).
    #[test]
    fn retry_hint_is_at_least_one_on_the_boundary_submission() {
        for window in [1u32, 2, 4] {
            let mut b = Brownout::new(cfg(window));
            // Climb to Shed, then keep submitting across several full
            // windows; every decision — boundary submissions included —
            // must carry a hint ≥ 1.
            for _ in 0..6 {
                dirty_window(&mut b, window);
            }
            assert_eq!(b.rung(), BrownoutRung::Shed);
            for i in 0..(4 * window + 1) {
                let d = b.on_submit();
                assert!(
                    d.retry_after_queries >= 1,
                    "window {window}, submission {i}: hint {} < 1",
                    d.retry_after_queries
                );
            }
        }
    }

    #[test]
    fn rejection_signal_also_steps_the_ladder() {
        let mut b = Brownout::new(cfg(2));
        for _ in 0..2 {
            b.on_submit();
            b.note_rejected();
        }
        let d = b.on_submit();
        assert!(d.stepped_up);
        assert_eq!(d.rung, BrownoutRung::CoarsePlans);
    }
}
