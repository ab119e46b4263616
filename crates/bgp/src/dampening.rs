//! RFC 2439-style route-flap dampening: a per-`(neighbor, prefix)`
//! figure of merit that grows on flaps and decays exponentially.
//!
//! The state machine is the classic one — a penalty accumulates
//! [`DampeningPolicy::penalty_flap`] per flap, decays with half-life
//! [`DampeningPolicy::half_life`], suppresses the route while the
//! penalty sits *above* [`DampeningPolicy::suppress_threshold`], and
//! releases it once the penalty falls *below*
//! [`DampeningPolicy::reuse_threshold`] — but the arithmetic is pure
//! integer math: whole half-lives are right-shifts and the fractional
//! remainder is a piecewise-linear interpolation, so every router at
//! every shard count computes bit-identical penalties (no floating-point
//! `exp`, no rounding-mode drift).

use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_netsim::{SimDuration, SimTime};

/// Per-router dampening configuration, in RFC 2439's vocabulary.
/// `Copy` so it can ride inside `InstantiateOptions`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DampeningPolicy {
    /// Penalty added per flap (a withdraw of an installed route, or a
    /// session loss covering it).
    pub penalty_flap: u64,
    /// Penalties strictly above this suppress the route.
    pub suppress_threshold: u64,
    /// A suppressed route is released once its penalty falls strictly
    /// below this.
    pub reuse_threshold: u64,
    /// Time for the penalty to halve.
    pub half_life: SimDuration,
    /// Penalty ceiling (RFC 2439's "maximum penalty"); accumulation
    /// saturates here instead of overflowing.
    pub max_penalty: u64,
    /// How often a router with suppressed routes re-evaluates decay
    /// (the reuse-list timer granularity).
    pub reuse_tick: SimDuration,
}

impl Default for DampeningPolicy {
    /// Cisco-flavored defaults, time-scaled to the simulator: classic
    /// dampening thinks in minutes, our churn experiments in hundreds
    /// of milliseconds, so the half-life defaults to 200 ms.
    fn default() -> DampeningPolicy {
        DampeningPolicy {
            penalty_flap: 1000,
            suppress_threshold: 2000,
            reuse_threshold: 750,
            half_life: SimDuration::from_millis(200),
            max_penalty: 16_000,
            reuse_tick: SimDuration::from_millis(50),
        }
    }
}

/// The policy rides inside checkpoint META sections (as part of
/// `InstantiateOptions`), so a restored run dampens identically.
impl Wire for DampeningPolicy {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.penalty_flap.encode(buf);
        self.suppress_threshold.encode(buf);
        self.reuse_threshold.encode(buf);
        self.half_life.encode(buf);
        self.max_penalty.encode(buf);
        self.reuse_tick.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DampeningPolicy {
            penalty_flap: u64::decode(r)?,
            suppress_threshold: u64::decode(r)?,
            reuse_threshold: u64::decode(r)?,
            half_life: SimDuration::decode(r)?,
            max_penalty: u64::decode(r)?,
            reuse_tick: SimDuration::decode(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        6 * 8
    }
}

/// Dampening state for one `(neighbor, prefix)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DampState {
    /// Current figure of merit (post-decay as of `last_decay`).
    pub penalty: u64,
    /// When `penalty` was last decayed.
    pub last_decay: SimTime,
    /// Whether announcements of this pair are currently suppressed.
    pub suppressed: bool,
}

impl DampState {
    /// Fresh state anchored at `now`.
    pub fn new(now: SimTime) -> DampState {
        DampState { penalty: 0, last_decay: now, suppressed: false }
    }

    /// Decays the penalty from `last_decay` to `now`: one right-shift
    /// per whole half-life, then a linear interpolation across the
    /// fractional remainder (`p · (2h − f) / 2h`, exact at `f = 0` and
    /// `f = h`). Integer-only, so identical on every engine.
    pub fn decay_to(&mut self, now: SimTime, policy: &DampeningPolicy) {
        let elapsed = now.since(self.last_decay).as_micros();
        self.last_decay = now;
        if elapsed == 0 || self.penalty == 0 {
            return;
        }
        let h = policy.half_life.as_micros().max(1);
        let whole = elapsed / h;
        let frac = elapsed % h;
        self.penalty = if whole >= 64 { 0 } else { self.penalty >> whole };
        if frac > 0 && self.penalty > 0 {
            // u128 keeps `p · (2h − f)` exact for any h the sim can
            // express (the figure-of-merit overflow case in the tests).
            let num = self.penalty as u128 * (2 * h - frac) as u128;
            self.penalty = (num / (2 * h) as u128) as u64;
        }
    }

    /// Records one flap at `now`: decay, add
    /// [`DampeningPolicy::penalty_flap`] saturating at
    /// [`DampeningPolicy::max_penalty`], and suppress when the result
    /// exceeds the suppress threshold.
    pub fn penalize(&mut self, now: SimTime, policy: &DampeningPolicy) {
        self.decay_to(now, policy);
        self.penalty = self.penalty.saturating_add(policy.penalty_flap).min(policy.max_penalty);
        if self.penalty > policy.suppress_threshold {
            self.suppressed = true;
        }
    }

    /// Decays to `now` and applies the release rule (penalty strictly
    /// below the reuse threshold clears suppression). Returns whether
    /// the pair is suppressed *after* the refresh.
    pub fn refresh(&mut self, now: SimTime, policy: &DampeningPolicy) -> bool {
        self.decay_to(now, policy);
        if self.suppressed && self.penalty < policy.reuse_threshold {
            self.suppressed = false;
        }
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> DampeningPolicy {
        DampeningPolicy::default()
    }

    #[test]
    fn penalty_accumulates_and_suppresses() {
        let p = policy();
        let mut s = DampState::new(SimTime::ZERO);
        s.penalize(SimTime::ZERO, &p);
        assert_eq!(s.penalty, 1000);
        assert!(!s.suppressed, "one flap stays below the threshold");
        s.penalize(SimTime::ZERO, &p);
        assert_eq!(s.penalty, 2000);
        assert!(!s.suppressed, "penalty exactly at suppress threshold does not suppress");
        s.penalize(SimTime::ZERO, &p);
        assert_eq!(s.penalty, 3000);
        assert!(s.suppressed, "crossing the threshold suppresses");
    }

    #[test]
    fn whole_half_life_halves_exactly() {
        let p = policy();
        let mut s = DampState { penalty: 4000, last_decay: SimTime::ZERO, suppressed: true };
        s.decay_to(SimTime::ZERO + p.half_life, &p);
        assert_eq!(s.penalty, 2000);
        s.decay_to(SimTime(2 * p.half_life.as_micros()), &p);
        assert_eq!(s.penalty, 1000);
    }

    #[test]
    fn fractional_decay_is_linear_between_half_lives() {
        let p = policy();
        let mut s = DampState { penalty: 4000, last_decay: SimTime::ZERO, suppressed: false };
        // Half of one half-life: p · (2h − h/2) / 2h = p · 3/4.
        s.decay_to(SimTime(p.half_life.as_micros() / 2), &p);
        assert_eq!(s.penalty, 3000);
    }

    #[test]
    fn decay_rounding_truncates_deterministically() {
        let p = policy();
        let mut s = DampState { penalty: 3, last_decay: SimTime::ZERO, suppressed: false };
        // 1 µs into a 200 ms half-life: 3 · (400000 − 1) / 400000
        // truncates to 2 — the documented round-toward-zero rule.
        s.decay_to(SimTime(1), &p);
        assert_eq!(s.penalty, 2);
    }

    #[test]
    fn reuse_boundary_is_strict() {
        let p = policy();
        let mut s =
            DampState { penalty: p.reuse_threshold, last_decay: SimTime(5), suppressed: true };
        assert!(s.refresh(SimTime(5), &p), "exactly at reuse threshold stays suppressed");
        s.penalty = p.reuse_threshold - 1;
        assert!(!s.refresh(SimTime(5), &p), "strictly below reuse releases");
    }

    #[test]
    fn figure_of_merit_saturates_at_max() {
        let p = policy();
        let mut s =
            DampState { penalty: p.max_penalty, last_decay: SimTime::ZERO, suppressed: true };
        s.penalize(SimTime::ZERO, &p);
        assert_eq!(s.penalty, p.max_penalty, "penalty saturates, never overflows");
    }

    #[test]
    fn huge_gaps_decay_to_zero_without_shift_overflow() {
        let p = policy();
        let mut s = DampState { penalty: u64::MAX, last_decay: SimTime::ZERO, suppressed: true };
        // > 64 half-lives: a naive `>> whole` would be UB-adjacent; we
        // clamp to zero.
        s.decay_to(SimTime(100 * p.half_life.as_micros()), &p);
        assert_eq!(s.penalty, 0);
        assert!(!s.refresh(SimTime(100 * p.half_life.as_micros()), &p));
    }

    #[test]
    fn decay_is_time_anchored_not_call_anchored() {
        let p = policy();
        let mut a = DampState { penalty: 4000, last_decay: SimTime::ZERO, suppressed: false };
        let mut b = a;
        // One big decay vs. two half-steps must agree at half-life
        // boundaries (the shift is exact there).
        a.decay_to(SimTime(2 * p.half_life.as_micros()), &p);
        b.decay_to(SimTime(p.half_life.as_micros()), &p);
        b.decay_to(SimTime(2 * p.half_life.as_micros()), &p);
        assert_eq!(a.penalty, b.penalty);
    }
}
