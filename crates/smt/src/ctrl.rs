//! Resource governance for prover queries: wall-clock deadlines,
//! checked at branch/elimination granularity.
//!
//! The paper's pipeline treats the theorem prover like a service
//! dependency: any query may be abandoned (budget, timeout, or a prover
//! fault) and the caller must degrade to the safe answer —
//! keep the atomic/reduction safeguard — never miscompile. The types here
//! make the "why was this query abandoned" machine-readable so the
//! degradation ladder in `formad-core` can record provenance.

use std::fmt;
use std::time::{Duration, Instant};

/// Why a check stopped without a definite verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// A work counter (`max_lia_calls`, `max_branches`, FM row/coefficient
    /// limit) was exhausted.
    Budget,
    /// The wall-clock deadline passed.
    Deadline,
    /// The prover panicked and the caller recovered (set by the recovery
    /// wrapper in `formad-core`, never by the solver itself).
    Panicked,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Budget => write!(f, "budget exhausted"),
            StopReason::Deadline => write!(f, "deadline expired"),
            StopReason::Panicked => write!(f, "prover panicked"),
        }
    }
}

/// A wall-clock bound. `Deadline::none()` never expires.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No bound.
    pub fn none() -> Deadline {
        Deadline { at: None }
    }

    /// Expires `d` from now.
    pub fn after(d: Duration) -> Deadline {
        Deadline {
            at: Some(Instant::now() + d),
        }
    }

    /// Expires `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Deadline {
        Deadline::after(Duration::from_millis(ms))
    }

    /// Expires at `at`.
    pub fn at(at: Instant) -> Deadline {
        Deadline { at: Some(at) }
    }

    pub fn is_none(&self) -> bool {
        self.at.is_none()
    }

    pub fn expired(&self) -> bool {
        match self.at {
            Some(t) => Instant::now() >= t,
            None => false,
        }
    }

    /// Time left, `None` when unbounded, `Some(ZERO)` when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The earlier of two deadlines.
    pub fn earliest(self, other: Deadline) -> Deadline {
        match (self.at, other.at) {
            (Some(a), Some(b)) => Deadline { at: Some(a.min(b)) },
            (Some(a), None) => Deadline { at: Some(a) },
            (None, b) => Deadline { at: b },
        }
    }
}

/// The deadline threaded through a query.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    pub deadline: Deadline,
}

impl Interrupt {
    pub fn none() -> Interrupt {
        Interrupt::default()
    }

    pub fn with_deadline(deadline: Deadline) -> Interrupt {
        Interrupt { deadline }
    }

    /// True when no deadline is attached (polling can be skipped
    /// entirely).
    pub fn is_inert(&self) -> bool {
        self.deadline.is_none()
    }

    /// Immediate (unpaced) trip check.
    pub fn tripped(&self) -> Option<StopReason> {
        self.deadline.expired().then_some(StopReason::Deadline)
    }
}

/// Paced poller over an [`Interrupt`]: consults the clock only every
/// `period` calls so the per-branch/per-elimination overhead stays in the
/// nanoseconds, and latches the first trip so later polls are free.
#[derive(Debug)]
pub struct Governor<'a> {
    interrupt: &'a Interrupt,
    period: u32,
    countdown: u32,
    latched: Option<StopReason>,
}

/// How many polls are skipped between real clock checks. At FM/branch
/// granularity this bounds deadline overshoot to tens of microseconds.
pub const DEFAULT_POLL_PERIOD: u32 = 64;

impl<'a> Governor<'a> {
    pub fn new(interrupt: &'a Interrupt) -> Governor<'a> {
        Governor::with_period(interrupt, DEFAULT_POLL_PERIOD)
    }

    pub fn with_period(interrupt: &'a Interrupt, period: u32) -> Governor<'a> {
        Governor {
            interrupt,
            period: period.max(1),
            // First poll checks immediately, so an already-expired
            // deadline trips before any work happens.
            countdown: 0,
            latched: None,
        }
    }

    /// Poll for an interrupt. Cheap on the fast path (a decrement); every
    /// `period` calls it consults the clock.
    pub fn poll(&mut self) -> Option<StopReason> {
        if self.latched.is_some() {
            return self.latched;
        }
        if self.interrupt.is_inert() {
            return None;
        }
        if self.countdown > 0 {
            self.countdown -= 1;
            return None;
        }
        self.countdown = self.period - 1;
        self.latched = self.interrupt.tripped();
        self.latched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_interrupt_never_trips() {
        let i = Interrupt::none();
        let mut g = Governor::new(&i);
        for _ in 0..10_000 {
            assert_eq!(g.poll(), None);
        }
    }

    #[test]
    fn expired_deadline_trips_on_first_poll() {
        let i = Interrupt::with_deadline(Deadline::after(Duration::ZERO));
        let mut g = Governor::new(&i);
        assert_eq!(g.poll(), Some(StopReason::Deadline));
        // Latched thereafter.
        assert_eq!(g.poll(), Some(StopReason::Deadline));
    }

    #[test]
    fn deadline_earliest_and_remaining() {
        let near = Deadline::after(Duration::from_millis(1));
        let far = Deadline::after(Duration::from_secs(3600));
        let combined = far.earliest(near);
        assert!(combined.remaining().unwrap() <= Duration::from_millis(1));
        assert!(Deadline::none().earliest(near).remaining().is_some());
        assert!(Deadline::none().earliest(Deadline::none()).is_none());
        std::thread::sleep(Duration::from_millis(2));
        assert!(near.expired());
        assert!(!far.expired());
    }
}
