//! A component's answer to "when can your next tick first change state?" —
//! the question the event-driven engines sleep on.

use crate::Cycle;

/// The first cycle at which ticking a component can change its state, and
/// the obligation behind it (for hung-run dumps). A component asked after
/// its tick at `now` answers *next cycle* ([`Wake::at`] `now + 1`), *nothing
/// before cycle N*, or *nothing until an external event* ([`Wake::event`]).
/// Answers combine by [`Wake::earliest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wake {
    /// First cycle a tick can act ([`Wake::event`]: never, on its own).
    pub at: Cycle,
    /// The obligation, or the event waited for.
    pub why: &'static str,
}

impl Wake {
    /// Nothing can happen before cycle `at`.
    pub fn at(at: Cycle, why: &'static str) -> Wake {
        Wake { at, why }
    }

    /// Nothing can happen until an external event (`why` names it) wakes
    /// the component.
    pub fn event(why: &'static str) -> Wake {
        Wake::at(Cycle::new(u64::MAX), why)
    }

    /// Whether only an external event can make the next tick act.
    pub fn is_event(self) -> bool {
        self.at.as_u64() == u64::MAX
    }

    /// The earlier of two answers (`self` on a tie).
    #[must_use]
    pub fn earliest(self, other: Wake) -> Wake {
        if other.at < self.at {
            other
        } else {
            self
        }
    }
}
