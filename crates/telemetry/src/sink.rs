//! The [`TelemetrySink`] trait and its do-nothing [`NoopSink`].

use simkit::SimTime;

use crate::event::TelemetryEvent;

/// Something that consumes telemetry events as they happen.
///
/// The associated [`ACTIVE`](TelemetrySink::ACTIVE) constant is the
/// zero-cost story: a generic emit point guarded by `if S::ACTIVE`
/// compiles to *nothing* — no branch, no event construction — when the
/// sink type is [`NoopSink`].
pub trait TelemetrySink {
    /// Whether this sink type can ever observe an event. `false` lets
    /// the compiler delete emit points wholesale.
    const ACTIVE: bool = true;

    /// Consumes one event.
    fn record(&mut self, time: SimTime, event: TelemetryEvent);
}

/// The do-nothing sink: `ACTIVE = false`, so instrumented hot paths
/// monomorphized against it carry no telemetry code at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record(&mut self, _time: SimTime, _event: TelemetryEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generic emit point in the shape instrumented code uses.
    fn emit_point<S: TelemetrySink>(sink: &mut S, built: &mut bool) {
        if S::ACTIVE {
            *built = true;
            sink.record(SimTime::ZERO, TelemetryEvent::TransitionHalt { epoch: 0 });
        }
    }

    #[test]
    fn noop_sink_is_inactive_and_skips_construction() {
        const { assert!(!NoopSink::ACTIVE) };
        let mut built = false;
        emit_point(&mut NoopSink, &mut built);
        assert!(!built, "event built for an inactive sink");
    }
}
