//! Batch-lifecycle spans: the protocol stages a CAM batch passes through and
//! the per-batch record handed to [`crate::TelemetrySink`]s.

/// One interval in the life of a batch. Each stage measures the time from
/// the end of the previous stage:
///
/// ```text
/// GPU doorbell ──Pickup──▶ owning worker ──Dispatch──▶ SSD's worker ──Submit──▶ SQ
///      SQ ──Complete──▶ last CQE ──Retire──▶ region-4 retire
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Doorbell write (region 3) → polling-thread pickup.
    Pickup,
    /// Pickup → worker dequeues its work item.
    Dispatch,
    /// Worker dequeue → final SQE staged and queue-pair doorbell rung.
    Submit,
    /// Doorbell rung → last NVMe completion reaped.
    Complete,
    /// Last completion → batch retired through region 4.
    Retire,
}

impl Stage {
    /// Every stage, in protocol order.
    pub const ALL: [Stage; 5] = [
        Stage::Pickup,
        Stage::Dispatch,
        Stage::Submit,
        Stage::Complete,
        Stage::Retire,
    ];

    /// Stable label used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pickup => "pickup",
            Stage::Dispatch => "dispatch",
            Stage::Submit => "submit",
            Stage::Complete => "complete",
            Stage::Retire => "retire",
        }
    }

    /// Dense index (position in [`Stage::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The completed lifecycle of one batch, timestamps in nanoseconds on the
/// [`crate::clock`] timeline.
#[derive(Clone, Debug)]
pub struct BatchSpan {
    /// Channel the batch was published on.
    pub channel: usize,
    /// Operation label (`"read"` or `"write"`).
    pub op: &'static str,
    /// Channel-local batch sequence number.
    pub seq: u64,
    /// Requests in the batch.
    pub requests: u64,
    /// Requests that completed with errors.
    pub errors: u64,
    /// When the GPU rang the channel doorbell.
    pub doorbell_ns: u64,
    /// When the polling thread picked the batch up.
    pub pickup_ns: u64,
    /// When the batch retired through region 4.
    pub retire_ns: u64,
}

impl BatchSpan {
    /// Total doorbell→retire latency.
    pub fn total_ns(&self) -> u64 {
        self.retire_ns.saturating_sub(self.doorbell_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_densely_indexed() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["pickup", "dispatch", "submit", "complete", "retire"]
        );
    }

    #[test]
    fn span_total_saturates() {
        let span = BatchSpan {
            channel: 0,
            op: "read",
            seq: 1,
            requests: 4,
            errors: 0,
            doorbell_ns: 100,
            pickup_ns: 150,
            retire_ns: 90,
        };
        assert_eq!(span.total_ns(), 0);
    }
}
