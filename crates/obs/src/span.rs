//! RAII wall-time spans.
//!
//! A [`SpanTimer`] measures the elapsed time between its creation and drop
//! and records it (in seconds) into a [`Histogram`]. Take one from
//! [`crate::Recorder::span`], or wrap any histogram with [`SpanTimer::new`]:
//!
//! ```
//! use rll_obs::Recorder;
//! let recorder = Recorder::disabled();
//! {
//!     let _epoch = recorder.span("epoch");
//!     // ... timed work ...
//! } // recorded on drop
//! assert_eq!(recorder.metrics().duration_histogram("span.epoch").count(), 1);
//! ```

use crate::clock::Stopwatch;
use crate::metrics::Histogram;

/// Guard that records its lifetime into a histogram on drop.
#[must_use = "a span records when dropped; binding it to `_` drops immediately"]
pub struct SpanTimer {
    histogram: Histogram,
    clock: Stopwatch,
}

impl SpanTimer {
    /// Starts timing now; the elapsed seconds go into `histogram` on drop.
    pub fn new(histogram: Histogram) -> Self {
        SpanTimer {
            histogram,
            clock: Stopwatch::start(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.observe(self.clock.elapsed_secs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::duration_seconds();
        {
            let _span = SpanTimer::new(h.clone());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 0.002, "recorded {}", snap.max);
    }
}
