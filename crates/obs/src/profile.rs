//! Nested span aggregation for the training profiler.
//!
//! A [`ProfileNode`] is one frame of a call-tree profile: a name, how many
//! times the frame ran, its **total** (inclusive) wall seconds, and its
//! children. *Self* time — the share not attributable to any child — is
//! derived, not stored, so the two can never disagree.
//!
//! The trainer builds one tree per epoch (sample → shard fan-out
//! {forward, backward} → shard-reduce → adam step → snapshot write), emits
//! it as an [`crate::EventKind::EpochProfile`] event, and appends it to the
//! `TrainingTrace`; the benchmark reads the frames as its `core.profile.*`
//! layer metrics.
//!
//! Profiling only *reads* clocks (via [`crate::Stopwatch`]) — it never
//! touches the RNG stream or reorders float math, so a profiled run's
//! checkpoint is byte-identical to an unprofiled one (gated in
//! `scripts/check.sh`).

use serde::{Deserialize, Serialize};

/// One frame of an aggregated wall-time profile tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Frame name (e.g. `"epoch"`, `"forward"`).
    pub name: String,
    /// How many timed intervals were folded into this frame.
    pub calls: u64,
    /// Inclusive wall seconds (children included).
    pub total_secs: f64,
    /// Child frames, in first-recorded order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// An empty frame with zero time and no calls.
    pub fn new(name: impl Into<String>) -> Self {
        ProfileNode {
            name: name.into(),
            calls: 0,
            total_secs: 0.0,
            children: Vec::new(),
        }
    }

    /// Adds one timed interval to this frame.
    pub fn add(&mut self, secs: f64) {
        self.calls += 1;
        self.total_secs += secs;
    }

    /// Get-or-create the child frame named `name`.
    pub fn child(&mut self, name: &str) -> &mut ProfileNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(ProfileNode::new(name));
        // lint: allow(no-panic-lib) — the push on the previous line makes the vec non-empty
        self.children.last_mut().expect("just pushed")
    }

    /// Exclusive wall seconds: total minus the children's totals, floored at
    /// zero (clock jitter can make children sum past the parent by
    /// nanoseconds).
    pub fn self_secs(&self) -> f64 {
        let child_total: f64 = self.children.iter().map(|c| c.total_secs).sum();
        (self.total_secs - child_total).max(0.0)
    }
}

/// Per-epoch profiler output: the epoch index and its frame tree, rooted at
/// `"epoch"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochProfileStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// The epoch's aggregated frame tree.
    pub root: ProfileNode,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> ProfileNode {
        let mut root = ProfileNode::new("epoch");
        root.add(1.0);
        let fanout = root.child("shard_fanout");
        fanout.add(0.7);
        fanout.child("forward").add(0.4);
        fanout.child("backward").add(0.25);
        root.child("adam_step").add(0.2);
        root
    }

    #[test]
    fn self_time_subtracts_children() {
        let root = sample_tree();
        assert!(
            (root.self_secs() - 0.1).abs() < 1e-12,
            "{}",
            root.self_secs()
        );
        let fanout = &root.children[0];
        assert!((fanout.self_secs() - 0.05).abs() < 1e-12);
        // Leaves: self == total.
        assert_eq!(
            fanout.children[0].self_secs(),
            fanout.children[0].total_secs
        );
    }

    #[test]
    fn self_time_floors_at_zero() {
        let mut root = ProfileNode::new("r");
        root.add(0.1);
        root.child("c").add(0.2); // children overshoot the parent
        assert_eq!(root.self_secs(), 0.0);
    }

    #[test]
    fn child_is_get_or_create() {
        let mut root = ProfileNode::new("r");
        root.child("a").add(1.0);
        root.child("a").add(2.0);
        root.child("b").add(1.0);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].calls, 2);
        assert_eq!(root.children[0].total_secs, 3.0);
    }

    #[test]
    fn profile_round_trips_through_json() {
        let stats = EpochProfileStats {
            epoch: 3,
            root: sample_tree(),
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: EpochProfileStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
