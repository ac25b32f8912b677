//! Time-varying approximation — the paper's future-work item (2) (§9):
//! *"explore whether there is additional protection that results from
//! adapting the approximation function over time."*
//!
//! [`RotatingMultiplier`] cycles deterministically through a schedule of
//! multiplier designs, advancing once per inference epoch (driven by the
//! deployer via [`RotatingMultiplier::advance`]). An attacker who profiles
//! the classifier in one epoch faces a different effective network in the
//! next, while each individual epoch remains a fixed, deterministic
//! circuit — no RNG in the datapath, preserving DA's no-retraining story.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::multiplier::{Multiplier, MultiplierKind};

/// A multiplier that rotates through a fixed schedule of designs.
///
/// # Examples
///
/// ```
/// use da_arith::rotating::RotatingMultiplier;
/// use da_arith::{Multiplier, MultiplierKind};
///
/// let m = RotatingMultiplier::from_kinds(&[
///     MultiplierKind::AxFpm,
///     MultiplierKind::Heap,
/// ]);
/// let in_epoch_0 = m.multiply(0.5, 0.75);
/// m.advance();
/// let in_epoch_1 = m.multiply(0.5, 0.75);
/// m.advance();
/// // The schedule wraps: epoch 2 behaves like epoch 0 again.
/// assert_eq!(m.multiply(0.5, 0.75), in_epoch_0);
/// assert_ne!(in_epoch_0, in_epoch_1);
/// ```
pub struct RotatingMultiplier {
    schedule: Vec<Arc<dyn Multiplier>>,
    epoch: AtomicUsize,
}

impl RotatingMultiplier {
    /// A rotation over explicit multiplier instances.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is empty.
    pub fn new(schedule: Vec<Arc<dyn Multiplier>>) -> Self {
        assert!(!schedule.is_empty(), "rotation schedule cannot be empty");
        RotatingMultiplier { schedule, epoch: AtomicUsize::new(0) }
    }

    /// A rotation over [`MultiplierKind`]s.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn from_kinds(kinds: &[MultiplierKind]) -> Self {
        RotatingMultiplier::new(kinds.iter().map(|k| k.build()).collect())
    }

    /// The currently active epoch index (modulo the schedule length).
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Relaxed) % self.schedule.len()
    }

    /// The currently active design.
    pub fn current(&self) -> &Arc<dyn Multiplier> {
        &self.schedule[self.epoch()]
    }

    /// Advance to the next design in the schedule, returning the new epoch.
    pub fn advance(&self) -> usize {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.epoch()
    }

    /// Number of designs in the schedule.
    pub fn schedule_len(&self) -> usize {
        self.schedule.len()
    }
}

impl std::fmt::Debug for RotatingMultiplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RotatingMultiplier")
            .field("epoch", &self.epoch())
            .field("schedule", &self.schedule.iter().map(|m| m.name()).collect::<Vec<_>>())
            .finish()
    }
}

impl Multiplier for RotatingMultiplier {
    fn multiply(&self, a: f32, b: f32) -> f32 {
        self.current().multiply(a, b)
    }

    fn name(&self) -> &str {
        "rotating"
    }

    // The batched entry points delegate to the active epoch's design, so a
    // rotation over gate-level wirings rides each design's fastest backend —
    // in particular the table-free bit-sliced plane sweep, which is what
    // makes rotation viable at serving throughput (a per-design product
    // table would be invalidated on every advance).

    fn multiply_slice(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.current().multiply_slice(a, b, out);
    }

    fn dot_accumulate(&self, a: &[f32], b: &[f32]) -> f32 {
        self.current().dot_accumulate(a, b)
    }

    fn batch_kernel(&self) -> Box<dyn crate::batch::BatchKernel + Send + '_> {
        self.current().batch_kernel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_cycles_through_schedule() {
        let m = RotatingMultiplier::from_kinds(&[
            MultiplierKind::Exact,
            MultiplierKind::AxFpm,
            MultiplierKind::Heap,
        ]);
        assert_eq!(m.schedule_len(), 3);
        assert_eq!(m.current().name(), "exact");
        assert_eq!(m.advance(), 1);
        assert_eq!(m.current().name(), "ax-fpm");
        assert_eq!(m.advance(), 2);
        assert_eq!(m.current().name(), "heap");
        assert_eq!(m.advance(), 0, "wraps around");
        assert_eq!(m.current().name(), "exact");
    }

    #[test]
    fn each_epoch_is_deterministic() {
        let m = RotatingMultiplier::from_kinds(&[MultiplierKind::AxFpm, MultiplierKind::Heap]);
        let a = m.multiply(0.3, 0.9);
        assert_eq!(m.multiply(0.3, 0.9), a, "no intra-epoch randomness");
        m.advance();
        let b = m.multiply(0.3, 0.9);
        assert_ne!(a, b, "epochs differ");
    }

    #[test]
    fn matches_underlying_designs_exactly() {
        let m = RotatingMultiplier::from_kinds(&[MultiplierKind::AxFpm, MultiplierKind::Bfloat16]);
        let ax = MultiplierKind::AxFpm.build();
        let bf = MultiplierKind::Bfloat16.build();
        assert_eq!(m.multiply(0.42, 0.77), ax.multiply(0.42, 0.77));
        m.advance();
        assert_eq!(m.multiply(0.42, 0.77), bf.multiply(0.42, 0.77));
    }

    #[test]
    #[should_panic(expected = "schedule cannot be empty")]
    fn rejects_empty_schedule() {
        let _ = RotatingMultiplier::new(Vec::new());
    }

    /// The batched entry points must track the active epoch and stay
    /// bit-identical to the scalar loop — including for gate-level designs,
    /// which run the bit-sliced backend underneath.
    #[test]
    fn batched_entry_points_follow_the_active_epoch() {
        use crate::simd::{classify_row, nan_stable_add};
        use crate::RowClass;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let m = RotatingMultiplier::from_kinds(&[MultiplierKind::Heap, MultiplierKind::AxFpm]);
        let n = 131;
        let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        for _epoch in 0..m.schedule_len() {
            let mut out = vec![0.0f32; n];
            m.multiply_slice(&a, &b, &mut out);
            for i in 0..n {
                let want = m.multiply(a[i], b[i]);
                assert_eq!(out[i].to_bits(), want.to_bits(), "slice[{i}]");
            }

            let mut acc = vec![0.5f32; n];
            m.batch_kernel().axpy(a[0], &b, classify_row(&b), &mut acc);
            for i in 0..n {
                assert_eq!(acc[i], 0.5 + m.multiply(a[0], b[i]), "axpy[{i}]");
            }

            // A one-row tile GEMM (the fused multi-term sweep on gate-level
            // designs) must match the scalar loop accumulated with `k`
            // ascending on the active design, bit for bit.
            let terms = 9;
            let cols = 21;
            let rhs: Vec<f32> = (0..terms * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut seq = vec![0.25f32; cols];
            for t in 0..terms {
                for i in 0..cols {
                    seq[i] = nan_stable_add(seq[i], m.multiply(a[t], rhs[t * cols + i]));
                }
            }
            for class in [classify_row(&rhs), RowClass::Special] {
                let mut fused = vec![0.25f32; cols];
                m.batch_kernel().gemm_tile(&a[..terms], &rhs, cols, class, &mut fused, cols);
                for i in 0..cols {
                    assert_eq!(fused[i].to_bits(), seq[i].to_bits(), "fused[{i}] {class:?}");
                }
            }
            m.advance();
        }
    }
}
