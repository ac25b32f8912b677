//! The adversarial-attack suite of the paper's Table 1.
//!
//! | Method | Category | Norm | Module |
//! |---|---|---|---|
//! | FGSM | gradient-based | L∞ | [`gradient::Fgsm`] |
//! | PGD | gradient-based | L∞ | [`gradient::Pgd`] |
//! | JSMA | gradient-based | L0 | [`gradient::Jsma`] |
//! | C&W | gradient-based | L2 | [`gradient::CarliniWagnerL2`] |
//! | DeepFool | gradient-based | L2 | [`gradient::DeepFool`] |
//! | LSA | score-based | L2 | [`score::LocalSearch`] |
//! | BA | decision-based | L2 | [`decision::BoundaryAttack`] |
//! | HSJ | decision-based | L2 | [`decision::HopSkipJump`] |
//!
//! All attacks target the [`TargetModel`] trait, so the same code attacks
//! exact, Ax-FPM, HEAP, DQ, and Bfloat16 classifiers. Score- and
//! decision-based attacks provably use only the prediction interface (the
//! [`DecisionOnly`] wrapper panics on gradient access and is used in tests).
//! [`served::ServedModel`] routes a network's non-gradient queries through
//! the `da_nn::serve` micro-batching server, so evaluation harnesses attack
//! the same serving path production traffic uses — bit-identically.
//!
//! Attacks are deterministic: stochastic steps derive from a seed carried by
//! the attack value.
//!
//! [`DecisionOnly`]: traits::DecisionOnly

pub mod decision;
pub mod gradient;
pub mod harness;
pub mod metrics;
pub mod score;
pub mod served;
pub mod substitute;
pub mod traits;

pub use harness::{correctly_classified, evaluate_transfer, TransferOutcome, TransferReport};
pub use served::ServedModel;
pub use traits::{Attack, TargetModel};
