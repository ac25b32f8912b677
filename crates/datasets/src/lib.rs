//! Synthetic stand-ins for MNIST and CIFAR-10.
//!
//! The reproduction environment has no dataset downloads, so this crate
//! procedurally generates two classification tasks with the same tensor
//! shapes and value ranges as the paper's datasets. Results on them are not
//! MNIST/CIFAR numbers; they only test whether the paper's effects show on
//! tasks of that shape:
//!
//! * [`digits::synth_digits`] — "SynthDigits": 28×28 grayscale handwritten-
//!   style digits rasterized from stroke skeletons with affine jitter,
//!   thickness variation, and pixel noise (MNIST stand-in).
//! * [`objects::synth_objects`] — "SynthObjects": 32×32 RGB textured shapes
//!   across ten classes with color, position, and noise jitter (CIFAR-10
//!   stand-in).
//!
//! Both are deterministic in their seed, and class-balanced.
//!
//! # Quick example
//!
//! ```
//! use da_datasets::digits::synth_digits;
//!
//! let ds = synth_digits(100, 42);
//! assert_eq!(ds.images.shape(), &[100, 1, 28, 28]);
//! assert_eq!(ds.labels.len(), 100);
//! assert!(ds.images.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
//! ```

pub mod digits;
pub mod objects;
pub mod raster;

mod dataset;

pub use dataset::Dataset;
