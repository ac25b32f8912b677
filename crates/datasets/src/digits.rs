//! "SynthDigits" — the MNIST stand-in: stroke-skeleton digits rasterized at
//! 28×28 with affine jitter, thickness variation, and pixel noise.

use std::f32::consts::{PI, TAU};

use rand::{Rng, SeedableRng};

use da_tensor::Tensor;

use crate::raster::{rasterize, Affine, Stroke};
use crate::Dataset;

/// Image side length (matches MNIST).
pub const SIZE: usize = 28;
/// Number of digit classes.
pub const CLASSES: usize = 10;

/// Stroke skeleton of a digit in unit-square coordinates (y points down).
pub fn digit_strokes(digit: usize) -> Vec<Stroke> {
    assert!(digit < CLASSES, "digit must be 0..=9");
    let line = |a: (f32, f32), b: (f32, f32)| Stroke::Line { from: a, to: b };
    let arc = |c: (f32, f32), r: (f32, f32), s: f32, e: f32| Stroke::Arc {
        center: c,
        radii: r,
        start: s,
        end: e,
    };
    match digit {
        0 => vec![arc((0.5, 0.5), (0.26, 0.36), 0.0, TAU)],
        1 => vec![line((0.52, 0.14), (0.52, 0.86)), line((0.52, 0.14), (0.38, 0.3))],
        2 => vec![
            arc((0.5, 0.33), (0.22, 0.19), -PI, 0.35),
            line((0.68, 0.41), (0.3, 0.84)),
            line((0.3, 0.84), (0.72, 0.84)),
        ],
        3 => vec![
            arc((0.46, 0.31), (0.2, 0.17), -PI * 0.75, PI * 0.5),
            arc((0.46, 0.67), (0.23, 0.19), -PI * 0.5, PI * 0.75),
        ],
        4 => vec![
            line((0.64, 0.12), (0.64, 0.88)),
            line((0.64, 0.12), (0.3, 0.58)),
            line((0.3, 0.58), (0.8, 0.58)),
        ],
        5 => vec![
            line((0.7, 0.14), (0.34, 0.14)),
            line((0.34, 0.14), (0.34, 0.46)),
            arc((0.47, 0.65), (0.24, 0.21), -PI * 0.5, PI * 0.7),
        ],
        6 => vec![
            arc((0.5, 0.66), (0.22, 0.2), 0.0, TAU),
            arc((0.62, 0.4), (0.36, 0.52), PI * 0.8, PI * 1.25),
        ],
        7 => vec![line((0.28, 0.15), (0.74, 0.15)), line((0.74, 0.15), (0.42, 0.87))],
        8 => {
            vec![arc((0.5, 0.31), (0.19, 0.16), 0.0, TAU), arc((0.5, 0.68), (0.23, 0.19), 0.0, TAU)]
        }
        9 => vec![arc((0.5, 0.36), (0.21, 0.19), 0.0, TAU), line((0.71, 0.4), (0.58, 0.87))],
        _ => unreachable!(),
    }
}

/// Generator knobs (defaults are calibrated so LeNet-5 lands near the paper's
/// MNIST accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitStyle {
    /// Max |rotation| in radians.
    pub rotation: f32,
    /// Scale range around 1.0.
    pub scale_jitter: f32,
    /// Max |translation| in unit-square units.
    pub translate: f32,
    /// Stroke thickness range in pixels `(lo, hi)`.
    pub thickness: (f32, f32),
    /// Additive pixel-noise amplitude.
    pub noise: f32,
}

impl Default for DigitStyle {
    fn default() -> Self {
        DigitStyle {
            rotation: 0.35,
            scale_jitter: 0.22,
            translate: 0.12,
            thickness: (0.6, 2.2),
            noise: 0.42,
        }
    }
}

/// Render one digit with jitter drawn from `rng`.
pub fn digit_image<R: Rng>(digit: usize, style: &DigitStyle, rng: &mut R) -> Tensor {
    let mut buf = vec![0.0f32; SIZE * SIZE];
    let affine = Affine {
        rotation: rng.gen_range(-style.rotation..=style.rotation),
        scale: 1.0 + rng.gen_range(-style.scale_jitter..=style.scale_jitter),
        translate: (
            rng.gen_range(-style.translate..=style.translate),
            rng.gen_range(-style.translate..=style.translate),
        ),
    };
    let thickness = rng.gen_range(style.thickness.0..=style.thickness.1);
    rasterize(&mut buf, SIZE, &digit_strokes(digit), affine, thickness);
    for v in &mut buf {
        *v = (*v + rng.gen_range(-style.noise..=style.noise)).clamp(0.0, 1.0);
    }
    Tensor::from_vec(buf, &[1, SIZE, SIZE])
}

/// A class-balanced SynthDigits dataset of `n` examples, deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn synth_digits(n: usize, seed: u64) -> Dataset {
    synth_digits_styled(n, seed, &DigitStyle::default())
}

/// [`synth_digits`] with explicit style knobs.
pub fn synth_digits_styled(n: usize, seed: u64, style: &DigitStyle) -> Dataset {
    assert!(n > 0, "need at least one example");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut items = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let digit = i % CLASSES;
        items.push(digit_image(digit, style, &mut rng));
        labels.push(digit);
    }
    Dataset::new(Tensor::stack(&items), labels, CLASSES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::ascii_art;

    #[test]
    fn dataset_shape_and_range() {
        let ds = synth_digits(50, 1);
        assert_eq!(ds.images.shape(), &[50, 1, SIZE, SIZE]);
        assert!(ds.images.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(ds.classes, CLASSES);
    }

    #[test]
    fn classes_are_balanced() {
        let ds = synth_digits(100, 2);
        assert_eq!(ds.class_histogram(), vec![10; 10]);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = synth_digits(20, 7);
        let b = synth_digits(20, 7);
        let c = synth_digits(20, 8);
        assert_eq!(a.images, b.images);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn digits_have_ink_and_are_distinct() {
        let style = DigitStyle { noise: 0.0, ..DigitStyle::default() };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let images: Vec<Tensor> = (0..10).map(|d| digit_image(d, &style, &mut rng)).collect();
        for (d, img) in images.iter().enumerate() {
            let ink = img.sum();
            assert!(ink > 10.0, "digit {d} has almost no ink:\n{}", ascii_art(img.data(), SIZE));
        }
        // Pairwise L2 distances are substantial: the classes don't collapse.
        for i in 0..10 {
            for j in (i + 1)..10 {
                let dist = images[i].zip_map(&images[j], |a, b| a - b).l2_norm();
                assert!(dist > 2.0, "digits {i} and {j} look identical");
            }
        }
    }

    #[test]
    fn same_class_varies_under_jitter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let style = DigitStyle::default();
        let a = digit_image(3, &style, &mut rng);
        let b = digit_image(3, &style, &mut rng);
        assert_ne!(a, b, "jitter must vary instances");
    }

    #[test]
    #[should_panic(expected = "digit must be 0..=9")]
    fn rejects_out_of_range_digit() {
        let _ = digit_strokes(10);
    }
}
