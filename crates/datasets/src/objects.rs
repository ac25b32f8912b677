//! "SynthObjects" — the CIFAR-10 stand-in: ten procedural RGB classes
//! (shape × texture) at 32×32 with color, position, and noise jitter.

use rand::{Rng, SeedableRng};

use da_tensor::Tensor;

use crate::Dataset;

/// Image side length (matches CIFAR-10).
pub const SIZE: usize = 32;
/// Number of object classes.
pub const CLASSES: usize = 10;

/// The ten classes. Shape classes (0–4) vary silhouette; texture classes
/// (5–9) vary fill pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectClass {
    /// Filled disc.
    Disc,
    /// Filled square.
    Square,
    /// Filled triangle.
    Triangle,
    /// Annulus (ring).
    Ring,
    /// Plus/cross.
    Cross,
    /// Horizontal stripes.
    StripesH,
    /// Vertical stripes.
    StripesV,
    /// Checkerboard.
    Checker,
    /// Radial gradient blob.
    Blob,
    /// Diamond.
    Diamond,
}

impl ObjectClass {
    /// All classes, index-aligned with labels.
    pub const ALL: [ObjectClass; CLASSES] = [
        ObjectClass::Disc,
        ObjectClass::Square,
        ObjectClass::Triangle,
        ObjectClass::Ring,
        ObjectClass::Cross,
        ObjectClass::StripesH,
        ObjectClass::StripesV,
        ObjectClass::Checker,
        ObjectClass::Blob,
        ObjectClass::Diamond,
    ];
}

/// Generator knobs (defaults calibrated so AlexNet lands near the paper's
/// CIFAR-10 accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectStyle {
    /// Additive pixel-noise amplitude.
    pub noise: f32,
    /// Center jitter in pixels.
    pub jitter: f32,
    /// Object radius range in pixels `(lo, hi)`.
    pub radius: (f32, f32),
}

impl Default for ObjectStyle {
    fn default() -> Self {
        ObjectStyle { noise: 0.55, jitter: 4.0, radius: (7.0, 12.0) }
    }
}

/// Render one object image with jitter from `rng`.
pub fn object_image<R: Rng>(class: usize, style: &ObjectStyle, rng: &mut R) -> Tensor {
    assert!(class < CLASSES, "class must be 0..=9");
    let kind = ObjectClass::ALL[class];

    // Foreground/background colors kept apart so classes stay learnable.
    let bg: [f32; 3] =
        [rng.gen_range(0.0..0.45), rng.gen_range(0.0..0.45), rng.gen_range(0.0..0.45)];
    let mut fg: [f32; 3] =
        [rng.gen_range(0.45..1.0), rng.gen_range(0.45..1.0), rng.gen_range(0.45..1.0)];
    if rng.gen_bool(0.5) {
        fg.swap(0, 2);
    }

    let cx = SIZE as f32 / 2.0 + rng.gen_range(-style.jitter..=style.jitter);
    let cy = SIZE as f32 / 2.0 + rng.gen_range(-style.jitter..=style.jitter);
    let r = rng.gen_range(style.radius.0..=style.radius.1);
    let phase: f32 = rng.gen_range(0.0..4.0);
    let period: f32 = rng.gen_range(3.0..5.5);

    let coverage = |x: f32, y: f32| -> f32 {
        let (dx, dy) = (x - cx, y - cy);
        let dist = (dx * dx + dy * dy).sqrt();
        match kind {
            ObjectClass::Disc => step_in(dist, r),
            ObjectClass::Square => step_in(dx.abs().max(dy.abs()), r * 0.9),
            ObjectClass::Triangle => {
                // Upright isoceles triangle of half-width r, height 1.8r.
                let ty = dy + r * 0.9;
                if !(0.0..=1.8 * r).contains(&ty) {
                    0.0
                } else {
                    let half_width = r * (ty / (1.8 * r));
                    step_in(dx.abs(), half_width)
                }
            }
            ObjectClass::Ring => step_in(dist, r) * step_in(r * 0.55, dist),
            ObjectClass::Cross => {
                let arm = r * 0.38;
                let inside =
                    (dx.abs() <= arm && dy.abs() <= r) || (dy.abs() <= arm && dx.abs() <= r);
                f32::from(inside)
            }
            ObjectClass::StripesH => {
                step_in(dist, r) * f32::from(((y + phase) / period) as i32 % 2 == 0)
            }
            ObjectClass::StripesV => {
                step_in(dist, r) * f32::from(((x + phase) / period) as i32 % 2 == 0)
            }
            ObjectClass::Checker => {
                let c = (((x + phase) / period) as i32 + ((y + phase) / period) as i32) % 2;
                step_in(dx.abs().max(dy.abs()), r) * f32::from(c == 0)
            }
            ObjectClass::Blob => (1.0 - dist / (1.4 * r)).clamp(0.0, 1.0),
            ObjectClass::Diamond => step_in(dx.abs() + dy.abs(), r * 1.2),
        }
    };

    let mut data = vec![0.0f32; 3 * SIZE * SIZE];
    for y in 0..SIZE {
        for x in 0..SIZE {
            let cov = coverage(x as f32, y as f32);
            for ch in 0..3 {
                let v =
                    bg[ch] + (fg[ch] - bg[ch]) * cov + rng.gen_range(-style.noise..=style.noise);
                data[ch * SIZE * SIZE + y * SIZE + x] = v.clamp(0.0, 1.0);
            }
        }
    }
    Tensor::from_vec(data, &[3, SIZE, SIZE])
}

fn step_in(value: f32, limit: f32) -> f32 {
    f32::from(value <= limit)
}

/// A class-balanced SynthObjects dataset of `n` examples, deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn synth_objects(n: usize, seed: u64) -> Dataset {
    synth_objects_styled(n, seed, &ObjectStyle::default())
}

/// [`synth_objects`] with explicit style knobs.
pub fn synth_objects_styled(n: usize, seed: u64, style: &ObjectStyle) -> Dataset {
    assert!(n > 0, "need at least one example");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(0xC1FA_2024));
    let mut items = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % CLASSES;
        items.push(object_image(class, style, &mut rng));
        labels.push(class);
    }
    Dataset::new(Tensor::stack(&items), labels, CLASSES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shape_and_range() {
        let ds = synth_objects(40, 1);
        assert_eq!(ds.images.shape(), &[40, 3, SIZE, SIZE]);
        assert!(ds.images.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(ds.class_histogram(), vec![4; 10]);
    }

    #[test]
    fn determinism_in_seed() {
        let a = synth_objects(10, 5);
        let b = synth_objects(10, 5);
        let c = synth_objects(10, 6);
        assert_eq!(a.images, b.images);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn classes_are_visually_distinct_without_noise() {
        let style = ObjectStyle { noise: 0.0, jitter: 0.0, radius: (10.0, 10.0) };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let images: Vec<Tensor> = (0..CLASSES).map(|c| object_image(c, &style, &mut rng)).collect();
        for i in 0..CLASSES {
            for j in (i + 1)..CLASSES {
                let dist = images[i].zip_map(&images[j], |a, b| a - b).l2_norm();
                assert!(dist > 1.0, "classes {i} and {j} collapse (dist {dist})");
            }
        }
    }

    #[test]
    fn ring_has_hollow_center_and_disc_does_not() {
        let style = ObjectStyle { noise: 0.0, jitter: 0.0, radius: (10.0, 10.0) };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let disc = object_image(0, &style, &mut rng);
        let ring = object_image(3, &style, &mut rng);
        let center = |img: &Tensor, ch: usize| img[[ch, SIZE / 2, SIZE / 2]];
        let rim = |img: &Tensor, ch: usize| img[[ch, SIZE / 2, SIZE / 2 + 9]];
        // The disc's center matches its rim; the ring's center matches its
        // background corner instead.
        assert!((center(&disc, 0) - rim(&disc, 0)).abs() < 0.01);
        assert!((center(&ring, 0) - ring[[0, 1, 1]]).abs() < 0.01);
        assert!((center(&ring, 0) - rim(&ring, 0)).abs() > 0.1);
    }

    #[test]
    #[should_panic(expected = "class must be 0..=9")]
    fn rejects_out_of_range_class() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = object_image(10, &ObjectStyle::default(), &mut rng);
    }
}
