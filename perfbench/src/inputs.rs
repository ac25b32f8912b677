//! Every input the benchmark feeds the program, as a pure function of the
//! `--seed` argument: the open-loop arrival schedule, the order requests
//! and transfer samples draw from the digit pool, and the HEAP
//! perturbations. The pool itself is fixed, so every seed sees the same
//! digits and per-run cost does not depend on which digits a seed drew.
//! The program under test sees only these tensors.

use da_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Independent streams derived from one seed, so changing how many values
/// one input consumes never shifts another.
#[derive(Clone, Copy)]
pub enum Stream {
    Schedule = 1,
    Order = 2,
    Perturb = 3,
}

pub fn rng(seed: u64, stream: Stream) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream as u64)
}

/// Send offsets (seconds from the start of the window) of a Poisson
/// process at `rate` per second covering `[0, seconds)`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = rng(seed, Stream::Schedule);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        // 1 - U is in (0, 1], so the log is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// `n` SynthDigits images `[1, 28, 28]`, values in `[0, 1]`, the same for
/// every seed.
pub fn digit_pool(n: usize) -> Vec<Tensor> {
    let images = da_datasets::digits::synth_digits(n, 0x5eed).images;
    (0..n).map(|i| images.batch_item(i)).collect()
}

/// A seeded permutation of `0..n`; ops walk it cyclically.
pub fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    v.shuffle(&mut rng(seed, Stream::Order));
    v
}

/// FGSM-shaped perturbations of `pool`: each pixel moves by `eps` along a
/// seeded random sign, then is clipped to `[0, 1]`.
pub fn sign_perturbed(seed: u64, pool: &[Tensor], eps: f32) -> Vec<Tensor> {
    let mut rng = rng(seed, Stream::Perturb);
    pool.iter()
        .map(|x| {
            let mut y = x.clone();
            for v in y.data_mut() {
                let step = if rng.gen_bool(0.5) { eps } else { -eps };
                *v = (*v + step).clamp(0.0, 1.0);
            }
            y
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(5, 800.0, 2.0);
        assert_eq!(a, poisson_schedule(5, 800.0, 2.0));
        assert_ne!(a, poisson_schedule(6, 800.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 1600 expected arrivals; a Poisson count stays within 5 sigma.
        assert!((a.len() as f64 - 1600.0).abs() < 5.0 * 40.0, "{}", a.len());
    }

    #[test]
    fn streams_do_not_share_draws() {
        assert_eq!(order(9, 32), order(9, 32));
        assert_ne!(order(9, 32), order(10, 32));
        let mut sorted = order(9, 32);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_eq!(digit_pool(4), digit_pool(4));
    }

    #[test]
    fn perturbations_stay_in_range_and_repeat() {
        let pool = digit_pool(4);
        let p = sign_perturbed(3, &pool, 0.25);
        assert_eq!(p, sign_perturbed(3, &pool, 0.25));
        assert_ne!(p, sign_perturbed(4, &pool, 0.25));
        for (x, q) in pool.iter().zip(&p) {
            assert!(q.data().iter().all(|v| (0.0..=1.0).contains(v)));
            let moved = q.data().iter().zip(x.data()).filter(|(a, b)| a != b).count();
            assert!(moved > x.len() / 4);
        }
    }
}
