//! Everything the benchmark feeds the program, derived from `--seed`:
//! weights, images, image choices and open-loop arrival times. The program
//! under test sees only these generated inputs, never the seed itself.

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator, enough for arrival times and
/// index choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose (`stream`) of one seed, so that
    /// adding a stream never shifts another's numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`: never zero, so `ln` stays finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Stream tags: one per kind of generated input.
pub mod stream {
    /// Model weights.
    pub const WEIGHTS: u64 = 1;
    /// The distinct input images.
    pub const IMAGES: u64 = 2;
    /// The timed window's traffic (arrival times and image choices).
    pub const TRAFFIC: u64 = 3;
    /// Warm-up traffic; round `r` uses `WARMUP + r`.
    pub const WARMUP: u64 = 1000;
}

/// A seed for `feather_arch`'s own tensor generators, one per stream. Kept
/// below 2^48 because those generators add small offsets to it.
pub fn tensor_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64() >> 16
}

/// One generated request: when it is due (offset from the start of its
/// window) and which image it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time after the window opens.
    pub due: Duration,
    /// Index into the workload's distinct images.
    pub image: usize,
}

/// `count` Poisson arrivals at `rate` per second (exponential gaps), each
/// carrying an image chosen uniformly from `images`.
pub fn poisson(rng: &mut Rng, rate: f64, count: usize, images: usize) -> Vec<Arrival> {
    let mut at = 0.0;
    (0..count)
        .map(|_| {
            at += -rng.unit().ln() / rate;
            Arrival {
                due: Duration::from_secs_f64(at),
                image: rng.below(images),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = poisson(&mut Rng::new(7, stream::TRAFFIC), 100.0, 500, 8);
        let b = poisson(&mut Rng::new(7, stream::TRAFFIC), 100.0, 500, 8);
        assert_eq!(a, b);
        assert_eq!(
            tensor_seed(7, stream::IMAGES),
            tensor_seed(7, stream::IMAGES)
        );
    }

    #[test]
    fn another_seed_or_stream_gives_another_schedule() {
        let a = poisson(&mut Rng::new(7, stream::TRAFFIC), 100.0, 500, 8);
        let b = poisson(&mut Rng::new(8, stream::TRAFFIC), 100.0, 500, 8);
        let c = poisson(&mut Rng::new(7, stream::WARMUP), 100.0, 500, 8);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            tensor_seed(7, stream::IMAGES),
            tensor_seed(8, stream::IMAGES)
        );
    }

    #[test]
    fn schedule_has_the_asked_rate_and_uses_every_image() {
        let a = poisson(&mut Rng::new(3, stream::TRAFFIC), 100.0, 4000, 8);
        let span = a.last().expect("non-empty").due.as_secs_f64();
        assert!(
            (span - 40.0).abs() < 2.0,
            "4000 arrivals at 100/s took {span} s"
        );
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        for image in 0..8 {
            assert!(a.iter().any(|r| r.image == image));
        }
    }
}
