//! Offline stand-in for the `rand` 0.9 API subset this workspace uses:
//! `StdRng::seed_from_u64` and `Rng::random_range` over integer ranges.
//!
//! The Table-1 application models are generated from fixed seeds, and every
//! simulated statistic in the repository (Fig 6 overheads, offloaded bytes,
//! object counts) depends on the exact stream. This file therefore
//! reproduces rand 0.9 bit for bit on that subset: `StdRng` is ChaCha12 with
//! a 64-bit block counter read through a 64-word buffer, `seed_from_u64`
//! expands the seed with PCG32, and `random_range` is the single-sample
//! widening-multiply method with one bias-correction draw. The benchmark's
//! oracle (`golden/sim_stats.json`, whose event counts and virtual seconds
//! `experiments_output.txt` recorded with the published crate) fails if any
//! of this drifts.

pub mod rngs {
    pub use crate::chacha::StdRng;
}

mod chacha;

use std::ops::{Range, RangeInclusive};

/// Source of random 32- and 64-bit words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands `state` into a full seed with PCG32, as rand_core does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_exact_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A range a uniform sample can be drawn from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Integer types `random_range` accepts.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    fn before(high: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_inclusive(self.start, T::before(self.end), rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start() <= self.end(), "cannot sample empty range");
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// Offset in `0..range` from one 32-bit draw (`range != 0`).
fn offset_u32<R: RngCore + ?Sized>(range: u32, rng: &mut R) -> u32 {
    let wide = u64::from(rng.next_u32()) * u64::from(range);
    let (mut result, lo_order) = ((wide >> 32) as u32, wide as u32);
    if lo_order > range.wrapping_neg() {
        let new_hi_order = ((u64::from(rng.next_u32()) * u64::from(range)) >> 32) as u32;
        result += u32::from(lo_order.checked_add(new_hi_order).is_none());
    }
    result
}

/// Offset in `0..range` from one 64-bit draw (`range != 0`).
fn offset_u64<R: RngCore + ?Sized>(range: u64, rng: &mut R) -> u64 {
    let wide = u128::from(rng.next_u64()) * u128::from(range);
    let (mut result, lo_order) = ((wide >> 64) as u64, wide as u64);
    if lo_order > range.wrapping_neg() {
        let new_hi_order = ((u128::from(rng.next_u64()) * u128::from(range)) >> 64) as u64;
        result += u64::from(lo_order.checked_add(new_hi_order).is_none());
    }
    result
}

macro_rules! uniform_via {
    ($($ty:ty => $uty:ty, $wide:ty, $draw:ident, $offset:ident;)*) => {$(
        impl SampleUniform for $ty {
            fn sample_inclusive<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                let range = high.wrapping_sub(low).wrapping_add(1) as $uty as $wide;
                if range == 0 {
                    // The whole type: any draw will do.
                    return rng.$draw() as $ty;
                }
                low.wrapping_add($offset(range, rng) as $ty)
            }
            fn before(high: $ty) -> $ty {
                high - 1
            }
        }
    )*};
}

uniform_via! {
    u8 => u8, u32, next_u32, offset_u32;
    u16 => u16, u32, next_u32, offset_u32;
    u32 => u32, u32, next_u32, offset_u32;
    i8 => u8, u32, next_u32, offset_u32;
    i16 => u16, u32, next_u32, offset_u32;
    i32 => u32, u32, next_u32, offset_u32;
    u64 => u64, u64, next_u64, offset_u64;
    i64 => u64, u64, next_u64, offset_u64;
}

impl SampleUniform for usize {
    /// 32-bit sampling whenever the bounds fit, so streams match across
    /// pointer widths (rand 0.9's `UniformUsize`).
    fn sample_inclusive<R: RngCore + ?Sized>(low: usize, high: usize, rng: &mut R) -> usize {
        if high > u32::MAX as usize {
            u64::sample_inclusive(low as u64, high as u64, rng) as usize
        } else {
            u32::sample_inclusive(low as u32, high as u32, rng) as usize
        }
    }
    fn before(high: usize) -> usize {
        high - 1
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.random_range(10u32..=15);
            assert!((10..=15).contains(&v));
            seen[(v - 10) as usize] = true;
            let w = rng.random_range(0usize..3);
            assert!(w < 3);
            let s = rng.random_range(-5i32..5);
            assert!((-5..5).contains(&s));
            let big = rng.random_range(1u64 << 40..=(1u64 << 40) + 9);
            assert!((1u64 << 40..=(1u64 << 40) + 9).contains(&big));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.random_range(3u32..=3), 3);
    }

    #[test]
    fn full_width_range_is_a_raw_draw() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        assert_eq!(a.random_range(0u32..=u32::MAX), b.next_u32());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        StdRng::seed_from_u64(0).random_range(4u32..4);
    }
}
