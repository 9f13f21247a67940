//! Seeded input generation. The same seed gives the same inputs; the
//! program under test only ever sees the generated rows.

use clx_datagen::{DataGenerator, PhoneFormat};

/// SplitMix64: a small, well-mixed generator for the benchmark's own
/// sampling, so inputs do not depend on any other crate's RNG stream.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Up to `distinct` distinct phone values over the six study formats, with
/// the study's format skew.
pub fn phone_pool(distinct: usize, seed: u64) -> Vec<String> {
    let mut pool = DataGenerator::new(seed).phone_column(
        distinct,
        &PhoneFormat::STUDY_FORMATS,
        &[45, 30, 12, 8, 3, 2],
    );
    let mut seen = std::collections::HashSet::new();
    pool.retain(|v| seen.insert(v.clone()));
    pool
}

/// `rows` draws from `pool` with Zipf (s = 1) skew: the value at rank `r`
/// appears with frequency proportional to `1 / (r + 1)`.
pub fn zipf_rows(pool: &[String], rows: usize, seed: u64) -> Vec<&str> {
    let mut cumulative = Vec::with_capacity(pool.len());
    let mut total = 0.0;
    for rank in 0..pool.len() {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    let mut rng = SplitMix::new(seed);
    (0..rows)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c < u).min(pool.len() - 1);
            pool[rank].as_str()
        })
        .collect()
}

/// Distinct leaf signatures a [`leaf_row`] index can name (four runs of
/// 1..=40 characters).
pub const LEAF_ROWS: usize = 40 * 40 * 40 * 40;

/// The row for leaf index `n`: four runs whose lengths are `n`'s base-40
/// digits, so distinct indices below [`LEAF_ROWS`] give distinct leaf
/// signatures, not just distinct values.
pub fn leaf_row(n: usize) -> String {
    let len = |i: u32| n / 40usize.pow(i) % 40 + 1;
    format!(
        "{}-{}-{}-{}",
        "9".repeat(len(0)),
        "a".repeat(len(1)),
        "Z".repeat(len(2)),
        "8".repeat(len(3)),
    )
}

/// `rows` leaf rows, strided through the leaf space from an offset drawn
/// from the seed. The stride is coprime to [`LEAF_ROWS`], so no two rows
/// share a leaf signature, and it moves every run length, so each seed sees
/// the same spread of row lengths.
pub fn cold_rows(rows: usize, seed: u64) -> Vec<String> {
    const STRIDE: usize = 1_000_003;
    assert!(rows <= LEAF_ROWS, "cold stream longer than the leaf space");
    let offset = (SplitMix::new(seed).next_u64() % LEAF_ROWS as u64) as usize;
    (0..rows)
        .map(|i| leaf_row((offset + i * STRIDE) % LEAF_ROWS))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(phone_pool(300, 7), phone_pool(300, 7));
        assert_ne!(phone_pool(300, 7), phone_pool(300, 8));
        let pool = phone_pool(300, 7);
        assert_eq!(zipf_rows(&pool, 5_000, 3), zipf_rows(&pool, 5_000, 3));
        assert_ne!(zipf_rows(&pool, 5_000, 3), zipf_rows(&pool, 5_000, 4));
        assert_eq!(cold_rows(1_000, 9), cold_rows(1_000, 9));
        assert_ne!(cold_rows(1_000, 9), cold_rows(1_000, 10));
    }

    #[test]
    fn zipf_is_skewed_and_cold_rows_are_new_leaves() {
        let pool = phone_pool(300, 1);
        let rows = zipf_rows(&pool, 20_000, 1);
        let top = rows.iter().filter(|r| **r == pool[0]).count();
        let last = rows.iter().filter(|r| **r == pool[pool.len() - 1]).count();
        assert!(
            top > 20 * last.max(1),
            "rank 0: {top} rows, last rank: {last}"
        );

        let leaves: std::collections::HashSet<_> = cold_rows(5_000, 2)
            .iter()
            .map(|r| clx_pattern::tokenize(r))
            .collect();
        assert_eq!(leaves.len(), 5_000, "every cold row has its own leaf");
    }
}
