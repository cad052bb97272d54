//! Seeded input generation. Every byte a workload publishes comes from a
//! [`Rng`] seeded by `--seed`; the program under test only ever sees the
//! generated values. The generator is the harness's own (not the
//! repository's `simnet::XorShift64`) so that a product change can never
//! alter the benchmark's inputs.

/// xorshift64* behind a splitmix64 seed scramble.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `lane` separates independent streams drawn
    /// from one seed (member names, reading values, blob bytes, ...).
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut z = seed
            .wrapping_add(lane.wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Lower-case ASCII string of exactly `len` characters.
    pub fn ident(&mut self, len: usize) -> String {
        (0..len).map(|_| char::from(b'a' + self.below(26) as u8)).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A CM-style contact string, `<host>:7<port>`, whose host part is 5–7
/// characters: 400 of them make the paper's 10 KB response, and the seed
/// moves the message size a little (no two seeds give byte-identical
/// traffic).
pub fn contact(rng: &mut Rng) -> String {
    let host_len = rng.range(5, 7) as usize;
    let host = rng.ident(host_len);
    format!("{host}:7{:03}", rng.below(1000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_seeds_differ() {
        assert_eq!(Rng::new(1, 0).ident(257), Rng::new(1, 0).ident(257));
        assert_ne!(Rng::new(1, 0).ident(257), Rng::new(2, 0).ident(257));
        assert_ne!(Rng::new(1, 0).ident(257), Rng::new(1, 1).ident(257));
        assert_eq!(contact(&mut Rng::new(9, 3)), contact(&mut Rng::new(9, 3)));
    }

    #[test]
    fn range_and_shuffle_stay_in_bounds() {
        let mut rng = Rng::new(5, 0);
        assert!((0..1000).all(|_| (3..=9).contains(&rng.range(3, 9))));
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
