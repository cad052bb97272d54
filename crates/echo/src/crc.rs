//! The frame checksum: CRC-32 (IEEE 802.3, bit-reflected), one function
//! over two kernels that compute the same value.
//!
//! - [`crc32_table`], slicing-by-16: sixteen independent table lookups per
//!   16 bytes. It runs on every target and CPU, and takes every input
//!   shorter than [`FOLD_MIN_LEN`] — the 30-byte header prefix, short
//!   payloads, the under-16-byte tail the folding kernel leaves.
//! - `clmul::crc32`, carry-less-multiply folding (Gopal et al., *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction*,
//!   Intel, 2009 — the method zlib and Go's `hash/crc32` use for this
//!   polynomial): on x86-64 CPUs with PCLMULQDQ, four 128-bit accumulators
//!   fold 64 bytes per step, and a Barrett reduction takes the last 128 bits
//!   to 32.
//!
//! [`crc32`] picks the kernel per call; the caller never does. The folding
//! kernel's one `unsafe` is the call made right after the CPU check; the
//! kernel body is safe Rust compiled for PCLMULQDQ, reading its blocks as
//! arrays (no pointers). Its fold constants are computed from `CRC_POLY`
//! at compile time. Tests hold both kernels and the dispatcher to a
//! bit-at-a-time oracle.

/// The IEEE 802.3 generator polynomial, bit-reflected.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Input bytes the table kernel consumes per step, one lookup table each.
const CRC_LANES: usize = 16;

/// Inputs at least this long take the folding kernel where the CPU has
/// it: one whole 64-byte step. A shorter input would fold nothing and pay
/// the reduction on top of the table lookups.
const FOLD_MIN_LEN: usize = 64;

/// Slicing-by-16 lookup tables (16 KiB): `CRC_TABLES[0][b]` is the CRC
/// register after shifting byte `b` through eight zero-extended bit
/// rounds, and `CRC_TABLES[k][b]` the same after `k` further zero bytes.
static CRC_TABLES: [[u32; 256]; CRC_LANES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_LANES] {
    let mut tables = [[0u32; 256]; CRC_LANES];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC_LANES {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, starting from `seed`
/// (pass the return of a previous call to continue a running checksum;
/// start with 0). Every length is accepted; the folding kernel runs where
/// the CPU has it and the input is at least [`FOLD_MIN_LEN`] bytes, the
/// table kernel everywhere else. Both give the same value.
pub(crate) fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    if bytes.len() >= FOLD_MIN_LEN && !table_only() {
        if let Some(crc) = crc32_clmul(seed, bytes) {
            return crc;
        }
    }
    crc32_table(seed, bytes)
}

/// The folding kernel's [`crc32`], or `None` on a CPU without PCLMULQDQ
/// (always, off x86-64).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn crc32_clmul(seed: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the kernel is compiled for PCLMULQDQ alone, which the
        // line above just found on this CPU.
        #[allow(unsafe_code)]
        let crc = unsafe { clmul::crc32(seed, bytes) };
        return Some(crc);
    }
    None
}

/// The slicing-by-16 kernel. Each step folds the register into the first
/// four bytes of a [`CRC_LANES`]-byte chunk and looks every byte up in the
/// table for its distance from the chunk's end, so the lookups are
/// independent of each other; the tail shorter than a chunk goes a byte
/// at a time through the first table.
fn crc32_table(seed: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !seed;
    let mut chunks = bytes.chunks_exact(CRC_LANES);
    for chunk in &mut chunks {
        let mut next = 0;
        for (i, &b) in chunk.iter().enumerate() {
            let folded = if i < 4 { b ^ (crc >> (8 * i)) as u8 } else { b };
            next ^= t[CRC_LANES - 1 - i][usize::from(folded)];
        }
        crc = next;
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// The folding kernel, compiled for PCLMULQDQ. A 128-bit lane holds 16
/// message bytes with the first byte lowest, so in the reflected domain its
/// low 64 bits are the higher-degree half.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{crc32_table, CRC_POLY};

    /// `x^n mod P(x)` in the reflected representation, where bit 31 holds the
    /// coefficient of `x^0`: `n` multiplications by `x`, each one a shift
    /// toward bit 0 that reduces by [`CRC_POLY`] when `x^31` overflows.
    const fn xpow_mod(n: u32) -> u32 {
        let mut r = 1u32 << 31;
        let mut i = 0;
        while i < n {
            r = (r >> 1) ^ (CRC_POLY & 0u32.wrapping_sub(r & 1));
            i += 1;
        }
        r
    }

    /// The fold constant that moves a 64-bit half `n - 32` bits further down
    /// the message: `x^n mod P(x)` as the 33-bit reflected operand a
    /// carry-less multiply of reflected values takes (the reflected
    /// representation shifted up one bit).
    pub(super) const fn fold_constant(n: u32) -> u64 {
        (xpow_mod(n) as u64) << 1
    }

    /// `P(x)` itself as a 33-bit reflected operand: `x^32`'s coefficient lands
    /// in bit 0, the rest of the polynomial above it.
    pub(super) const POLY_REFLECTED: u64 = ((CRC_POLY as u64) << 1) | 1;

    /// Barrett's `μ = ⌊x^64 / P(x)⌋` (degree 32), as a 33-bit reflected
    /// operand: polynomial long division in the normal bit order, then the
    /// quotient's 33 bits reversed.
    pub(super) const BARRETT_MU: u64 = {
        let poly = (1u128 << 32) | CRC_POLY.reverse_bits() as u128;
        let mut rem = 1u128 << 64;
        let mut quotient = 0u64;
        let mut degree = 64;
        while degree >= 32 {
            if rem >> degree & 1 == 1 {
                quotient |= 1 << (degree - 32);
                rem ^= poly << (degree - 32);
            }
            degree -= 1;
        }
        quotient.reverse_bits() >> (64 - 33)
    };

    /// Moves a lane 512 bits on: over the three lanes each accumulator
    /// skips while the four fold side by side. Low half `x^(512+32)`,
    /// high half `x^(512-32)`.
    const FOLD_BY_4: [u64; 2] = [fold_constant(512 + 32), fold_constant(512 - 32)];
    /// Moves a lane 128 bits on, onto the next lane.
    const FOLD_BY_1: [u64; 2] = [fold_constant(128 + 32), fold_constant(128 - 32)];
    /// Takes the last 64 bits of the register to 32 (`x^64`).
    const FOLD_64: u64 = fold_constant(64);

    /// Two 64-bit operands as one lane, the first in the low half.
    #[target_feature(enable = "pclmulqdq")]
    fn pair([lo, hi]: [u64; 2]) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Sixteen message bytes as one lane.
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        pair([v as u64, (v >> 64) as u64])
    }

    /// `acc` carried over the lanes `k` spans, added to `next`: each half
    /// multiplied by its constant, the products and `next` summed.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// CRC-32 of `bytes` from `seed`, like [`crc32_table`]. Inputs without
    /// one whole 64-byte step go to the table; so does the tail under 16
    /// bytes, seeded with the folded value.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn crc32(seed: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (steps, singles) = blocks.as_chunks::<4>();
        let Some(([b0, b1, b2, b3], steps)) = steps.split_first() else {
            return crc32_table(seed, bytes);
        };
        // The register starts as `!seed`, added into the first four bytes.
        let start = _mm_xor_si128(load(b0), _mm_cvtsi32_si128(!seed as i32));
        let mut acc = [start, load(b1), load(b2), load(b3)];
        let k = pair(FOLD_BY_4);
        for step in steps {
            for (a, block) in acc.iter_mut().zip(step) {
                *a = fold(*a, k, load(block));
            }
        }
        // Four accumulators into one, then the remaining 16-byte blocks.
        let k = pair(FOLD_BY_1);
        let [mut x, x1, x2, x3] = acc;
        for next in [x1, x2, x3] {
            x = fold(x, k, next);
        }
        for block in singles {
            x = fold(x, k, load(block));
        }
        crc32_table(!reduce(x), tail)
    }

    /// The CRC register of the message a lane ends: 128 → 64 bits (the
    /// high-degree half moved onto the low one), 64 → 32 (`x^64`), then
    /// Barrett's reduction modulo `P(x)`.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i) -> u32 {
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x =
            _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, pair(FOLD_BY_1)));
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), pair([FOLD_64, 0])),
        );
        let barrett = pair([POLY_REFLECTED, BARRETT_MU]);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), barrett);
        (_mm_cvtsi128_si64(_mm_xor_si128(x, t)) as u64 >> 32) as u32
    }
}

/// Never, outside tests: `tests::on_the_table` holds [`crc32`] to the
/// table on its own thread, so frame-level tests cover both kernels.
#[cfg(not(test))]
fn table_only() -> bool {
    false
}

#[cfg(test)]
fn table_only() -> bool {
    tests::TABLE_ONLY.with(std::cell::Cell::get)
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    use simnet::XorShift64;

    use super::*;

    thread_local! {
        pub(super) static TABLE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `check` with [`crc32`] held to the table kernel on this thread,
    /// so a frame-level test can cover the kernel the dispatcher would not
    /// pick for its input here.
    pub(crate) fn on_the_table(check: impl FnOnce()) {
        TABLE_ONLY.with(|t| t.set(true));
        check();
        TABLE_ONLY.with(|t| t.set(false));
    }

    /// The bit-at-a-time routine the table kernel replaced, kept as the
    /// oracle: eight shift/xor rounds per byte, straight from the
    /// polynomial's definition.
    fn crc32_bitwise(seed: u32, bytes: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    fn random_bytes(rng: &mut XorShift64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// The folding kernel called by name, or `None` (with a note) on a CPU
    /// that does not have it.
    fn clmul_kernel() -> Option<Kernel> {
        if crc32_clmul(0, &[]).is_none() {
            eprintln!("note: this CPU has no PCLMULQDQ; the folding kernel is not tested here");
            return None;
        }
        Some(|seed, bytes| crc32_clmul(seed, bytes).expect("detected above"))
    }

    /// Every length through 300 (past the 64-, 128- and 192-byte step
    /// edges and every tail) at every start offset within a 16-byte block
    /// of the underlying buffer, then the frame sizes the benchmark
    /// workloads put on the wire, each from a random seed.
    fn agrees_with_the_bitwise_oracle(kernel: Kernel) {
        let mut rng = XorShift64::new(0xC4C);
        let pool = random_bytes(&mut rng, CRC_LANES + 300);
        for align in 0..CRC_LANES {
            for len in 0..=300 {
                let data = &pool[align..align + len];
                assert_eq!(kernel(0, data), crc32_bitwise(0, data), "align {align}, length {len}");
            }
        }
        for len in [86, 1_434, 9_658, 65_569] {
            let data = random_bytes(&mut rng, len);
            let seed = rng.next_u64() as u32;
            assert_eq!(kernel(seed, &data), crc32_bitwise(seed, &data), "length {len}");
        }
    }

    /// `frame_crc` runs the header and the payload as two calls; the seam
    /// sits at byte 30. Here it sits everywhere in 200 bytes, so each side
    /// of it is shorter and longer than one 64-byte step in turn.
    fn continues_across_every_split_point(kernel: Kernel) {
        let data = random_bytes(&mut XorShift64::new(0x5EA), 200);
        let whole = crc32_bitwise(0, &data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(kernel(kernel(0, a), b), whole, "split at {split}");
        }
    }

    #[test]
    fn crc32_known_answers() {
        // The check value every CRC-32/ISO-HDLC catalogue lists.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fold_constants_are_the_published_ones() {
        use super::clmul::{fold_constant, BARRETT_MU, POLY_REFLECTED};
        // Computed from CRC_POLY; these are the literals zlib, Go and the
        // Intel paper print for the IEEE polynomial.
        assert_eq!(fold_constant(512 + 32), 0x1_5444_2BD4);
        assert_eq!(fold_constant(512 - 32), 0x1_C6E4_1596);
        assert_eq!(fold_constant(128 + 32), 0x1_7519_97D0);
        assert_eq!(fold_constant(128 - 32), 0x0_CCAA_009E);
        assert_eq!(fold_constant(64), 0x1_63CD_6124);
        assert_eq!(POLY_REFLECTED, 0x1_DB71_0641);
        assert_eq!(BARRETT_MU, 0x1_F701_1641);
    }

    #[test]
    fn short_inputs_take_the_table_kernel() {
        // One whole fold step is the first input to leave the table: the
        // 30-byte header prefix and fanout_small's 49-byte payloads stay.
        assert_eq!(FOLD_MIN_LEN, 64);
    }

    #[test]
    fn table_kernel_agrees_with_the_bitwise_oracle() {
        agrees_with_the_bitwise_oracle(crc32_table);
    }

    #[test]
    fn clmul_kernel_agrees_with_the_bitwise_oracle() {
        if let Some(kernel) = clmul_kernel() {
            agrees_with_the_bitwise_oracle(kernel);
        }
    }

    #[test]
    fn crc32_agrees_with_the_bitwise_oracle() {
        agrees_with_the_bitwise_oracle(crc32);
    }

    #[test]
    fn table_kernel_continues_across_every_split_point() {
        continues_across_every_split_point(crc32_table);
    }

    #[test]
    fn clmul_kernel_continues_across_every_split_point() {
        if let Some(kernel) = clmul_kernel() {
            continues_across_every_split_point(kernel);
        }
    }

    #[test]
    fn crc32_continues_across_every_split_point() {
        continues_across_every_split_point(crc32);
    }
}
