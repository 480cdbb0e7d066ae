//! The benchmark's own seeded input generator: splitmix64 seeding, an
//! xorshift64* stream, a zipf CDF table and a cumulative op-mix sampler.
//!
//! Nothing here comes from the crates under test (`pgl_kv::workload`, the
//! vendored `rand` shim), so a change to those crates cannot change the
//! benchmark's inputs: the same `--seed` yields the same op stream, byte
//! for byte (pinned by `workloads::tests::op_streams_are_pinned_by_seed`).

/// One splitmix64 step: advances `state` and returns the mixed output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// The splitmix64 finalizer, a bijection on `u64`; used to scatter dense
/// indices over the key space.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xorshift64* stream. `stream` separates the generators of one run
/// (per thread, per connection, per phase) so they never share a sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let a = splitmix64(&mut s);
        // xorshift state must be non-zero.
        Rng(if a == 0 { 0x2545_F491_4F6C_DD1D } else { a })
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the multiply-shift map's bias is below
    /// 2^-32 for every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian rank sampler over `0..n`: rank 0 is hottest, weight
/// `1/(rank+1)^theta`. A CDF table searched by bisection.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty rank set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Picks an op kind by percentage weights (which must sum to 100).
#[derive(Debug, Clone)]
pub struct Mix<const N: usize> {
    cum: [u8; N],
}

impl<const N: usize> Mix<N> {
    pub const fn new(weights: [u8; N]) -> Mix<N> {
        let mut cum = [0u8; N];
        let mut total = 0u8;
        let mut i = 0;
        while i < N {
            total += weights[i];
            cum[i] = total;
            i += 1;
        }
        assert!(total == 100, "op mix weights must sum to 100");
        Mix { cum }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let r = rng.below(100) as u8;
        self.cum.iter().position(|&c| r < c).expect("weights sum to 100")
    }
}

/// FNV-1a, the hash the determinism tests pin op streams with.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

#[cfg(test)]
impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

#[cfg(test)]
impl Fnv {
    pub fn eat(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
}

/// A block of seeded bytes that write payloads are sliced from, so the
/// timed loop never spends time producing data.
#[derive(Debug)]
pub struct Arena(Vec<u8>);

impl Arena {
    pub fn new(seed: u64, len: usize) -> Arena {
        let mut rng = Rng::new(seed, 0xA7E4A);
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(len);
        Arena(bytes)
    }

    /// `len` payload bytes starting at a seeded offset; returns the offset
    /// so the op stream records which bytes were chosen.
    pub fn pick(&self, rng: &mut Rng, len: usize) -> u32 {
        rng.below((self.0.len() - len + 1) as u64) as u32
    }

    pub fn slice(&self, off: u32, len: usize) -> &[u8] {
        &self.0[off as usize..off as usize + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(11, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(11, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other_stream = Rng::new(11, 1);
        assert_ne!(a[0], other_stream.next_u64());
        let mut other_seed = Rng::new(12, 0);
        assert_ne!(a[0], other_seed.next_u64());
        let mut r = Rng::new(3, 3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(5, 0);
        let mut hits = vec![0u32; 1000];
        for _ in 0..50_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500], "rank 0 must be hottest");
        assert!(hits[0] > 5_000, "theta 0.99 puts >10% on rank 0 of 1000: {}", hits[0]);
    }

    #[test]
    fn mix_follows_its_weights() {
        let mix = Mix::new([70, 15, 15]);
        let mut rng = Rng::new(9, 0);
        let mut n = [0u32; 3];
        for _ in 0..20_000 {
            n[mix.pick(&mut rng)] += 1;
        }
        assert!((13_400..14_600).contains(&n[0]), "{n:?}");
        assert!((2_600..3_400).contains(&n[1]) && (2_600..3_400).contains(&n[2]), "{n:?}");
    }

    #[test]
    fn arena_payloads_are_in_bounds() {
        let arena = Arena::new(1, 4096);
        let mut rng = Rng::new(1, 1);
        for _ in 0..1000 {
            let off = arena.pick(&mut rng, 256);
            assert_eq!(arena.slice(off, 256).len(), 256);
        }
        assert_eq!(arena.slice(4096 - 256, 256).len(), 256);
    }
}
