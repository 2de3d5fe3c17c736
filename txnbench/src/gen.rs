//! Seeded workload generation.
//!
//! Everything a run feeds the program comes from here: a splitmix64 stream
//! per client, a Zipf(θ) sampler, a seeded rank → key scatter so the hot
//! ranks land on keys spread over the file, and the per-workload operation
//! generators. The program under test only ever sees the [`Op`]s.

use crate::workload::Kind;

/// splitmix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `stream` under `seed` (one per client).
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `H(n, θ) = Σ_{i=1..n} 1 / i^θ`, the Zipf normaliser.
pub fn harmonic(n: usize, theta: f64) -> f64 {
    (1..=n).map(|i| (i as f64).powf(-theta)).sum()
}

/// Exact Zipf(θ) over ranks `0..n` by inverse CDF: rank `r` has probability
/// `1 / ((r + 1)^θ · H(n, θ))`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf over an empty key set");
        let h = harmonic(n, theta);
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|i| {
                acc += (i as f64).powf(-theta) / h;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded bijection on `0..n`: `rank ↦ (rank · mul + add) mod n` with
/// `mul` coprime to `n`, so each seed puts its hot ranks on other keys.
#[derive(Debug, Clone)]
pub struct Scatter {
    n: u64,
    mul: u64,
    add: u64,
}

impl Scatter {
    pub fn new(n: u64, rng: &mut Rng) -> Self {
        assert!(n > 0, "scatter over an empty key set");
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut mul = rng.below(n) | 1;
        while n > 1 && gcd(mul, n) != 1 {
            mul = (mul + 2) % n;
        }
        Scatter {
            n,
            mul,
            add: rng.below(n),
        }
    }

    pub fn map(&self, rank: u64) -> u64 {
        ((u128::from(rank) * u128::from(self.mul) + u128::from(self.add)) % u128::from(self.n))
            as u64
    }
}

/// One client transaction, as handed to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Move `amount` from account `from` of ledger 1 to account `to` of
    /// ledger 2 (`amount` may be negative: then the money flows back).
    Transfer { from: u32, to: u32, amount: i64 },
    /// Add one to each record's counter; records are distinct and ascending
    /// so two clients always lock in the same order.
    Increment { recs: Vec<u32> },
    /// Shared-lock `count` records from `first` and read them one by one.
    Scan { first: u32, count: u32 },
}

impl Op {
    pub fn is_update(&self) -> bool {
        !matches!(self, Op::Scan { .. })
    }
}

/// Zipf skew of every hot-key picker.
pub const THETA: f64 = 0.99;
/// Records per range of `scan_read_mostly` (4 pages of 16 records).
pub const SCAN_RANGE: u32 = 64;
/// Records incremented per `update_local` transaction.
pub const INCREMENTS: usize = 4;
/// Share of `scan_read_mostly` transactions that update, in percent.
pub const UPDATE_PERCENT: u64 = 10;

/// A per-client operation stream for one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    kind: Kind,
    records: u32,
    rng: Rng,
    zipf: Zipf,
    scatter: Scatter,
}

impl Generator {
    /// The stream of client `client` under `seed`. Every client shares the
    /// seed's hot-key placement and draws its own operations.
    pub fn new(kind: Kind, seed: u64, client: u64) -> Self {
        let records = kind.spec().records;
        let hot_keys = match kind {
            Kind::ScanReadMostly => u64::from(records / SCAN_RANGE),
            _ => u64::from(records),
        };
        let mut placement = Rng::for_stream(seed, u64::MAX);
        Generator {
            kind,
            records,
            rng: Rng::for_stream(seed, client),
            zipf: Zipf::new(hot_keys as usize, THETA),
            scatter: Scatter::new(hot_keys, &mut placement),
        }
    }

    fn hot(&mut self) -> u32 {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        self.scatter.map(rank) as u32
    }

    fn uniform(&mut self) -> u32 {
        self.rng.below(u64::from(self.records)) as u32
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::Transfer2pc => {
                let from = self.hot();
                let to = self.hot();
                let magnitude = 1 + self.rng.below(100) as i64;
                let amount = if self.rng.below(2) == 0 {
                    magnitude
                } else {
                    -magnitude
                };
                Op::Transfer { from, to, amount }
            }
            Kind::UpdateLocal => {
                let mut recs = Vec::with_capacity(INCREMENTS);
                while recs.len() < INCREMENTS {
                    let r = self.uniform();
                    if !recs.contains(&r) {
                        recs.push(r);
                    }
                }
                recs.sort_unstable();
                Op::Increment { recs }
            }
            Kind::ScanReadMostly => {
                if self.rng.below(100) < UPDATE_PERCENT {
                    Op::Increment {
                        recs: vec![self.uniform()],
                    }
                } else {
                    Op::Scan {
                        first: self.hot() * SCAN_RANGE,
                        count: SCAN_RANGE,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_operations() {
        for kind in Kind::ALL {
            let a: Vec<Op> = {
                let mut g = Generator::new(kind, 7, 1);
                (0..500).map(|_| g.next_op()).collect()
            };
            let b: Vec<Op> = {
                let mut g = Generator::new(kind, 7, 1);
                (0..500).map(|_| g.next_op()).collect()
            };
            assert_eq!(a, b, "{kind:?}");
            let mut other = Generator::new(kind, 8, 1);
            let c: Vec<Op> = (0..500).map(|_| other.next_op()).collect();
            assert_ne!(a, c, "{kind:?}: another seed gives other operations");
        }
    }

    #[test]
    fn clients_draw_distinct_streams() {
        let mut g0 = Generator::new(Kind::Transfer2pc, 3, 0);
        let mut g1 = Generator::new(Kind::Transfer2pc, 3, 1);
        let a: Vec<Op> = (0..100).map(|_| g0.next_op()).collect();
        let b: Vec<Op> = (0..100).map(|_| g1.next_op()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn top_key_frequency_matches_zipf_head() {
        for (n, draws) in [(1_024usize, 400_000u32), (65_536, 400_000)] {
            let z = Zipf::new(n, THETA);
            let mut rng = Rng::new(42);
            let top = (0..draws).filter(|_| z.sample(&mut rng) == 0).count();
            let observed = top as f64 / f64::from(draws);
            let expected = 1.0 / harmonic(n, THETA);
            let err = (observed - expected).abs() / expected;
            assert!(
                err < 0.05,
                "n={n}: top key {observed:.5} vs 1/H = {expected:.5}"
            );
        }
    }

    #[test]
    fn zipf_stays_in_range() {
        let z = Zipf::new(10, THETA);
        let mut rng = Rng::new(1);
        assert!((0..10_000).all(|_| z.sample(&mut rng) < 10));
    }

    #[test]
    fn scatter_is_a_bijection() {
        for n in [1u64, 7, 16, 1_024, 1_000] {
            let s = Scatter::new(n, &mut Rng::new(n));
            let mut seen: Vec<u64> = (0..n).map(|r| s.map(r)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn pickers_respect_their_shapes() {
        let mut g = Generator::new(Kind::UpdateLocal, 5, 0);
        for _ in 0..1_000 {
            let Op::Increment { recs } = g.next_op() else {
                panic!("update_local only increments")
            };
            assert_eq!(recs.len(), INCREMENTS);
            assert!(recs.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
            assert!(recs.iter().all(|&r| r < 16_384));
        }
        let mut g = Generator::new(Kind::ScanReadMostly, 5, 0);
        let ops: Vec<Op> = (0..10_000).map(|_| g.next_op()).collect();
        let updates = ops.iter().filter(|o| o.is_update()).count();
        assert!((800..1_200).contains(&updates), "{updates} updates in 10k");
        for op in &ops {
            if let Op::Scan { first, count } = op {
                assert_eq!(first % SCAN_RANGE, 0);
                assert!(first + count <= 65_536);
            }
        }
    }
}
