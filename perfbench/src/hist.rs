//! Latency histogram with 1 ns buckets up to 2 µs and 1/1024-octave
//! buckets above (8 ns wide at 10 µs), so quantiles keep their
//! nanosecond digits without storing one sample per request.

const LINEAR_BITS: u32 = 10;
const LINEAR: usize = 1 << LINEAR_BITS;
const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range; samples of 2^40 ns (18 minutes) or
/// more land in the last bucket.
const OCTAVES: usize = 40 - LINEAR_BITS as usize;

/// Counts of nanosecond samples.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; LINEAR + OCTAVES * SUB],
            total: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    if ns < LINEAR as u64 {
        return ns as usize;
    }
    let ns = ns.min((1 << (LINEAR_BITS as usize + OCTAVES)) - 1);
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) as usize & (SUB - 1);
    LINEAR + (octave - LINEAR_BITS) as usize * SUB + sub
}

/// The midpoint of bucket `i`.
fn value(i: usize) -> f64 {
    if i < LINEAR {
        return i as f64;
    }
    let octave = (i - LINEAR) / SUB + LINEAR_BITS as usize;
    let sub = ((i - LINEAR) % SUB) as u64;
    let width = 1u64 << (octave - SUB_BITS as usize);
    ((1u64 << octave) + sub * width) as f64 + width as f64 / 2.0
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `q` in `[0, 1]`, in ns (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_below_two_us_and_close_above() {
        let mut h = Hist::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), 500.0);
        assert_eq!(h.quantile(0.99), 990.0);
        let mut big = Hist::default();
        big.record(5_000_000);
        let got = big.quantile(0.5);
        assert!((got - 5e6).abs() / 5e6 < 1.0 / SUB as f64, "{got}");
        let mut huge = Hist::default();
        huge.record(u64::MAX);
        assert!(huge.quantile(1.0) > 1e12);
    }
}
