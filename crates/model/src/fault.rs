//! Bit-level retention-fault injection at KV-cache read time.
//!
//! eDRAM cells lose charge over time; if the refresh interval exceeds a cell's
//! retention time the stored bit flips (§2.3, Fig. 4).  Kelle's 2DRP assigns
//! different refresh intervals — and therefore different bit-flip
//! probabilities — along two dimensions (§4.2):
//!
//! * **token importance**: high-score tokens (HST) are refreshed more often
//!   than low-score tokens (LST);
//! * **bit significance**: the most significant byte of each 16-bit word
//!   (bits 15–8) is refreshed more often than the least significant byte
//!   (bits 7–0).
//!
//! The [`FaultInjector`] trait lets the functional model apply this corruption
//! when reading cached values, without knowing where the probabilities come
//! from; `kelle-edram` computes them from retention physics and the configured
//! refresh intervals, and `kelle-core` wires the two together.
//!
//! # Sampling: geometric gaps, one draw per flip
//!
//! Every stored bit read is an independent Bernoulli trial with its class's
//! probability `p`, a class being one (token group × bit significance) pair.
//! [`ProbabilisticFaults`] does not draw a number per bit.  Each lane keeps,
//! for each of its four classes, the count of clean bits left before that
//! class's next flip.  A read of `n` words subtracts `8n` from the MSB and the
//! LSB class of the token's group.  Only when the count runs out does a flip
//! land, and only then is the next gap drawn, as
//! `floor(ln(1 - U) / ln(1 - p))` with `U` uniform on `[0, 1)`.
//!
//! This is exact, not an approximation.  The number of failures before the
//! first success in i.i.d. Bernoulli(`p`) trials is geometric, and that
//! inverse-CDF draw is that geometric law.  Gaps are memoryless, so carrying
//! the rest of a gap into the next read, or cutting a read into words,
//! changes nothing.  Classes are independent of each other, so giving each
//! class its own countdown while they share the lane's RNG keeps the joint
//! law.  A read costs O(1 + flips) instead of 16 draws per word, and only
//! words that flip go through the FP16 conversion.
//!
//! Within a class, bit `k` of a read is the `k % 8`-th bit of its byte in word
//! `k / 8`.  Flips land in (word, MSB before LSB, bit) order, the order a
//! word-by-word read meets them, so one slice read draws exactly the numbers
//! of the same words read one at a time.
//!
//! Edge rates: a rate ≤ 0 or NaN never flips and draws nothing; a rate ≥ 1
//! flips every bit and draws nothing.  A tiny positive rate such as 1e-12
//! gives huge but finite gaps; a gap beyond `u64::MAX` bits means "never".
//!
//! The random stream differs from the earlier one-draw-per-bit sampler, so
//! the exact flip positions for a seed changed with this sampler; the
//! distribution did not.

use kelle_tensor::fp16;
use kelle_tensor::rng::{self, DetRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Importance group of a token, as classified by the cache policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenGroup {
    /// High-score token (heavy hitter): refreshed frequently under 2DRP.
    HighScore,
    /// Low-score token: refreshed rarely under 2DRP.
    LowScore,
}

/// Bit-significance group within a 16-bit storage word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignificanceGroup {
    /// Bits 15–8 (sign, exponent and high mantissa bits of FP16).
    Msb,
    /// Bits 7–0 (low mantissa bits of FP16).
    Lsb,
}

impl SignificanceGroup {
    /// The significance group of a bit position within a 16-bit word.
    pub fn of_bit(bit: u8) -> Self {
        if bit >= 8 {
            SignificanceGroup::Msb
        } else {
            SignificanceGroup::Lsb
        }
    }
}

/// Counters describing how much corruption an injector has applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Number of 16-bit words examined.
    pub words_examined: u64,
    /// Number of individual bits flipped.
    pub bits_flipped: u64,
}

impl FaultStats {
    /// Observed bit-error rate (flipped bits / examined bits).
    pub fn bit_error_rate(&self) -> f64 {
        if self.words_examined == 0 {
            0.0
        } else {
            self.bits_flipped as f64 / (self.words_examined as f64 * 16.0)
        }
    }
}

/// Applies retention-failure corruption to values read from the KV cache.
pub trait FaultInjector: std::fmt::Debug {
    /// Possibly corrupts one value belonging to a token of the given group.
    ///
    /// The value is conceptually stored as a 16-bit FP16 word; implementations
    /// flip stored bits according to their model and return the resulting
    /// value.
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32;

    /// Corrupts a whole vector in place, as if each element were passed to
    /// [`corrupt`](FaultInjector::corrupt) in order.
    ///
    /// The default loops over [`corrupt`](FaultInjector::corrupt).
    /// [`ProbabilisticFaults`] and its lanes override it to skip the slice in
    /// O(1 + flips) with no per-word loop, bit-identically to that loop.
    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        for v in values.iter_mut() {
            *v = self.corrupt(*v, group);
        }
    }

    /// Selects the deterministic substream that subsequent
    /// [`corrupt`](FaultInjector::corrupt) calls draw from.
    ///
    /// The attention pass calls this at the start of every `(layer, head)`
    /// iteration — in both the fused and the reference path — so that the
    /// random draws consumed for one head never shift the stream seen by
    /// another.  That per-head partitioning is what lets heads run on
    /// different workers while producing exactly the bits of the sequential
    /// order.  Stateless injectors ignore it (the default is a no-op).
    fn begin_lane(&mut self, layer: usize, head: usize) {
        let _ = (layer, head);
    }

    /// Splits the injector into one independently-usable handle per head of
    /// `layer`, in head order, for parallel attention.
    ///
    /// Each returned handle owns the same substream that
    /// [`begin_lane`](FaultInjector::begin_lane)`(layer, head)` would select,
    /// so corrupting head `h`'s reads through handle `h` on any thread is
    /// bit-identical to the sequential pass.  Counters accumulated through
    /// the handles must be reflected in [`stats`](FaultInjector::stats)
    /// afterwards.  Returns `None` when the injector cannot be partitioned
    /// (the default); callers must then fall back to the sequential pass.
    fn split_lanes(
        &mut self,
        layer: usize,
        heads: usize,
    ) -> Option<Vec<&mut (dyn FaultInjector + Send)>> {
        let _ = (layer, heads);
        None
    }

    /// Whether this injector is guaranteed to never change a value *and*
    /// never update its counters, for any input.
    ///
    /// The decode hot path consults this once per attention pass: when it
    /// returns `true`, cached keys and values are read by reference straight
    /// out of the storage arenas with zero copies; otherwise each read is
    /// staged through scratch buffers so the stored bits stay pristine while
    /// the attention math sees the corrupted view.  Defaults to `false`
    /// (conservative: the staging path is always correct, merely slower).
    ///
    /// Implementations must not return `true` if skipping `corrupt` calls
    /// would be observable — e.g. [`ProbabilisticFaults`] keeps returning
    /// `false` even for all-zero rates because it counts examined words.
    fn is_noop(&self) -> bool {
        false
    }

    /// Corruption counters accumulated so far.
    fn stats(&self) -> FaultStats;
}

/// A fault injector that never corrupts anything (the FP16 reference setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn corrupt(&mut self, value: f32, _group: TokenGroup) -> f32 {
        value
    }

    fn is_noop(&self) -> bool {
        true
    }

    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Per-(token-group, bit-group) bit-flip probabilities.
///
/// This is the interface point between the refresh policy (which knows refresh
/// intervals and retention physics) and the functional model (which knows
/// values and token groups).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitFlipRates {
    /// Flip probability per bit for MSBs of high-score tokens.
    pub hst_msb: f64,
    /// Flip probability per bit for LSBs of high-score tokens.
    pub hst_lsb: f64,
    /// Flip probability per bit for MSBs of low-score tokens.
    pub lst_msb: f64,
    /// Flip probability per bit for LSBs of low-score tokens.
    pub lst_lsb: f64,
}

impl BitFlipRates {
    /// A uniform rate across all groups (the "Uniform" ablation in Table 4).
    pub fn uniform(rate: f64) -> Self {
        BitFlipRates {
            hst_msb: rate,
            hst_lsb: rate,
            lst_msb: rate,
            lst_lsb: rate,
        }
    }

    /// No corruption at all.
    pub fn zero() -> Self {
        Self::uniform(0.0)
    }

    /// The rate for a given token group and bit significance.
    pub fn rate(&self, group: TokenGroup, sig: SignificanceGroup) -> f64 {
        match (group, sig) {
            (TokenGroup::HighScore, SignificanceGroup::Msb) => self.hst_msb,
            (TokenGroup::HighScore, SignificanceGroup::Lsb) => self.hst_lsb,
            (TokenGroup::LowScore, SignificanceGroup::Msb) => self.lst_msb,
            (TokenGroup::LowScore, SignificanceGroup::Lsb) => self.lst_lsb,
        }
    }

    /// Average per-bit flip rate across the four groups (equal weighting).
    pub fn average(&self) -> f64 {
        (self.hst_msb + self.hst_lsb + self.lst_msb + self.lst_lsb) / 4.0
    }
}

/// Gap meaning no flip is coming: a class that never flips, or a geometric
/// draw beyond `u64::MAX` bits.  Reads never use it up.
const NO_FLIP: u64 = u64::MAX;

/// How one flip class turns its probability into gaps between flips.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GapLaw {
    /// Rate ≤ 0 or NaN: no bit ever flips and nothing is drawn.
    Never,
    /// Rate ≥ 1: every bit flips and nothing is drawn.
    Always,
    /// 0 < p < 1: geometric gaps; holds `ln(1 - p)`, which is negative.
    Geometric(f64),
}

impl GapLaw {
    fn new(rate: f64) -> Self {
        if rate >= 1.0 {
            GapLaw::Always
        } else if rate > 0.0 {
            GapLaw::Geometric((-rate).ln_1p())
        } else {
            GapLaw::Never
        }
    }
}

/// Clean bits in the geometric law with `ln(1 - p)` = `ln_q`, from one
/// uniform draw `u` in `[0, 1)`.  The quotient is finite and ≥ 0 or +Inf;
/// the float-to-int cast floors it and saturates +Inf to [`NO_FLIP`].
fn geometric_gap(u: f64, ln_q: f64) -> u64 {
    ((-u).ln_1p() / ln_q) as u64
}

/// Class index of a (token group, significance) pair, in [`BitFlipRates`]
/// field order.
fn class_of(group: TokenGroup, sig: SignificanceGroup) -> usize {
    let g = match group {
        TokenGroup::HighScore => 0,
        TokenGroup::LowScore => 2,
    };
    match sig {
        SignificanceGroup::Msb => g,
        SignificanceGroup::Lsb => g + 1,
    }
}

/// Flips `mask` in the FP16 word storing `value`.
fn flip_word(value: f32, mask: u16) -> f32 {
    let corrupted = fp16::f16_bits_to_f32(fp16::f32_to_f16_bits(value) ^ mask);
    // A flipped exponent bit can produce Inf/NaN; physical systems would
    // read the garbage value, but propagating NaN through softmax makes
    // the divergence metric saturate instantly and hides the relative
    // ordering the experiments measure.  Clamp to the FP16 finite range.
    if corrupted.is_finite() {
        corrupted
    } else {
        fp16::f16_bits_to_f32(0x7BFF) * corrupted.signum().max(-1.0)
    }
}

/// One deterministic substream of a [`ProbabilisticFaults`] injector.
///
/// A lane owns its own RNG (seeded from the parent seed and the lane's
/// `(layer, head)` label via [`rng::lane`]), its own counters and the gap
/// to the next flip of each class, so the draws consumed for one attention
/// head never shift the stream of another.
#[derive(Debug, Clone)]
struct FaultLane {
    laws: [GapLaw; 4],
    /// Clean bits left before each class's next flip ([`NO_FLIP`] if none).
    gaps: [u64; 4],
    rng: DetRng,
    stats: FaultStats,
}

impl FaultLane {
    fn new(rates: BitFlipRates, seed: u64, layer: usize, head: usize) -> Self {
        let laws = [rates.hst_msb, rates.hst_lsb, rates.lst_msb, rates.lst_lsb].map(GapLaw::new);
        let mut lane = FaultLane {
            laws,
            gaps: [NO_FLIP; 4],
            rng: rng::lane(seed, layer as u64, head as u64),
            stats: FaultStats::default(),
        };
        for class in 0..4 {
            lane.gaps[class] = lane.draw_gap(class);
        }
        lane
    }

    /// Draws the clean bits before `class`'s next flip.
    fn draw_gap(&mut self, class: usize) -> u64 {
        match self.laws[class] {
            GapLaw::Never => NO_FLIP,
            GapLaw::Always => 0,
            GapLaw::Geometric(ln_q) => geometric_gap(self.rng.gen::<f64>(), ln_q),
        }
    }

    /// Reads `words` words of `group`: advances both of the group's classes
    /// by `8 * words` bits and calls `flip(word, mask)` once for every word
    /// that has flips, in word order.
    fn read(&mut self, words: usize, group: TokenGroup, mut flip: impl FnMut(usize, u16)) {
        self.stats.words_examined += words as u64;
        let bits = words as u64 * 8;
        let classes = [
            class_of(group, SignificanceGroup::Msb),
            class_of(group, SignificanceGroup::Lsb),
        ];
        // Offset of each class's next flip within this read's bits.
        let mut next = classes.map(|class| self.gaps[class]);
        let mut pending: Option<(usize, u16)> = None;
        loop {
            // MSB first within a word, as a word-by-word read meets them.
            let side = usize::from(next[0] / 8 > next[1] / 8);
            let pos = next[side];
            if pos >= bits {
                // The earlier class's next flip is past the read, so both are.
                break;
            }
            let word = (pos / 8) as usize;
            let bit = (pos % 8) as u16 + if side == 0 { 8 } else { 0 };
            match &mut pending {
                Some((w, mask)) if *w == word => *mask |= 1 << bit,
                _ => {
                    if let Some((w, mask)) = pending {
                        flip(w, mask);
                    }
                    pending = Some((word, 1 << bit));
                }
            }
            self.stats.bits_flipped += 1;
            let gap = self.draw_gap(classes[side]);
            next[side] = pos.saturating_add(1).saturating_add(gap);
        }
        if let Some((w, mask)) = pending {
            flip(w, mask);
        }
        for (class, pos) in classes.into_iter().zip(next) {
            self.gaps[class] = if pos == NO_FLIP { NO_FLIP } else { pos - bits };
        }
    }
}

impl FaultInjector for FaultLane {
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32 {
        let mut out = value;
        self.read(1, group, |_, mask| out = flip_word(value, mask));
        out
    }

    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        self.read(values.len(), group, |w, mask| {
            values[w] = flip_word(values[w], mask)
        });
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }
}

/// A probabilistic fault injector driven by per-group bit-flip rates.
///
/// Random draws are partitioned into deterministic per-`(layer, head)` lanes
/// (created on demand; direct [`corrupt`](FaultInjector::corrupt) calls with
/// no preceding [`begin_lane`](FaultInjector::begin_lane) use lane `(0, 0)`).
/// Each lane's RNG is seeded from the injector seed and the lane label alone,
/// so the bits a head's reads see depend only on the per-head corruption
/// history — never on how heads interleave across layers, steps or worker
/// threads.  [`stats`](FaultInjector::stats) sums the lane counters.
///
/// `Clone` snapshots the full injector state (rates, every lane's RNG
/// position, flip gaps and counters); the prefix-sharing machinery uses this to capture
/// the exact post-prefix fault stream so a cache-hit session resumes the
/// stream bit-identically to a cold one.
#[derive(Debug, Clone)]
pub struct ProbabilisticFaults {
    rates: BitFlipRates,
    seed: u64,
    lanes: Vec<FaultLane>,
    index: crate::hash::FastHashMap<(u32, u32), usize>,
    active: usize,
}

impl ProbabilisticFaults {
    /// Creates an injector with the given rates and RNG seed.
    pub fn new(rates: BitFlipRates, seed: u64) -> Self {
        ProbabilisticFaults {
            rates,
            seed,
            lanes: Vec::new(),
            index: crate::hash::FastHashMap::default(),
            active: 0,
        }
    }

    /// The configured rates.
    pub fn rates(&self) -> BitFlipRates {
        self.rates
    }

    /// Index of the lane for `(layer, head)`, creating it if needed.
    fn lane_slot(&mut self, layer: usize, head: usize) -> usize {
        let key = (layer as u32, head as u32);
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let slot = self.lanes.len();
        self.lanes
            .push(FaultLane::new(self.rates, self.seed, layer, head));
        self.index.insert(key, slot);
        slot
    }

    /// The lane selected by the last `begin_lane`, or lane `(0, 0)`.
    fn active_lane(&mut self) -> &mut FaultLane {
        if self.lanes.is_empty() {
            self.active = self.lane_slot(0, 0);
        }
        &mut self.lanes[self.active]
    }
}

impl FaultInjector for ProbabilisticFaults {
    fn corrupt(&mut self, value: f32, group: TokenGroup) -> f32 {
        self.active_lane().corrupt(value, group)
    }

    fn corrupt_slice(&mut self, values: &mut [f32], group: TokenGroup) {
        self.active_lane().corrupt_slice(values, group)
    }

    fn begin_lane(&mut self, layer: usize, head: usize) {
        self.active = self.lane_slot(layer, head);
    }

    fn split_lanes(
        &mut self,
        layer: usize,
        heads: usize,
    ) -> Option<Vec<&mut (dyn FaultInjector + Send)>> {
        for head in 0..heads {
            self.lane_slot(layer, head);
        }
        // Map each storage slot back to its head position so one pass over
        // `lanes` can hand out disjoint `&mut`s in head order.
        let mut head_of_slot = vec![usize::MAX; self.lanes.len()];
        for head in 0..heads {
            head_of_slot[self.index[&(layer as u32, head as u32)]] = head;
        }
        let mut out: Vec<Option<&mut (dyn FaultInjector + Send)>> =
            (0..heads).map(|_| None).collect();
        for (slot, fault_lane) in self.lanes.iter_mut().enumerate() {
            if head_of_slot[slot] != usize::MAX {
                out[head_of_slot[slot]] = Some(fault_lane);
            }
        }
        Some(
            out.into_iter()
                .map(|lane| lane.expect("lane created above"))
                .collect(),
        )
    }

    fn stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for lane in &self.lanes {
            total.words_examined += lane.stats.words_examined;
            total.bits_flipped += lane.stats.bits_flipped;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let mut inj = NoFaults;
        assert_eq!(inj.corrupt(1.25, TokenGroup::HighScore), 1.25);
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn zero_rate_never_flips() {
        let mut inj = ProbabilisticFaults::new(BitFlipRates::zero(), 1);
        for i in 0..100 {
            let v = i as f32 * 0.01;
            assert_eq!(inj.corrupt(v, TokenGroup::LowScore), v);
        }
        assert_eq!(inj.stats().bits_flipped, 0);
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let rate = 0.02;
        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(rate), 7);
        let mut values = vec![0.5f32; 20_000];
        inj.corrupt_slice(&mut values, TokenGroup::HighScore);
        let observed = inj.stats().bit_error_rate();
        assert!((observed - rate).abs() < 0.005, "observed {observed}");
    }

    #[test]
    fn asymmetric_rates_hit_only_configured_group() {
        let rates = BitFlipRates {
            hst_msb: 0.5,
            hst_lsb: 0.5,
            lst_msb: 0.0,
            lst_lsb: 0.0,
        };
        let mut inj = ProbabilisticFaults::new(rates, 3);
        let mut lst = vec![0.25f32; 1000];
        inj.corrupt_slice(&mut lst, TokenGroup::LowScore);
        assert!(lst.iter().all(|&v| v == 0.25));
        let mut hst = vec![0.25f32; 1000];
        inj.corrupt_slice(&mut hst, TokenGroup::HighScore);
        assert!(hst.iter().any(|&v| v != 0.25));
    }

    #[test]
    fn msb_errors_cause_larger_value_changes_than_lsb() {
        let msb_only = BitFlipRates {
            hst_msb: 0.05,
            hst_lsb: 0.0,
            lst_msb: 0.05,
            lst_lsb: 0.0,
        };
        let lsb_only = BitFlipRates {
            hst_msb: 0.0,
            hst_lsb: 0.05,
            lst_msb: 0.0,
            lst_lsb: 0.05,
        };
        let mean_abs_err = |rates: BitFlipRates| {
            let mut inj = ProbabilisticFaults::new(rates, 11);
            let mut total = 0.0f64;
            let n = 5000;
            for i in 0..n {
                let v = 0.3 + (i as f32 % 7.0) * 0.1;
                let c = inj.corrupt(v, TokenGroup::HighScore);
                total += f64::from((c - v).abs());
            }
            total / n as f64
        };
        assert!(mean_abs_err(msb_only) > 10.0 * mean_abs_err(lsb_only));
    }

    #[test]
    fn corrupted_values_stay_finite() {
        let mut inj = ProbabilisticFaults::new(BitFlipRates::uniform(0.2), 13);
        for i in 0..2000 {
            let v = (i as f32 - 1000.0) * 0.05;
            assert!(inj.corrupt(v, TokenGroup::HighScore).is_finite());
        }
    }

    #[test]
    fn lane_streams_are_independent_of_visit_order() {
        let rates = BitFlipRates::uniform(0.3);
        let run = |head_order: &[usize]| -> (Vec<Vec<u32>>, FaultStats) {
            let mut inj = ProbabilisticFaults::new(rates, 5);
            let mut per_head = vec![Vec::new(); 3];
            for &h in head_order {
                inj.begin_lane(0, h);
                for i in 0..16 {
                    let v = 0.1 + i as f32 * 0.05;
                    per_head[h].push(inj.corrupt(v, TokenGroup::LowScore).to_bits());
                }
            }
            (per_head, inj.stats())
        };
        assert_eq!(run(&[0, 1, 2]), run(&[2, 0, 1]));
    }

    #[test]
    fn split_lanes_matches_begin_lane_streams() {
        let rates = BitFlipRates::uniform(0.25);
        let draw = |inj: &mut dyn FaultInjector| -> Vec<u32> {
            (0..8)
                .map(|i| inj.corrupt(i as f32 * 0.1, TokenGroup::HighScore).to_bits())
                .collect()
        };
        let sequential = {
            let mut inj = ProbabilisticFaults::new(rates, 9);
            let mut outs = Vec::new();
            for h in 0..4 {
                inj.begin_lane(1, h);
                outs.push(draw(&mut inj));
            }
            (outs, inj.stats())
        };
        let split = {
            let mut inj = ProbabilisticFaults::new(rates, 9);
            let mut outs = vec![Vec::new(); 4];
            // Visit the split handles in reverse to prove order irrelevance.
            for (h, lane) in inj.split_lanes(1, 4).unwrap().into_iter().enumerate().rev() {
                outs[h] = draw(lane);
            }
            (outs, inj.stats())
        };
        assert_eq!(sequential, split);
    }

    #[test]
    fn default_split_lanes_is_none() {
        let mut inj = NoFaults;
        assert!(inj.split_lanes(0, 4).is_none());
    }

    /// Reads `words` words of `group` through `lane` and returns each word's
    /// flip mask (0 for a clean word), before any FP16 clamping.
    fn masks(lane: &mut FaultLane, words: usize, group: TokenGroup) -> Vec<u16> {
        let mut out = vec![0u16; words];
        lane.read(words, group, |w, mask| out[w] = mask);
        out
    }

    /// Whether `count` successes of `n` Bernoulli(`p`) trials lie within
    /// `z` standard deviations of the mean (normal approximation).
    fn within_binomial(count: u64, n: u64, p: f64, z: f64) -> bool {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        (count as f64 - mean).abs() <= z * sd
    }

    /// z for a two-sided 99.9 % interval.
    const Z999: f64 = 3.29;

    /// Per-class flip counts over `words_per_group` words of each group,
    /// read in 16-word slices alternating between the groups.
    fn class_counts(rates: BitFlipRates, seed: u64, words_per_group: usize) -> [u64; 4] {
        let mut lane = FaultLane::new(rates, seed, 0, 0);
        let mut counts = [0u64; 4];
        for _ in 0..words_per_group / 16 {
            for group in [TokenGroup::HighScore, TokenGroup::LowScore] {
                for mask in masks(&mut lane, 16, group) {
                    let msb = u64::from((mask >> 8).count_ones());
                    let lsb = u64::from((mask & 0xFF).count_ones());
                    counts[class_of(group, SignificanceGroup::Msb)] += msb;
                    counts[class_of(group, SignificanceGroup::Lsb)] += lsb;
                }
            }
        }
        assert_eq!(counts.iter().sum::<u64>(), lane.stats.bits_flipped);
        counts
    }

    #[test]
    fn class_flip_counts_fall_within_binomial_bounds() {
        let words = 1 << 20;
        let shaped = BitFlipRates {
            hst_msb: 1e-4,
            hst_lsb: 2e-3,
            lst_msb: 4e-3,
            lst_lsb: 0.05,
        };
        for (rates, seed) in [(BitFlipRates::uniform(0.014), 3), (shaped, 4)] {
            let counts = class_counts(rates, seed, words);
            let p = [rates.hst_msb, rates.hst_lsb, rates.lst_msb, rates.lst_lsb];
            for class in 0..4 {
                let n = words as u64 * 8;
                assert!(
                    within_binomial(counts[class], n, p[class], Z999),
                    "class {class}: {} flips of {n} bits at p = {}",
                    counts[class],
                    p[class]
                );
            }
        }
    }

    #[test]
    fn flip_positions_are_uniform_within_each_class() {
        let mut lane = FaultLane::new(BitFlipRates::uniform(0.05), 17, 0, 0);
        let mut per_bit = [0u64; 16];
        for _ in 0..(1 << 16) {
            for mask in masks(&mut lane, 16, TokenGroup::LowScore) {
                for (bit, count) in per_bit.iter_mut().enumerate() {
                    *count += u64::from(mask >> bit & 1);
                }
            }
        }
        for class_bits in per_bit.chunks(8) {
            let expected = class_bits.iter().sum::<u64>() as f64 / 8.0;
            let chi2: f64 = class_bits
                .iter()
                .map(|&c| (c as f64 - expected).powi(2) / expected)
                .sum();
            // 99.9 % critical value of chi-square with 7 degrees of freedom.
            assert!(chi2 < 24.32, "chi2 = {chi2} for {class_bits:?}");
        }
    }

    #[test]
    fn bit_pairs_co_flip_independently_within_and_across_words() {
        let (p_msb, p_lsb) = (0.04, 0.09);
        let rates = BitFlipRates {
            hst_msb: p_msb,
            hst_lsb: p_lsb,
            lst_msb: 0.0,
            lst_lsb: 0.0,
        };
        let p = |bit: usize| if bit >= 8 { p_msb } else { p_lsb };
        let mut lane = FaultLane::new(rates, 23, 0, 0);
        // Reads of 1..=17 words, so gaps carry across read boundaries too.
        let mut words = Vec::new();
        let mut len = 0;
        while words.len() < 1 << 20 {
            len = len % 17 + 1;
            words.extend(masks(&mut lane, len, TokenGroup::HighScore));
        }
        let mut within = [[0u64; 16]; 16];
        let mut across = [[0u64; 16]; 16];
        let set_bits = |mask: u16| (0..16).filter(move |&b| mask >> b & 1 == 1);
        for (w, &mask) in words.iter().enumerate() {
            for i in set_bits(mask) {
                for j in set_bits(mask).filter(|&j| j > i) {
                    within[i][j] += 1;
                }
                if let Some(&next) = words.get(w + 1) {
                    for j in set_bits(next) {
                        across[i][j] += 1;
                    }
                }
            }
        }
        // 376 pair tests: z = 4.5 keeps the family-wise false-alarm rate
        // near 0.3 %.
        let n = words.len() as u64;
        for i in 0..16 {
            for j in 0..16 {
                if j > i {
                    let q = p(i) * p(j);
                    assert!(
                        within_binomial(within[i][j], n, q, 4.5),
                        "bits {i},{j} of one word co-flipped {} times, expected {}",
                        within[i][j],
                        n as f64 * q
                    );
                }
                let q = p(i) * p(j);
                assert!(
                    within_binomial(across[i][j], n - 1, q, 4.5),
                    "bit {i} then bit {j} of the next word co-flipped {} times, expected {}",
                    across[i][j],
                    n as f64 * q
                );
            }
        }
    }

    /// Rates exercising every gap law and multi-flip words.
    fn busy_rates() -> BitFlipRates {
        BitFlipRates {
            hst_msb: 0.3,
            hst_lsb: 1.0,
            lst_msb: 0.0,
            lst_lsb: 0.45,
        }
    }

    /// Values, including some near the FP16 limits so clamping shows.
    fn sample_values(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| match i % 5 {
                0 => 60_000.0,
                1 => -0.0,
                _ => (i as f32 - 40.0) * 0.37,
            })
            .collect()
    }

    #[test]
    fn corrupt_slice_matches_word_by_word_corrupt() {
        let mut by_slice = FaultLane::new(busy_rates(), 31, 2, 1);
        // Warm up so the comparison starts mid-stream.
        by_slice.corrupt_slice(&mut sample_values(7), TokenGroup::LowScore);
        let mut by_word = by_slice.clone();
        for len in [0, 1, 2, 3, 16, 5, 40, 1, 17, 64] {
            for group in [TokenGroup::HighScore, TokenGroup::LowScore] {
                let mut slice = sample_values(len);
                by_slice.corrupt_slice(&mut slice, group);
                let words: Vec<f32> = sample_values(len)
                    .into_iter()
                    .map(|v| by_word.corrupt(v, group))
                    .collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&slice), bits(&words), "len {len} {group:?}");
            }
        }
        assert_eq!(by_slice.stats, by_word.stats);
        assert_eq!(by_slice.gaps, by_word.gaps);
        assert_eq!(by_slice.rng.gen::<u64>(), by_word.rng.gen::<u64>());
    }

    #[test]
    fn lane_cloned_mid_stream_resumes_identically() {
        let mut inj = ProbabilisticFaults::new(busy_rates(), 37);
        let reads = |inj: &mut ProbabilisticFaults, rounds: usize| -> Vec<u32> {
            let mut out = Vec::new();
            for r in 0..rounds {
                inj.begin_lane(r % 2, r % 3);
                let mut values = sample_values(16);
                let group = if r % 4 == 0 {
                    TokenGroup::HighScore
                } else {
                    TokenGroup::LowScore
                };
                inj.corrupt_slice(&mut values, group);
                out.extend(values.iter().map(|v| v.to_bits()));
            }
            out
        };
        reads(&mut inj, 11);
        let mut snapshot = inj.clone();
        assert_eq!(reads(&mut inj, 25), reads(&mut snapshot, 25));
        assert_eq!(inj.stats(), snapshot.stats());
    }

    /// The next raw output of a fresh lane `(0, 0)` RNG after `draws` uniform
    /// draws: the lane RNG's expected position.
    fn rng_after(seed: u64, draws: u64) -> u64 {
        let mut fresh = rng::lane(seed, 0, 0);
        for _ in 0..draws {
            fresh.gen::<f64>();
        }
        fresh.gen::<u64>()
    }

    #[test]
    fn non_positive_and_nan_rates_never_flip_and_draw_nothing() {
        for rate in [0.0, -0.0, -1.0, f64::NEG_INFINITY, f64::NAN] {
            let mut lane = FaultLane::new(BitFlipRates::uniform(rate), 41, 0, 0);
            let mut values = sample_values(4096);
            lane.corrupt_slice(&mut values, TokenGroup::LowScore);
            lane.corrupt_slice(&mut values, TokenGroup::HighScore);
            assert_eq!(values, sample_values(4096), "rate {rate}");
            assert_eq!(lane.stats.bits_flipped, 0);
            assert_eq!(lane.stats.words_examined, 8192);
            assert_eq!(lane.gaps, [NO_FLIP; 4]);
            assert_eq!(lane.rng.gen::<u64>(), rng_after(41, 0), "rate {rate}");
        }
    }

    #[test]
    fn rates_of_one_and_above_flip_every_bit_and_draw_nothing() {
        for rate in [1.0, 1.5, f64::INFINITY] {
            let mut lane = FaultLane::new(BitFlipRates::uniform(rate), 43, 0, 0);
            assert!(masks(&mut lane, 100, TokenGroup::HighScore)
                .iter()
                .all(|&m| m == 0xFFFF));
            assert_eq!(lane.stats.bits_flipped, 1600);
            assert_eq!(lane.rng.gen::<u64>(), rng_after(43, 0), "rate {rate}");
        }
    }

    #[test]
    fn tiny_rates_give_finite_gaps_without_overflow() {
        let ln_q = (-1e-12f64).ln_1p();
        assert_eq!(geometric_gap(0.0, ln_q), 0);
        let longest = geometric_gap(1.0 - f64::EPSILON / 2.0, ln_q);
        assert!(longest > 30_000_000_000_000 && longest < 40_000_000_000_000);
        // The smallest positive rate saturates to "no flip coming".
        assert_eq!(geometric_gap(0.5, (-f64::from_bits(1)).ln_1p()), NO_FLIP);

        let mut lane = FaultLane::new(BitFlipRates::uniform(1e-12), 47, 0, 0);
        let before = lane.gaps;
        assert!(before.iter().all(|&g| g < NO_FLIP));
        let mut values = sample_values(1 << 16);
        lane.corrupt_slice(&mut values, TokenGroup::LowScore);
        assert_eq!(values, sample_values(1 << 16));
        assert_eq!(lane.gaps[2], before[2] - 8 * (1 << 16));
        assert_eq!(lane.gaps[0], before[0], "the other group's classes wait");
        assert_eq!(lane.rng.gen::<u64>(), rng_after(47, 4));
    }

    #[test]
    fn one_draw_per_flip_and_none_for_zero_classes() {
        let rates = BitFlipRates {
            hst_msb: 0.0,
            hst_lsb: 0.02,
            lst_msb: 0.0,
            lst_lsb: 0.0,
        };
        let mut lane = FaultLane::new(rates, 53, 0, 0);
        for group in [TokenGroup::HighScore, TokenGroup::LowScore] {
            masks(&mut lane, 10_000, group);
        }
        let flips = lane.stats.bits_flipped;
        assert!(flips > 0);
        // One initial gap for the one live class, then one per flip.
        assert_eq!(lane.rng.gen::<u64>(), rng_after(53, 1 + flips));
    }

    #[test]
    fn significance_of_bit_boundaries() {
        assert_eq!(SignificanceGroup::of_bit(0), SignificanceGroup::Lsb);
        assert_eq!(SignificanceGroup::of_bit(7), SignificanceGroup::Lsb);
        assert_eq!(SignificanceGroup::of_bit(8), SignificanceGroup::Msb);
        assert_eq!(SignificanceGroup::of_bit(15), SignificanceGroup::Msb);
    }

    #[test]
    fn rates_accessors() {
        let r = BitFlipRates {
            hst_msb: 0.1,
            hst_lsb: 0.2,
            lst_msb: 0.3,
            lst_lsb: 0.4,
        };
        assert_eq!(r.rate(TokenGroup::HighScore, SignificanceGroup::Msb), 0.1);
        assert_eq!(r.rate(TokenGroup::LowScore, SignificanceGroup::Lsb), 0.4);
        assert!((r.average() - 0.25).abs() < 1e-9);
    }
}
