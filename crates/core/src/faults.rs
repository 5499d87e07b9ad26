//! Bridges the eDRAM refresh policy (device side) to the functional model's
//! fault injector (algorithm side).
//!
//! `kelle-edram` expresses retention failures as per-group bit-flip rates
//! ([`GroupBitFlipRates`]); `kelle-model` consumes them as a
//! [`FaultInjector`](kelle_model::fault::FaultInjector).  Keeping the
//! conversion here avoids a dependency between the two substrate crates.

use kelle_edram::{GroupBitFlipRates, RefreshPolicy, RetentionModel};
use kelle_model::fault::{BitFlipRates, ProbabilisticFaults};

/// Converts device-side group rates into the functional model's rate struct.
pub fn to_model_rates(rates: GroupBitFlipRates) -> BitFlipRates {
    BitFlipRates {
        hst_msb: rates.hst_msb,
        hst_lsb: rates.hst_lsb,
        lst_msb: rates.lst_msb,
        lst_lsb: rates.lst_lsb,
    }
}

/// Builds a deterministic fault injector realising a refresh policy under a
/// retention model.
pub fn fault_injector_for_policy(
    policy: &RefreshPolicy,
    retention: &RetentionModel,
    seed: u64,
) -> ProbabilisticFaults {
    ProbabilisticFaults::new(to_model_rates(policy.bit_flip_rates(retention)), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kelle_model::fault::{FaultInjector, TokenGroup};

    #[test]
    fn conservative_policy_produces_no_faults() {
        let mut injector =
            fault_injector_for_policy(&RefreshPolicy::Conservative, &RetentionModel::default(), 1);
        for i in 0..200 {
            let v = i as f32 * 0.01;
            assert_eq!(injector.corrupt(v, TokenGroup::HighScore), v);
        }
    }

    #[test]
    fn relaxed_policy_produces_faults() {
        let mut injector = fault_injector_for_policy(
            &RefreshPolicy::Uniform(20_000.0),
            &RetentionModel::default(),
            1,
        );
        let mut changed = 0;
        for i in 0..2000 {
            let v = 0.5 + i as f32 * 0.001;
            if injector.corrupt(v, TokenGroup::LowScore) != v {
                changed += 1;
            }
        }
        assert!(changed > 0);
    }

    #[test]
    fn rates_conversion_is_field_wise() {
        let rates = GroupBitFlipRates {
            hst_msb: 0.1,
            hst_lsb: 0.2,
            lst_msb: 0.3,
            lst_lsb: 0.4,
        };
        let converted = to_model_rates(rates);
        assert_eq!(converted.hst_msb, 0.1);
        assert_eq!(converted.lst_lsb, 0.4);
    }

    #[test]
    fn twodrp_rates_preserve_ordering() {
        let policy = RefreshPolicy::two_dimensional_default();
        let rates = to_model_rates(policy.bit_flip_rates(&RetentionModel::default()));
        assert!(rates.hst_msb <= rates.lst_msb);
        assert!(rates.lst_msb <= rates.hst_lsb);
        assert!(rates.hst_lsb <= rates.lst_lsb);
    }

    #[test]
    fn twodrp_flip_counts_fall_within_binomial_bounds() {
        let policy = RefreshPolicy::two_dimensional_default();
        let retention = RetentionModel::default();
        let r = to_model_rates(policy.bit_flip_rates(&retention));
        let mut injector = fault_injector_for_policy(&policy, &retention, 5);
        // Reads zeros: a flipped FP16 0x0000 reads back as its flip mask
        // unless the clamp replaced it, which the total check below rules out.
        let words_per_group = 1u64 << 20;
        let mut counts = [0u64; 4];
        for _ in 0..words_per_group / 16 {
            for (g, group) in [TokenGroup::HighScore, TokenGroup::LowScore]
                .into_iter()
                .enumerate()
            {
                let mut words = [0.0f32; 16];
                injector.corrupt_slice(&mut words, group);
                for mask in words.map(kelle_tensor::fp16::f32_to_f16_bits) {
                    counts[2 * g] += u64::from((mask >> 8).count_ones());
                    counts[2 * g + 1] += u64::from((mask & 0xFF).count_ones());
                }
            }
        }
        assert_eq!(counts.iter().sum::<u64>(), injector.stats().bits_flipped);
        let bits = words_per_group * 8;
        for (count, p) in counts
            .into_iter()
            .zip([r.hst_msb, r.hst_lsb, r.lst_msb, r.lst_lsb])
        {
            let mean = bits as f64 * p;
            let sd = (bits as f64 * p * (1.0 - p)).sqrt();
            // Two-sided 99.9 % binomial interval (normal approximation).
            assert!(
                (count as f64 - mean).abs() <= 3.29 * sd,
                "{count} flips of {bits} bits at p = {p}"
            );
        }
    }
}
