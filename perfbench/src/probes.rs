//! Standalone calls into single layers, at the shapes of the workload:
//! bigint kernels, cipher operations, the dp noise shares and the three
//! async gossip phases.

use std::hint::black_box;

use num_bigint::montgomery::MontgomeryCtx;
use num_bigint::{BigUint, RandBigInt};

use chiaroscuro_core::noise::NoiseShareVector;
use chiaroscuro_core::prelude::*;
use chiaroscuro_core::seedmix::{device_streams, run_rng};
use chiaroscuro_crypto::packing::PackedEncoder;
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::dissemination::{DisseminationProtocol, MinIdArena};
use chiaroscuro_gossip::eesum::EesSumProtocol;
use chiaroscuro_gossip::sim::arena::EesUnitArena;
use chiaroscuro_gossip::sim::{
    run_async_phase_until_with_adversary, run_async_phase_with_adversary,
};
use chiaroscuro_gossip::sum::{initial_states, PushPullSum};
use rand::Rng;

use crate::stats::{median, time};
use crate::workload::Workload;

/// Seed of the host calibration batch: fixed, so every invocation times
/// the same work whatever its workload seed.
const CALIBRATION_SEED: u64 = 0xCA11_B8A7;

/// Wall time in ms of a fixed batch of ten 2048-bit modpows with
/// full-width exponents.
pub fn calibration_ms() -> f64 {
    let mut rng = run_rng(CALIBRATION_SEED);
    // Any odd 2048-bit modulus has a Montgomery context.
    let one = BigUint::from(1u32);
    let modulus = (rng.gen_biguint(2046) << 1u32) + &one + (one.clone() << 2047u32);
    let pairs: Vec<(BigUint, BigUint)> = (0..10)
        .map(|_| (rng.gen_biguint_below(&modulus), rng.gen_biguint(2048)))
        .collect();
    let (_, secs) = time(|| {
        for (base, exponent) in &pairs {
            black_box(base.modpow(exponent, &modulus));
        }
    });
    secs * 1e3
}

/// `(modpow µs, mont_mul ns)` at the width of `modulus` (the key's `n²`).
pub fn bigint(modulus: &BigUint, seed: u64) -> (f64, f64) {
    let mut rng = run_rng(seed);
    let bits = modulus.bits();
    let modpow_us: Vec<f64> = (0..24)
        .map(|_| {
            let base = rng.gen_biguint_below(modulus);
            let exponent = rng.gen_biguint(bits);
            time(|| black_box(base.modpow(&exponent, modulus))).1 * 1e6
        })
        .collect();

    let ctx = MontgomeryCtx::new(modulus).expect("n² is odd");
    let a = ctx.to_mont(&rng.gen_biguint_below(modulus));
    let b = ctx.to_mont(&rng.gen_biguint_below(modulus));
    const BATCH: usize = 2_000;
    let mont_mul_ns: Vec<f64> = (0..15)
        .map(|_| {
            let (_, secs) = time(|| {
                let mut acc = a.clone();
                for _ in 0..BATCH {
                    acc = ctx.mont_mul(black_box(&acc), &b);
                }
                black_box(acc)
            });
            secs * 1e9 / BATCH as f64
        })
        .collect();
    (median(&modpow_us), median(&mont_mul_ns))
}

/// Median µs of one encryption of a packed contribution plaintext.
pub fn encrypt_us<B: CipherBackend>(
    backend: &B,
    w: &Workload,
    packer: &PackedEncoder,
    count: usize,
) -> f64 {
    let mut rng = run_rng(w.seed ^ 0xE4C0);
    let plaintexts = packer.pack(&vec![
        w.data.range().max;
        w.params.k * (w.series_length() + 1)
    ]);
    let samples: Vec<f64> = (0..count)
        .map(|i| {
            let m = &plaintexts[i % plaintexts.len()];
            time(|| black_box(backend.encrypt(m, &mut rng))).1 * 1e6
        })
        .collect();
    median(&samples)
}

/// Median µs one device spends drawing its noise-share vector.
pub fn noise_share_us(w: &Workload, devices: usize) -> f64 {
    let (sum_scale, count_scale) = w.first_scales();
    let mut seeds = run_rng(w.seed ^ 0xD9);
    let samples: Vec<f64> = (0..devices)
        .map(|_| {
            let mut streams = device_streams(seeds.gen());
            let (_, secs) = time(|| {
                black_box(NoiseShareVector::generate(
                    w.params.k,
                    w.series_length(),
                    sum_scale,
                    count_scale,
                    w.params.num_noise_shares,
                    &mut streams.noise,
                ))
            });
            secs * 1e6
        })
        .collect();
    median(&samples)
}

/// Busy time of the three async gossip phases of one iteration, run
/// standalone on the workload's population, unit shape and network.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipPhases {
    pub eesum_s: f64,
    pub counter_s: f64,
    pub dissemination_s: f64,
    pub messages: u64,
}

pub fn gossip_phases(w: &Workload, packer: &PackedEncoder) -> GossipPhases {
    let NetworkModel::Async(config) = &w.params.network else {
        return GossipPhases::default();
    };
    let population = w.population();
    let (k, n) = (w.params.k, w.series_length());
    let exchanges = w.params.effective_exchanges(population, n);
    let churn = ChurnModel::new(w.params.churn);
    let mut rng = run_rng(w.seed ^ 0x6055);

    // The EESum arena holds what the devices would contribute: each series
    // packed into its (round-robin) cluster's coordinates, a zero noise
    // vector and the shared counter unit.
    let entries = k * (n + 1);
    let blocks = packer.ciphertexts_for(entries);
    let layout = packer.layout();
    let limbs = (layout.lanes as u64 * layout.lane_bits).div_ceil(64) as usize + 1;
    let mut arena = EesUnitArena::new(population, 2 * blocks + 1, limbs);
    let zeros = packer.pack(&vec![0.0; entries]);
    let counter = packer.counter_plaintext();
    for (node, series) in w.data.series().iter().enumerate() {
        let cluster = node % k;
        let mut coordinates = vec![0.0; entries];
        coordinates[cluster * n..(cluster + 1) * n].copy_from_slice(series.values());
        coordinates[k * n + cluster] = 1.0;
        let units = packer
            .pack(&coordinates)
            .into_iter()
            .chain(zeros.iter().cloned());
        for (u, unit) in units.chain(std::iter::once(counter.clone())).enumerate() {
            arena.set_unit_from_digits(node, u, unit.iter_u64_digits());
        }
    }
    let ((_, _, _, eesum), eesum_s) = time(|| {
        run_async_phase_with_adversary(
            config,
            arena,
            churn,
            &EesSumProtocol,
            exchanges,
            &mut rng,
            None,
        )
    });

    let ((_, _, _, counter), counter_s) = time(|| {
        run_async_phase_with_adversary(
            config,
            initial_states(&vec![1.0; population]),
            churn,
            &PushPullSum,
            exchanges,
            &mut rng,
            None,
        )
    });

    let payload_len = k * n + k;
    let arena = MinIdArena::build(population, payload_len, |_, row| {
        row.fill(rng.gen());
        rng.gen()
    });
    let ((_, _, _, dissemination, _), dissemination_s) = time(|| {
        run_async_phase_until_with_adversary(
            config,
            arena,
            churn,
            &DisseminationProtocol,
            exchanges,
            &mut rng,
            |a: &MinIdArena| a.converged(),
            None,
        )
    });
    GossipPhases {
        eesum_s,
        counter_s,
        dissemination_s,
        messages: eesum.messages_sent + counter.messages_sent + dissemination.messages_sent,
    }
}
