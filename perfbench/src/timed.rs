//! A counting, timing [`CipherBackend`] wrapper for the traced runs.
//!
//! `DistributedRun::with_backend` builds its backend itself through
//! `B::setup`, so the wrapper cannot be handed a ledger; it books every
//! call into process-wide counters instead.  The benchmark is
//! single-threaded (`pool_threads = 1`), so the counters see one writer.

use std::sync::atomic::{AtomicU64, Ordering};

use num_bigint::BigUint;
use rand::Rng;

use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend};
use chiaroscuro_crypto::encoding::FixedPointEncoder;

use crate::stats::now;

/// The cipher operations the ledger books separately.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Setup,
    Encrypt,
    Add,
    ScalePow2,
    Decrypt,
}

const OPS: usize = 5;

/// Calls and busy nanoseconds per operation since the last [`reset`].
static CALLS: [AtomicU64; OPS] = [const { AtomicU64::new(0) }; OPS];
static NANOS: [AtomicU64; OPS] = [const { AtomicU64::new(0) }; OPS];

/// One operation's totals.
#[derive(Debug, Clone, Copy)]
pub struct OpTotals {
    pub calls: u64,
    pub busy_s: f64,
}

pub fn reset() {
    for i in 0..OPS {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
}

pub fn totals(op: Op) -> OpTotals {
    let i = op as usize;
    OpTotals {
        calls: CALLS[i].load(Ordering::Relaxed),
        busy_s: NANOS[i].load(Ordering::Relaxed) as f64 * 1e-9,
    }
}

/// Busy seconds summed over every booked operation.
pub fn total_busy_s() -> f64 {
    NANOS.iter().map(|n| n.load(Ordering::Relaxed)).sum::<u64>() as f64 * 1e-9
}

fn booked<T>(op: Op, f: impl FnOnce() -> T) -> T {
    let start = now();
    let out = f();
    let nanos = start.elapsed().as_nanos() as u64;
    CALLS[op as usize].fetch_add(1, Ordering::Relaxed);
    NANOS[op as usize].fetch_add(nanos, Ordering::Relaxed);
    out
}

/// Delegates every trait method to `B` unchanged, booking the hot
/// operations on the way.
#[derive(Debug, Clone)]
pub struct Timed<B>(pub B);

impl<B: CipherBackend> CipherBackend for Timed<B> {
    type Unit = B::Unit;

    const NAME: &'static str = B::NAME;
    const ENCRYPTED: bool = B::ENCRYPTED;

    fn setup<R: Rng + ?Sized>(config: &BackendSetup<'_>, rng: &mut R) -> Self {
        booked(Op::Setup, || Timed(B::setup(config, rng)))
    }

    fn precompute(&self) {
        booked(Op::Setup, || self.0.precompute());
    }

    fn encrypt<R: Rng + ?Sized>(&self, plaintext: &BigUint, rng: &mut R) -> Self::Unit {
        booked(Op::Encrypt, || self.0.encrypt(plaintext, rng))
    }

    fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Unit {
        booked(Op::Encrypt, || self.0.encrypt_zero(rng))
    }

    fn add(&self, a: &Self::Unit, b: &Self::Unit) -> Self::Unit {
        booked(Op::Add, || self.0.add(a, b))
    }

    fn scale_pow2(&self, a: &Self::Unit, exponent: u32) -> Self::Unit {
        booked(Op::ScalePow2, || self.0.scale_pow2(a, exponent))
    }

    fn threshold_decrypt(&self, unit: &Self::Unit) -> BigUint {
        booked(Op::Decrypt, || self.0.threshold_decrypt(unit))
    }

    fn plaintext_of<'a>(&self, unit: &'a Self::Unit) -> &'a BigUint {
        self.0.plaintext_of(unit)
    }

    fn encode(&self, encoder: &FixedPointEncoder, value: f64) -> BigUint {
        self.0.encode(encoder, value)
    }

    fn decode(&self, encoder: &FixedPointEncoder, plaintext: &BigUint) -> f64 {
        self.0.decode(encoder, plaintext)
    }

    fn unit_bytes(&self) -> usize {
        self.0.unit_bytes()
    }

    fn export_public(&self) -> Vec<u8> {
        self.0.export_public()
    }

    fn import_public(bytes: &[u8]) -> Option<Self> {
        B::import_public(bytes).map(Timed)
    }

    fn unit_to_bytes(&self, unit: &Self::Unit) -> Vec<u8> {
        self.0.unit_to_bytes(unit)
    }

    fn unit_from_bytes(&self, bytes: &[u8]) -> Option<Self::Unit> {
        self.0.unit_from_bytes(bytes)
    }

    fn plaintext_capacity_bits(&self) -> Option<u64> {
        self.0.plaintext_capacity_bits()
    }
}
