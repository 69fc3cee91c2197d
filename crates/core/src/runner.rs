//! The end-to-end distributed execution sequence (Algorithms 1 and 3).
//!
//! [`DistributedRun`] runs a population of personal devices, one per
//! time-series, through the full Chiaroscuro iteration on top of the
//! workspace substrates:
//!
//! 1. **Assignment step** — each participant assigns its series to the
//!    closest cleartext (differentially-private) centroid and initialises
//!    its encrypted means (Diptych);
//! 2. **Computation step** —
//!    a. the encrypted means and the encrypted noise shares are summed by
//!    the EESum gossip protocol (Algorithm 2), alongside a cleartext
//!    contributor counter,
//!    b. the noise surplus correction is agreed upon by min-identifier
//!    epidemic dissemination,
//!    c. the perturbed encrypted means are threshold-decrypted with τ
//!    distinct key-shares and smoothed;
//! 3. **Convergence step** — the new perturbed centroids replace the old
//!    ones until they converge or the iteration/budget limit is reached.
//!
//! Only quantities that are encrypted, differentially private, or
//! data-independent ever cross a participant boundary; the [`crate::audit`]
//! log records every transfer so tests can verify requirement R2.
//!
//! One deliberate simplification (documented in DESIGN.md): the noise
//! surplus correction is applied to the decrypted perturbed sums rather than
//! homomorphically before decryption.  The correction is data- and
//! noise-independent cleartext, so the security argument (Lemma 3) is
//! unchanged; only the ordering differs.
//!
//! # One sequence, two gossip drivers
//!
//! The sequence above is written once.  What differs between the paper's
//! deployment shapes (§2.2) is only *where the gossip happens*, which a
//! crate-private driver trait abstracts: where each device's contribution
//! lives, how the means, counter and correction phases run, and what the
//! reference node reports.  Two drivers implement it — the simulated one in
//! this module ([`DistributedRun::execute_with_rng`]: the round or
//! event-driven engines, the per-node or lane-arena stores, the fault
//! injector) and the relayed-links one in [`crate::cluster`] (per-node
//! actors behind transports).  Every master-RNG draw outside the gossip
//! schedules — backend setup, initial centroids, participant seeds,
//! correction proposals — happens in the shared sequence, so both shapes
//! consume the master stream in one order by construction, and each
//! device's contribution comes from the one `Device` function that the
//! node actor calls too.
//!
//! # Cipher backends
//!
//! The run is generic over a [`CipherBackend`] owning every ciphertext
//! operation.  [`DistributedRun::new`] uses the real [`DamgardJurik`]
//! scheme and is **bit-identical** to the historical hard-wired runner from
//! the same seed (the backend delegates every call in the same order with
//! the same RNG draws).  [`DistributedRun::with_backend`] accepts any
//! backend — in particular
//! [`PlaintextSurrogate`](chiaroscuro_crypto::backend::PlaintextSurrogate),
//! which carries the exact plaintext lane integers instead of ciphertexts
//! so the full protocol (gossip, EESum, churn, dissemination, noise shares,
//! surplus correction) can run at 100k–10M participants.  Backend setup
//! preserves RNG parity (see `chiaroscuro_crypto::backend`), so a surrogate
//! run decodes the *same* centroids as a crypto run from the same seed —
//! asserted by the scenario matrix and the backend-equivalence proptests.
//!
//! The audit log records the protection class each transfer has **in the
//! deployed protocol**: under a plaintext backend the "encrypted" channels
//! carry stand-in plaintexts, so requirement R2 is a property the simulated
//! design retains, not a property of the simulation's wire content.
//!
//! # Scale path: the lane arena
//!
//! Under a plaintext backend with an asynchronous network model the EESum
//! phase runs on a struct-of-arrays
//! [`EesUnitArena`] instead
//! of per-node `Vec`s of big integers: the entire population's lane-packed
//! state lives in a handful of flat allocations and each exchange is a pair
//! of limb-window operations.  The event loop is storage-agnostic and
//! consumes identical RNG draws either way, so the arena changes memory
//! behaviour only — never a decoded bit (asserted by a scenario test that
//! compares the arena path against the crypto path from the same seed).
//!
//! # Network models
//!
//! Every simulated gossip phase (EESum means/noise sum, cleartext counter,
//! correction dissemination) dispatches on [`ChiaroscuroParams::network`]:
//! the round-based engine (the default — the dispatcher consumes exactly
//! the RNG draws the engine would directly, so the knob never moves a
//! round-based schedule) or the deterministic event-driven asynchronous
//! simulator (`chiaroscuro_gossip::sim`) with per-edge latency, message loss
//! and crash/rejoin schedules.  Asynchronous iterations additionally report
//! wall-clock latency in [`IterationNetworkStats::gossip_sim_time`] and
//! [`IterationNetworkStats::peak_messages_in_flight`]; either way the run
//! stays a pure function of the seed.
//!
//! # Parallel execution
//!
//! The two crypto hot spots — the per-participant Diptych/noise encryption
//! (every participant's work is independent) and the `k·(n+1)` threshold
//! decryptions (every ciphertext's τ partial decryptions + combine are
//! independent) — run on a scoped thread pool sized by
//! [`ChiaroscuroParams::pool_threads`].  Determinism is preserved by
//! construction: every participant encrypts under its own RNG stream whose
//! seed is drawn from the master RNG *before* dispatch, and decryption
//! consumes no randomness, so the same seed produces bit-identical outputs
//! whatever the thread count (the scenario matrix asserts this).
//!
//! # Lane packing
//!
//! With [`ChiaroscuroParams::lane_packing`] enabled the same hot spots run
//! over lane-packed ciphertexts (`chiaroscuro_crypto::packing`): each
//! participant encrypts `2·⌈k·(n+1)/L⌉ + 1` ciphertexts instead of
//! `2·k·(n+1)`, gossip messages shrink by the same factor, and only
//! `⌈k·(n+1)/L⌉ + 1` threshold decryptions recover all perturbed values.
//! Noise sampling is seeded independently of encryption randomness, so the
//! packed and legacy pipelines consume identical noise and decode
//! **bit-identical** centroids from the same seed — packing composes with
//! `pool_threads`, and both equalities are asserted by the scenario matrix.
//! Plaintext backends *require* lane packing: its per-lane biases are what
//! represent negative noise shares without modular arithmetic.

use std::marker::PhantomData;
use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize};

use num_bigint::BigUint;

use chiaroscuro_crypto::backend::{BackendSetup, CipherBackend, DamgardJurik};
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder};
use chiaroscuro_dp::laplace::{LaplaceMechanism, Sensitivity};
use chiaroscuro_dp::noise_share::NoiseShareGenerator;
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::dissemination::{
    converged, winning_state, DisseminationProtocol, MinIdArena, MinIdState,
};
use chiaroscuro_gossip::eesum::{initial_states as eesum_initial_states, EesState, EesSumProtocol};
use chiaroscuro_gossip::metrics::ExchangeMetrics;
use chiaroscuro_gossip::sim::arena::EesUnitArena;
use chiaroscuro_gossip::sim::{
    run_async_phase_until_with_adversary, run_async_phase_with_adversary,
    run_phase_until_with_adversary, run_phase_with_adversary, AdversaryState, FaultStats,
    NetworkModel, PhaseOutcome,
};
use chiaroscuro_gossip::sum::{initial_states as sum_initial_states, PushPullSum, SumState};
use chiaroscuro_kmeans::report::{IterationReport, RunReport};
use chiaroscuro_timeseries::inertia::{dataset_inertia, intra_inertia, Assignment};
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::audit::{DataClass, SecurityAudit};
use crate::config::ChiaroscuroParams;
use crate::diptych::{Diptych, PackedMeans};
use crate::evalue::BackendVector;
use crate::noise::{NoiseCorrection, NoiseShareVector};

/// Participants per work batch when filling the lane arena: bounds the
/// transient per-node unit vectors so the peak footprint stays close to the
/// arena itself at million-node populations.
const ARENA_FILL_CHUNK: usize = 16_384;

/// Network-level statistics of one distributed iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationNetworkStats {
    /// Iteration index.
    pub iteration: usize,
    /// Average number of messages per participant spent on the epidemic
    /// sums (means + noise + counter).
    pub sum_messages_per_node: f64,
    /// Average number of messages per participant spent on the correction
    /// dissemination.
    pub dissemination_messages_per_node: f64,
    /// Gossip exchanges (rounds) executed by the epidemic sums.
    pub sum_rounds: u32,
    /// Whether the correction dissemination reached full agreement within
    /// its round budget (under heavy churn it may not; the runner then uses
    /// the global minimum-identifier proposal, which is the value the
    /// population is converging to).
    pub dissemination_converged: bool,
    /// Contributors the reference node was short of the expected `nν` noise
    /// shares (0 when the population met or exceeded the expectation).  A
    /// persistent non-zero deficit means the aggregated Laplace noise is
    /// below its calibrated scale for this iteration.
    pub noise_share_deficit: usize,
    /// Payload units carried by one epidemic-sum gossip message (the whole
    /// contribution vector).  `2·k·(n+1)` on the legacy path; lane packing
    /// divides the data part by the lane count and adds one counter unit,
    /// so this is where the bandwidth saving shows.
    pub sum_payload_ciphertexts: usize,
    /// Bytes of one epidemic-sum gossip payload under the run's cipher
    /// backend: `sum_payload_ciphertexts` × the backend's honest per-unit
    /// wire size — full ciphertext expansion for Damgård–Jurik, the packed
    /// *plaintext* size for the scalability surrogate, which never pays the
    /// ciphertext blow-up and must not report it.
    pub sum_payload_bytes: usize,
    /// Simulated wall-clock time consumed by this iteration's gossip phases
    /// (epidemic sums + counter + dissemination) under the asynchronous
    /// network model, in exchange periods.  `0.0` under the round-based
    /// model, which has no clock.
    pub gossip_sim_time: f64,
    /// Peak number of gossip requests simultaneously in transit across the
    /// asynchronous phases (`0` under the round-based model).
    pub peak_messages_in_flight: usize,
    /// Byzantine faults injected/detected/absorbed during this iteration's
    /// gossip phases, per fault class.  All-zero unless
    /// [`ChiaroscuroParams::adversary`] is active.
    pub faults: FaultStats,
}

/// The outcome of a distributed Chiaroscuro run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Quality report (same shape as the centralized surrogates, so the
    /// figures can overlay both).
    pub report: RunReport,
    /// Security audit of everything that left a participant.
    pub audit: SecurityAudit,
    /// Per-iteration network statistics.
    pub network: Vec<IterationNetworkStats>,
}

impl RunOutcome {
    /// The final centroids.
    pub fn centroids(&self) -> &[TimeSeries] {
        &self.report.final_centroids
    }
}

/// A fully-distributed Chiaroscuro execution over a simulated population
/// (one participant per series of the dataset), generic over the cipher
/// backend `B` (the real Damgård–Jurik scheme by default).
#[derive(Debug, Clone)]
pub struct DistributedRun<'a, B: CipherBackend = DamgardJurik> {
    pub(crate) params: ChiaroscuroParams,
    pub(crate) data: &'a TimeSeriesSet,
    pub(crate) initial_centroids: Option<Vec<TimeSeries>>,
    _backend: PhantomData<B>,
}

impl<'a> DistributedRun<'a> {
    /// Creates a run over `data` (one participant per series) under the
    /// default Damgård–Jurik backend.
    ///
    /// # Panics
    /// Panics if the population is smaller than 2, than the key-share
    /// threshold, or than the expected number of noise shares `nν` (see
    /// [`ChiaroscuroParams::validate_for_population`]).
    pub fn new(params: ChiaroscuroParams, data: &'a TimeSeriesSet) -> Self {
        Self::with_backend(params, data)
    }
}

impl<'a, B: CipherBackend> DistributedRun<'a, B> {
    /// Creates a run over `data` under an explicit cipher backend.
    ///
    /// # Panics
    /// Panics under the conditions of [`DistributedRun::new`], and when a
    /// plaintext backend is selected without lane packing (per-lane biases
    /// are the surrogate's only representation of negative noise shares).
    pub fn with_backend(params: ChiaroscuroParams, data: &'a TimeSeriesSet) -> Self {
        assert!(data.len() >= 2, "Chiaroscuro needs at least two participants");
        assert!(
            params.key_share_threshold <= data.len(),
            "the key-share threshold cannot exceed the population"
        );
        if let Err(e) = params.validate_for_population(data.len()) {
            panic!("{e}");
        }
        assert!(
            B::ENCRYPTED || params.lane_packing,
            "the {} backend requires lane_packing: lane biases are its only \
             representation of negative noise shares",
            B::NAME
        );
        let run = Self { params, data, initial_centroids: None, _backend: PhantomData };
        // Up-front lane validation (mirroring validate_for_population): an
        // overflowing lane configuration is rejected here, before any key
        // generation or encryption, never discovered as corruption later.
        let _ = run.plan_packing();
        run
    }

    /// Plans the lane-packed encoder for this run, or `None` when
    /// [`ChiaroscuroParams::lane_packing`] is off.
    ///
    /// The layout is a pure function of the parameters and the dataset
    /// bounds — the same plan validates the configuration in
    /// [`Self::with_backend`] and drives the hot path in
    /// [`Self::execute_with_rng`].  Its lane budget covers the population,
    /// the worst per-iteration noise scale of the ε schedule (64 Laplace
    /// e-folds of tail headroom per share), and an epidemic doubling
    /// allowance of `8·exchanges + 32`: the EESum exchange counter cascades
    /// within a round (sequential exchanges reuse freshly bumped states),
    /// growing by ~5–6 per round empirically — the gossip crate pins that
    /// law for both engines with its own regression tests — so 8 per round
    /// plus slack leaves a wide margin.  Should a freak schedule ever
    /// exceed it anyway, the decode-time guard in `PackedEncoder::unpack`
    /// fails loudly instead of corrupting lanes.
    ///
    /// # Panics
    /// Panics if packing is enabled but no lane layout fits the key size.
    pub(crate) fn plan_packing(&self) -> Option<PackedEncoder> {
        let budget = self.packing_budget()?;
        let encoder = FixedPointEncoder::new(self.params.encoding_digits);
        match PackedEncoder::plan(self.params.packing_capacity_bits(), &encoder, &budget) {
            Ok(packer) => {
                // A single-lane layout is arithmetically valid but strictly
                // worse than the legacy path (same data ciphertexts plus a
                // counter).  The knob promises a performance win, so a
                // configuration that cannot deliver one is rejected loudly
                // instead of silently inflating every phase.
                assert!(
                    packer.lanes() >= 2,
                    "lane_packing is enabled but the configuration cannot pack: the layout \
                     degenerates to a single {}-bit lane in the {}-bit capacity, which would \
                     cost more than the legacy path; use a larger key, fewer gossip \
                     exchanges, or disable lane_packing",
                    packer.layout().lane_bits,
                    self.params.packing_capacity_bits(),
                );
                Some(packer)
            }
            Err(e) => panic!("lane_packing is enabled but the configuration cannot pack: {e}"),
        }
    }

    /// The lane budget [`Self::plan_packing`] plans with, or `None` when
    /// lane packing is off.  Exposed crate-internally so the links driver
    /// can ship it in its provisioning event and have each node re-derive
    /// the coordinator's exact layout (the plan is a pure function of the
    /// budget and the encoder).
    pub(crate) fn packing_budget(&self) -> Option<LaneBudget> {
        if !self.params.lane_packing {
            return None;
        }
        let population = self.data.len();
        let n = self.data.series_length();
        let exchanges = self.params.effective_exchanges(population, n);
        // The largest noise scales of the whole run come from the leanest
        // per-iteration budget of the schedule.
        let schedule = self.params.budget_schedule();
        let min_epsilon = (0..self.params.max_iterations)
            .map(|i| schedule.epsilon_for_iteration(i))
            .filter(|&e| e > 0.0)
            .fold(f64::INFINITY, f64::min);
        assert!(min_epsilon.is_finite(), "the budget schedule grants no iteration any ε");
        let sensitivity = Sensitivity::from_range(n, self.data.range().min, self.data.range().max);
        let mechanism = LaplaceMechanism::new(sensitivity, min_epsilon)
            .with_gossip_error_bound(self.params.gossip_error_bound);
        let noise_bound = NoiseShareGenerator::new(self.params.num_noise_shares, mechanism.sum_scale())
            .magnitude_bound()
            .max(
                NoiseShareGenerator::new(self.params.num_noise_shares, mechanism.count_scale())
                    .magnitude_bound(),
            );
        let range_magnitude = self.data.range().min.abs().max(self.data.range().max.abs());
        Some(LaneBudget {
            contributors: population,
            doubling_budget: 8 * exchanges + 32,
            max_abs_value: range_magnitude.max(1.0).max(noise_bound),
            biased_vectors: 2, // the means vector plus the noise-share vector
        })
    }

    /// Provides explicit initial centroids (otherwise `k` series are drawn
    /// at random from the dataset, which the paper only does for synthetic
    /// data).
    pub fn with_initial_centroids(mut self, centroids: Vec<TimeSeries>) -> Self {
        assert_eq!(centroids.len(), self.params.k, "need exactly k initial centroids");
        for c in &centroids {
            assert_eq!(c.len(), self.data.series_length());
        }
        self.initial_centroids = Some(centroids);
        self
    }

    /// Executes the run with a seed-derived RNG.
    pub fn execute(&self, seed: u64) -> RunOutcome {
        let mut rng = crate::seedmix::run_rng(seed);
        self.execute_with_rng(&mut rng)
    }

    /// Executes the run with the provided RNG, on the simulated gossip
    /// engines.
    pub fn execute_with_rng<R: Rng + ?Sized>(&self, rng: &mut R) -> RunOutcome {
        let driver =
            SimulatedDriver { adversary: None, means: MeansStore::PerNode(Vec::new()), counter: Vec::new() };
        self.run_sequence(driver, rng)
    }

    /// The execution sequence of Algorithms 1 and 3, with every gossip
    /// phase delegated to `driver`.
    pub(crate) fn run_sequence<D: GossipDriver<B>, R: Rng + ?Sized>(
        &self,
        mut driver: D,
        rng: &mut R,
    ) -> RunOutcome {
        let params = &self.params;
        let data = self.data;
        let population = data.len();
        let n = data.series_length();
        let k = params.k;
        // Coordinates of one perturbed-values vector: k dimension-wise sums
        // of length n plus k counts.
        let entries = k * (n + 1);
        let packing = self.plan_packing();

        // --- Bootstrap: backend key material and initial centroids. ---
        let setup = BackendSetup {
            key_bits: params.key_bits,
            damgard_jurik_s: params.damgard_jurik_s,
            population,
            key_share_threshold: params.key_share_threshold,
            packed_layout: packing.as_ref().map(|p| p.layout()),
        };
        let backend = Arc::new(B::setup(&setup, rng));
        // Pay for derived lookup state (Montgomery contexts, fixed-base
        // tables) up front, outside the per-iteration accounting.
        backend.precompute();
        if let (Some(packer), Some(capacity)) = (&packing, backend.plaintext_capacity_bits()) {
            // The layout was planned from the pre-keygen capacity bound;
            // re-check it against the modulus actually generated so a
            // packed plaintext can never reach n^s (belt and braces — the
            // conservative bound already covers every possible key).
            let layout = packer.layout();
            assert!(
                layout.lanes as u64 * layout.lane_bits <= capacity,
                "planned lane layout exceeds the generated key's plaintext capacity"
            );
        }
        let mut centroids = match &self.initial_centroids {
            Some(c) => c.clone(),
            None => {
                use rand::seq::SliceRandom;
                data.series().choose_multiple(rng, k).cloned().collect()
            }
        };
        assert_eq!(centroids.len(), k, "k must not exceed the population when sampling initial centroids");
        let session = Session {
            run: self,
            device: Device {
                backend,
                encoder: FixedPointEncoder::new(params.encoding_digits),
                packer: packing,
                num_noise_shares: params.num_noise_shares,
            },
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(params.pool_threads)
                .build()
                .expect("the offline pool cannot fail to build"),
            churn: ChurnModel::new(params.churn),
            exchanges: params.effective_exchanges(population, n),
        };
        driver.start(&session, rng);
        let Session { device, pool, .. } = &session;
        let backend: &B = &device.backend;

        let schedule = params.budget_schedule();
        let sensitivity = Sensitivity::from_range(n, data.range().min, data.range().max);
        let mut audit = SecurityAudit::new();
        let mut iterations = Vec::new();
        let mut network = Vec::new();
        let mut run_converged = false;

        for iteration in 0..params.max_iterations {
            let epsilon_i = schedule.epsilon_for_iteration(iteration);
            if epsilon_i <= 0.0 {
                break;
            }
            let mechanism =
                LaplaceMechanism::new(sensitivity, epsilon_i).with_gossip_error_bound(params.gossip_error_bound);
            let sum_scale = mechanism.sum_scale();
            let count_scale = mechanism.count_scale();

            // --- Assignment step: local, per participant. ---
            // Each device draws from its own RNG stream whose seed comes off
            // the master RNG before dispatch, so ciphertext randomness is
            // identical whatever the pool size or wherever the device runs.
            let round = Round {
                centroids: &centroids,
                participant_seeds: (0..population).map(|_| rng.gen()).collect(),
                sum_scale,
                count_scale,
            };

            // One gossip message carries one whole contribution vector; its
            // unit count is the per-message sum payload (reported in the
            // iteration stats, where lane packing's saving is visible), and
            // the byte size follows the backend's honest unit size plus any
            // frame the driver's transport wraps it in.
            let sum_payload_ciphertexts = match &device.packer {
                Some(packer) => 2 * packer.ciphertexts_for(entries) + 1,
                None => 2 * entries,
            };
            let sum_payload_bytes = sum_payload_ciphertexts * backend.unit_bytes() + driver.frame_overhead();

            // --- Computation step (a): epidemic encrypted sums + counter. ---
            let (labels, means_cost) = driver.sum_means(&session, &round, rng);
            audit.record_n(iteration, "encrypted means contribution", DataClass::Encrypted, population);
            audit.record_n(iteration, "encrypted noise shares", DataClass::Encrypted, population);
            audit.record_n(
                iteration,
                "epidemic weight and exchange counter",
                DataClass::DataIndependent,
                population,
            );
            let counter_cost = driver.sum_counter(&session, rng);
            audit.record(iteration, "cleartext contributor counter", DataClass::DataIndependent);

            // Reporting-only PRE metrics (never exchanged between devices).
            let assignment = assignment_from_labels(&labels, k);
            let (exact_sums, exact_counts) = assignment.cluster_sums(data, k);
            let exact_means: Vec<TimeSeries> = exact_sums
                .iter()
                .zip(exact_counts.iter())
                .enumerate()
                .map(|(i, (sum, &count))| if count > 0.0 { sum.scaled(1.0 / count) } else { centroids[i].clone() })
                .collect();
            let pre_inertia = intra_inertia(data, &exact_means, &assignment);

            // Reference participant: the single node that reads out the
            // aggregates.  Counter estimate and perturbed sums MUST come
            // from the same device — mixing two nodes' views can pair a
            // counter that saw the weight with sums that did not (or vice
            // versa) and mis-size the surplus correction.  Byzantine nodes
            // are never trusted as the reference: `is_byzantine` is a pure
            // hash (no RNG), and with an inactive adversary it is false for
            // every node, so honest runs pick the same reference as ever.
            let reference = (0..population)
                .position(|i| {
                    !params.adversary.is_byzantine(i)
                        && driver.weight(i) > 0.0
                        && driver.counter_estimate(i).is_some()
                })
                .expect("after the epidemic sums at least one honest node holds both weights");
            let counter_estimate = driver
                .counter_estimate(reference)
                .expect("reference node was selected for holding a counter estimate");

            // --- Computation step (b): noise surplus correction. ---
            // More contributors than the expected nν means surplus noise to
            // subtract; fewer means a deficit — there is nothing to
            // subtract, and the shortfall is surfaced in the iteration's
            // stats rather than silently mapped to zero.  The push-pull
            // counter is only an estimate of the contributor count; before
            // full mixing it can transiently overshoot the population by
            // orders of magnitude, and no run can have more contributors
            // than devices, so the estimate is clamped to the population
            // rather than over-correcting by a physically impossible
            // surplus.
            let contributors = (counter_estimate.round() as i64).min(population as i64);
            let expected_shares = params.num_noise_shares as i64;
            let surplus = (contributors - expected_shares).max(0) as usize;
            let noise_share_deficit = (expected_shares - contributors).max(0) as usize;
            // Proposals are always generated in node order from the run RNG,
            // whatever the driver or storage, so the draw sequence (and
            // hence the whole run) is driver- and storage-independent.
            let corrections: Vec<NoiseCorrection> = (0..population)
                .map(|_| {
                    NoiseCorrection::generate(
                        surplus,
                        k,
                        n,
                        sum_scale,
                        count_scale,
                        params.num_noise_shares,
                        rng,
                    )
                })
                .collect();
            // The agreed-upon correction is the proposal with the globally
            // smallest identifier — the value dissemination converges to —
            // not whatever node 0 happens to hold (under churn an
            // unconverged node 0 may still carry a losing proposal).
            let (winning_correction, dissemination_cost) =
                driver.disseminate(&session, &corrections, reference, rng);
            audit.record_n(iteration, "noise correction proposal", DataClass::DataIndependent, population);

            // --- Computation step (c): perturbation and threshold decryption. ---
            let weight = driver.weight(reference);
            // Each unit is independent: one homomorphic add of the means
            // part and the noise part (same epidemic scaling because they
            // travelled in the same vector), then one threshold decryption.
            // No randomness is involved, so the parallel map is trivially
            // deterministic.
            let decrypted: Vec<f64> = match (driver.reference_sums(reference), &device.packer) {
                (sums, Some(packer)) => {
                    // Packed: ⌈entries/L⌉ perturbed data units plus the
                    // counter — an ~L× cut in threshold decryptions.  The
                    // counter recovers the accumulated bias (2·B·C: means
                    // and noise are both biased) and feeds the overflow
                    // guard.
                    let blocks = packer.ciphertexts_for(entries);
                    let plaintexts: Vec<BigUint> = match sums {
                        ReferenceSums::Units(cts) => pool.map_range(blocks + 1, |i| {
                            if i < blocks {
                                backend.threshold_decrypt(&backend.add(&cts[i], &cts[blocks + i]))
                            } else {
                                backend.threshold_decrypt(&cts[2 * blocks])
                            }
                        }),
                        // The lane arena carries the plaintext lane integers
                        // by construction, so "threshold decryption" is
                        // exactly the identity read the surrogate performs.
                        ReferenceSums::Plaintexts(units) => (0..=blocks)
                            .map(|i| {
                                if i < blocks {
                                    &units[i] + &units[blocks + i]
                                } else {
                                    units[2 * blocks].clone()
                                }
                            })
                            .collect(),
                    };
                    let counter = &plaintexts[blocks];
                    packer
                        .unpack(&plaintexts[..blocks], entries, counter, 2)
                        .iter()
                        .map(|v| v / weight)
                        .collect()
                }
                (ReferenceSums::Units(cts), None) => pool.map_range(entries, |i| {
                    let perturbed = backend.add(&cts[i], &cts[entries + i]);
                    backend.decode(&device.encoder, &backend.threshold_decrypt(&perturbed)) / weight
                }),
                (ReferenceSums::Plaintexts(_), None) => unreachable!("the lane arena requires lane packing"),
            };
            audit.record(iteration, "partial decryptions of perturbed means", DataClass::DifferentiallyPrivate);

            // Rebuild the perturbed means, apply the correction and smoothing.
            let mut new_centroids = Vec::with_capacity(k);
            let mut aberrant = vec![false; k];
            for cluster in 0..k {
                let mut sum_values: Vec<f64> = decrypted[cluster * n..(cluster + 1) * n].to_vec();
                let mut count_value = decrypted[k * n + cluster];
                if surplus > 0 {
                    for (j, value) in sum_values.iter_mut().enumerate() {
                        *value -= winning_correction.sum_correction[cluster * n + j];
                    }
                    count_value -= winning_correction.count_correction[cluster];
                }
                let mean = if count_value.abs() < 0.5 {
                    aberrant[cluster] = true;
                    aberrant_centroid(n, data.range().max, cluster)
                } else {
                    let mut mean = TimeSeries::new(sum_values.iter().map(|v| v / count_value).collect());
                    mean = params.smoothing.apply(&mean);
                    mean
                };
                new_centroids.push(mean);
            }
            audit.record(iteration, "perturbed cleartext centroids", DataClass::DifferentiallyPrivate);

            let post_inertia =
                chiaroscuro_kmeans::perturbed::post_perturbation_inertia(data, &new_centroids, &assignment, &aberrant);
            iterations.push(IterationReport {
                iteration,
                epsilon: epsilon_i,
                pre_inertia,
                post_inertia,
                surviving_centroids: assignment.non_empty_clusters(),
                participating_series: population,
            });
            // Snapshot this iteration's fault counters (a driver without a
            // fault injector reports none, hence the zero statistics) and
            // fold them into the security audit's running totals.
            let iteration_faults = driver.take_faults();
            if let Some(faults) = &iteration_faults {
                audit.record_faults(faults);
            }
            network.push(IterationNetworkStats {
                iteration,
                sum_messages_per_node: means_cost.metrics.messages_per_node(population)
                    + counter_cost.metrics.messages_per_node(population),
                dissemination_messages_per_node: dissemination_cost.metrics.messages_per_node(population),
                sum_rounds: means_cost.metrics.rounds(),
                dissemination_converged: dissemination_cost.converged,
                noise_share_deficit,
                sum_payload_ciphertexts,
                sum_payload_bytes,
                gossip_sim_time: means_cost.sim_time + counter_cost.sim_time + dissemination_cost.sim_time,
                peak_messages_in_flight: means_cost
                    .peak_in_flight
                    .max(counter_cost.peak_in_flight)
                    .max(dissemination_cost.peak_in_flight),
                faults: iteration_faults.unwrap_or(FaultStats::ZERO),
            });

            // --- Convergence step. ---
            let displacement: f64 = centroids.iter().zip(new_centroids.iter()).map(|(c, m)| c.distance(m)).sum();
            centroids = new_centroids;
            if displacement <= params.convergence_threshold {
                run_converged = true;
                break;
            }
        }

        RunOutcome {
            report: RunReport {
                iterations,
                final_centroids: centroids,
                converged: run_converged,
                dataset_inertia: dataset_inertia(data),
            },
            audit,
            network,
        }
    }
}

/// The material a device encrypts its contribution with: the run's cipher
/// backend (public material only on a node actor), the fixed-point encoder,
/// the lane packer when packing is on, and the expected share count `nν`.
#[derive(Debug)]
pub(crate) struct Device<B: CipherBackend> {
    pub(crate) backend: Arc<B>,
    pub(crate) encoder: FixedPointEncoder,
    pub(crate) packer: Option<PackedEncoder>,
    pub(crate) num_noise_shares: usize,
}

impl<B: CipherBackend> Device<B> {
    /// One device's contribution to an iteration: the label of the centroid
    /// closest to `series`, and the flat unit vector it gossips — the
    /// encrypted means, then its encrypted noise shares in the same layout
    /// (then, packed, one shared counter unit for the accumulated bias).
    ///
    /// The participant seed splits into a noise sub-stream and an
    /// encryption sub-stream, so noise draws are identical whichever
    /// encoding path runs (the packed path encrypts fewer ciphertexts, so
    /// interleaving noise with encryption would desynchronise the two
    /// pipelines and break their bit-equality).
    pub(crate) fn contribute(
        &self,
        centroids: &[TimeSeries],
        series: &TimeSeries,
        participant_seed: u64,
        sum_scale: f64,
        count_scale: f64,
    ) -> (usize, Vec<B::Unit>) {
        let (k, n) = (centroids.len(), series.len());
        let mut streams = crate::seedmix::device_streams(participant_seed);
        let noise =
            NoiseShareVector::generate(k, n, sum_scale, count_scale, self.num_noise_shares, &mut streams.noise);
        let mut device_rng = streams.encryption;
        let backend: &B = &self.backend;
        if let Some(packer) = &self.packer {
            // Lane-packed contribution: ⌈k·(n+1)/L⌉ means units, as many
            // noise-share units (same lane layout, so the runner can add
            // them pairwise before decryption), and one shared counter unit.
            let (means, assigned) =
                PackedMeans::initialise(centroids, series, backend, packer, &mut device_rng);
            let mut flat = means.units;
            flat.reserve(flat.len() + 1);
            for m in packer.pack(&noise.flatten()) {
                flat.push(backend.encrypt(&m, &mut device_rng));
            }
            flat.push(backend.encrypt(&packer.counter_plaintext(), &mut device_rng));
            (assigned, flat)
        } else {
            let (diptych, assigned) =
                Diptych::initialise(centroids, series, backend, &self.encoder, &mut device_rng);
            // Flatten: all sum units (cluster-major), then all counts, then
            // the participant's encrypted noise shares in the same layout.
            let mut flat: Vec<B::Unit> = Vec::with_capacity(2 * k * (n + 1));
            for mean in &diptych.means {
                flat.extend(mean.sums.iter().cloned());
            }
            for mean in &diptych.means {
                flat.push(mean.count.clone());
            }
            for share in noise.flatten() {
                flat.push(backend.encrypt(&backend.encode(&self.encoder, share), &mut device_rng));
            }
            (assigned, flat)
        }
    }
}

/// What the shared sequence has set up by the time gossip starts: the run,
/// the devices' encryption material (whose backend holds the key shares),
/// the thread pool, and the gossip schedule's churn and round budget.
pub(crate) struct Session<'r, 'a, B: CipherBackend> {
    pub(crate) run: &'r DistributedRun<'a, B>,
    pub(crate) device: Device<B>,
    pub(crate) pool: rayon::ThreadPool,
    pub(crate) churn: ChurnModel,
    pub(crate) exchanges: u32,
}

/// One iteration's inputs to every device.
pub(crate) struct Round<'c> {
    pub(crate) centroids: &'c [TimeSeries],
    pub(crate) participant_seeds: Vec<u64>,
    pub(crate) sum_scale: f64,
    pub(crate) count_scale: f64,
}

/// What one gossip phase cost, in the terms the iteration statistics
/// report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseCost {
    pub(crate) metrics: ExchangeMetrics,
    /// Whether the phase's convergence predicate held (`true` for phases
    /// run without one).
    pub(crate) converged: bool,
    pub(crate) sim_time: f64,
    pub(crate) peak_in_flight: usize,
}

impl PhaseCost {
    fn of<N>(phase: &PhaseOutcome<N>) -> Self {
        Self {
            metrics: phase.metrics,
            converged: phase.converged,
            sim_time: phase.sim_time,
            peak_in_flight: phase.peak_in_flight,
        }
    }
}

/// The reference node's accumulated means-and-noise vector: units to
/// threshold-decrypt, or — on the plaintext lane arena — the unit
/// plaintexts themselves.
pub(crate) enum ReferenceSums<'s, B: CipherBackend> {
    Units(&'s [B::Unit]),
    Plaintexts(Vec<BigUint>),
}

/// Where one run's gossip happens.  The shared sequence
/// ([`DistributedRun::run_sequence`]) calls these in a fixed order each
/// iteration — `sum_means`, `sum_counter`, `disseminate`, then the
/// reference readouts and `take_faults` — and owns every master-RNG draw
/// outside the gossip schedules themselves.
pub(crate) trait GossipDriver<B: CipherBackend> {
    /// Bytes each sum message carries on the wire beyond its units.
    fn frame_overhead(&self) -> usize;

    /// Readies the population once the keys and initial centroids exist.
    fn start<R: Rng + ?Sized>(&mut self, session: &Session<'_, '_, B>, rng: &mut R);

    /// Installs every device's contribution for `round` and runs the
    /// means-and-noise sum; returns each device's cluster label and the
    /// phase's cost.
    fn sum_means<R: Rng + ?Sized>(
        &mut self,
        session: &Session<'_, '_, B>,
        round: &Round<'_>,
        rng: &mut R,
    ) -> (Vec<usize>, PhaseCost);

    /// Runs the cleartext contributor counter.
    fn sum_counter<R: Rng + ?Sized>(&mut self, session: &Session<'_, '_, B>, rng: &mut R) -> PhaseCost;

    /// A node's EESum weight after the means sum.
    fn weight(&self, node: usize) -> f64;

    /// A node's contributor-count estimate after the counter sum.
    fn counter_estimate(&self, node: usize) -> Option<f64>;

    /// Disseminates the correction proposals (one per node, in node
    /// order); returns the agreed correction and the phase's cost.
    /// `reference` names the node whose sums [`Self::reference_sums`]
    /// reads next.
    fn disseminate<R: Rng + ?Sized>(
        &mut self,
        session: &Session<'_, '_, B>,
        corrections: &[NoiseCorrection],
        reference: usize,
        rng: &mut R,
    ) -> (NoiseCorrection, PhaseCost);

    /// The reference node's accumulated means-and-noise vector.
    fn reference_sums(&self, reference: usize) -> ReferenceSums<'_, B>;

    /// This iteration's fault counters, or `None` without a fault injector.
    fn take_faults(&mut self) -> Option<FaultStats>;
}

/// The simulated driver: the round or event-driven gossip engines over
/// in-memory stores, with the seeded fault injector when the adversary
/// model is active.
struct SimulatedDriver<B: CipherBackend> {
    adversary: Option<AdversaryState>,
    means: MeansStore<B>,
    counter: Vec<SumState>,
}

/// The EESum store: per-node states (encrypted backends, round-based runs)
/// or the struct-of-arrays lane arena (plaintext backends under the
/// asynchronous model, the configuration meant to scale to 100k–10M nodes).
enum MeansStore<B: CipherBackend> {
    PerNode(Vec<EesState<BackendVector<B>>>),
    Arena(EesUnitArena),
}

impl<B: CipherBackend> GossipDriver<B> for SimulatedDriver<B> {
    fn frame_overhead(&self) -> usize {
        0
    }

    fn start<R: Rng + ?Sized>(&mut self, session: &Session<'_, '_, B>, rng: &mut R) {
        // The fault schedule runs on a dedicated seed-derived RNG
        // sub-stream.  An inactive model draws NOTHING here and is never
        // materialised, so honest runs stay bit-identical to every
        // historical baseline seed.
        let model = session.run.params.adversary;
        self.adversary = model.is_active().then(|| AdversaryState::new(model, rng.gen()));
    }

    fn sum_means<R: Rng + ?Sized>(
        &mut self,
        session: &Session<'_, '_, B>,
        round: &Round<'_>,
        rng: &mut R,
    ) -> (Vec<usize>, PhaseCost) {
        // Release the previous iteration's stores before building this
        // one's, so the peak footprint holds one population's state, not two.
        self.means = MeansStore::PerNode(Vec::new());
        self.counter = Vec::new();
        let Session { run, device, pool, churn, exchanges } = session;
        let series_all = run.data.series();
        let population = series_all.len();
        let contribute = |i: usize, series: &TimeSeries| {
            let seed = round.participant_seeds[i];
            device.contribute(round.centroids, series, seed, round.sum_scale, round.count_scale)
        };
        let mut labels = Vec::with_capacity(population);
        match (&run.params.network, B::ENCRYPTED) {
            (NetworkModel::Async(config), false) => {
                let packer = device.packer.as_ref().expect("plaintext backends require lane packing");
                let layout = packer.layout();
                let value_bits = layout.lanes as u64 * layout.lane_bits;
                let limbs_per_unit = value_bits.div_ceil(64) as usize + 1;
                let entries = run.params.k * (run.data.series_length() + 1);
                let units_per_node = 2 * packer.ciphertexts_for(entries) + 1;
                let mut arena = EesUnitArena::new(population, units_per_node, limbs_per_unit);
                let mut start = 0usize;
                while start < population {
                    let end = (start + ARENA_FILL_CHUNK).min(population);
                    let chunk =
                        pool.map(&series_all[start..end], |offset, series| contribute(start + offset, series));
                    for (offset, (assigned, units)) in chunk.into_iter().enumerate() {
                        labels.push(assigned);
                        for (u, unit) in units.iter().enumerate() {
                            arena.set_unit_from_digits(
                                start + offset,
                                u,
                                device.backend.plaintext_of(unit).iter_u64_digits(),
                            );
                        }
                    }
                    start = end;
                }
                let (arena, metrics, sim_time, sim) = run_async_phase_with_adversary(
                    config,
                    arena,
                    *churn,
                    &EesSumProtocol,
                    *exchanges,
                    rng,
                    self.adversary.as_mut(),
                );
                self.means = MeansStore::Arena(arena);
                (labels, PhaseCost { metrics, converged: true, sim_time, peak_in_flight: sim.peak_in_flight })
            }
            (network, _) => {
                let mut vectors = Vec::with_capacity(population);
                for (assigned, units) in pool.map(series_all, contribute) {
                    labels.push(assigned);
                    vectors.push(BackendVector::new(device.backend.clone(), units));
                }
                let phase = run_phase_with_adversary(
                    network,
                    eesum_initial_states(vectors),
                    *churn,
                    &EesSumProtocol,
                    *exchanges,
                    rng,
                    self.adversary.as_mut(),
                );
                let cost = PhaseCost::of(&phase);
                self.means = MeansStore::PerNode(phase.nodes);
                (labels, cost)
            }
        }
    }

    fn sum_counter<R: Rng + ?Sized>(&mut self, session: &Session<'_, '_, B>, rng: &mut R) -> PhaseCost {
        let phase = run_phase_with_adversary(
            &session.run.params.network,
            sum_initial_states(&vec![1.0; session.run.data.len()]),
            session.churn,
            &PushPullSum,
            session.exchanges,
            rng,
            self.adversary.as_mut(),
        );
        let cost = PhaseCost::of(&phase);
        self.counter = phase.nodes;
        cost
    }

    fn weight(&self, node: usize) -> f64 {
        match &self.means {
            MeansStore::PerNode(nodes) => nodes[node].weight,
            MeansStore::Arena(arena) => arena.weight(node),
        }
    }

    fn counter_estimate(&self, node: usize) -> Option<f64> {
        self.counter[node].estimate()
    }

    fn disseminate<R: Rng + ?Sized>(
        &mut self,
        session: &Session<'_, '_, B>,
        corrections: &[NoiseCorrection],
        _reference: usize,
        rng: &mut R,
    ) -> (NoiseCorrection, PhaseCost) {
        let params = &session.run.params;
        let population = corrections.len();
        let kn = params.k * session.run.data.series_length();
        match &params.network {
            NetworkModel::Async(config) => {
                // Struct-of-arrays dissemination: the event-driven engines
                // drive a MinIdArena (one id lane plus flat payload rows)
                // instead of per-node boxed NoiseCorrection clones.  The
                // async schedule is state-independent, so the result is
                // bit-identical to the boxed store from the same RNG.
                let arena = MinIdArena::build(population, kn + params.k, |node, row| {
                    let c = &corrections[node];
                    row[..kn].copy_from_slice(&c.sum_correction);
                    row[kn..].copy_from_slice(&c.count_correction);
                    c.id
                });
                let (arena, metrics, sim_time, sim, converged) = run_async_phase_until_with_adversary(
                    config,
                    arena,
                    session.churn,
                    &DisseminationProtocol,
                    session.exchanges,
                    rng,
                    |arena: &MinIdArena| arena.converged(),
                    self.adversary.as_mut(),
                );
                let winner = arena.winning_node();
                let winner_id = arena.id(winner);
                assert!(
                    (0..population)
                        .filter(|&node| arena.id(node) == winner_id)
                        .all(|node| arena.payload(node) == arena.payload(winner)),
                    "every node holding the winning identifier must carry the same payload"
                );
                let row = arena.payload(winner);
                let winning = NoiseCorrection {
                    id: winner_id,
                    sum_correction: row[..kn].to_vec(),
                    count_correction: row[kn..].to_vec(),
                };
                (winning, PhaseCost { metrics, converged, sim_time, peak_in_flight: sim.peak_in_flight })
            }
            NetworkModel::Rounds => {
                let states: Vec<MinIdState<NoiseCorrection>> =
                    corrections.iter().map(|c| MinIdState::new(c.id, c.clone())).collect();
                let phase = run_phase_until_with_adversary(
                    &params.network,
                    states,
                    session.churn,
                    &DisseminationProtocol,
                    session.exchanges,
                    rng,
                    converged,
                    self.adversary.as_mut(),
                );
                let winner = winning_state(&phase.nodes);
                assert!(
                    phase.nodes.iter().filter(|s| s.id == winner.id).all(|s| s.payload == winner.payload),
                    "every node holding the winning identifier must carry the same payload"
                );
                (winner.payload.clone(), PhaseCost::of(&phase))
            }
        }
    }

    fn reference_sums(&self, reference: usize) -> ReferenceSums<'_, B> {
        match &self.means {
            MeansStore::PerNode(nodes) => ReferenceSums::Units(nodes[reference].value.units()),
            MeansStore::Arena(arena) => ReferenceSums::Plaintexts(
                (0..arena.units_per_node())
                    .map(|u| biguint_from_limbs(arena.unit_limbs(reference, u)))
                    .collect(),
            ),
        }
    }

    fn take_faults(&mut self) -> Option<FaultStats> {
        self.adversary.as_mut().map(AdversaryState::take_stats)
    }
}

/// Rebuilds a big integer from the little-endian limbs of an arena unit.
fn biguint_from_limbs(limbs: &[u64]) -> BigUint {
    limbs.iter().rev().fold(BigUint::from(0u32), |acc, &limb| (acc << 64u32) + BigUint::from(limb))
}

/// Builds an [`Assignment`] from per-participant labels.
fn assignment_from_labels(labels: &[usize], k: usize) -> Assignment {
    let mut sizes = vec![0usize; k];
    for &l in labels {
        sizes[l] += 1;
    }
    Assignment { labels: labels.to_vec(), sizes }
}

/// Same far-away sentinel as the centralized surrogate (footnote 8): an
/// aberrant mean that will attract no series at the next iteration.
fn aberrant_centroid(series_length: usize, range_max: f64, cluster: usize) -> TimeSeries {
    TimeSeries::constant(series_length, range_max * 1e6 * (cluster + 2) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChiaroscuroParams;
    use chiaroscuro_crypto::backend::PlaintextSurrogate;
    use chiaroscuro_dp::budget::BudgetStrategy;
    use chiaroscuro_timeseries::datasets::{cer::CerLikeGenerator, DatasetGenerator};
    use chiaroscuro_timeseries::ValueRange;

    fn tiny_dataset(population: usize) -> TimeSeriesSet {
        // Two well-separated constant profiles so clustering is unambiguous.
        let series = (0..population)
            .map(|i| {
                if i % 2 == 0 {
                    TimeSeries::constant(4, 10.0)
                } else {
                    TimeSeries::constant(4, 70.0)
                }
            })
            .collect();
        TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
    }

    fn tiny_params(k: usize, iterations: usize) -> ChiaroscuroParams {
        ChiaroscuroParams::builder()
            .k(k)
            .max_iterations(iterations)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(12)
            .exchanges(12)
            .strategy(BudgetStrategy::UniformFast { max_iterations: iterations })
            .epsilon(50.0) // large ε so the tiny population is not drowned in noise
            .build()
    }

    #[test]
    fn end_to_end_distributed_run_recovers_cluster_structure() {
        let data = tiny_dataset(16);
        let params = tiny_params(2, 2);
        let outcome = DistributedRun::new(params, &data)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)])
            .execute(7);
        assert_eq!(outcome.report.num_iterations(), 2);
        // With a generous ε the two centroids must stay near 10 and 70.
        let centroids = outcome.centroids();
        let mut means: Vec<f64> = centroids.iter().map(|c| c.mean()).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 10.0).abs() < 8.0, "low centroid at {}", means[0]);
        assert!((means[1] - 70.0).abs() < 8.0, "high centroid at {}", means[1]);
        // Both clusters survived.
        assert_eq!(outcome.report.iterations.last().unwrap().surviving_centroids, 2);
    }

    #[test]
    fn audit_never_contains_raw_personal_data() {
        let data = tiny_dataset(12);
        let params = tiny_params(2, 1);
        let outcome = DistributedRun::new(params, &data).execute(3);
        assert!(!outcome.audit.leaked_raw_data());
        assert!(outcome.audit.count(DataClass::Encrypted) > 0);
        assert!(outcome.audit.count(DataClass::DifferentiallyPrivate) > 0);
        assert!(outcome.audit.count(DataClass::DataIndependent) > 0);
    }

    #[test]
    fn network_stats_are_recorded_per_iteration() {
        let data = tiny_dataset(12);
        let params = tiny_params(2, 2);
        let outcome = DistributedRun::new(params, &data).execute(11);
        assert_eq!(outcome.network.len(), outcome.report.num_iterations());
        for stats in &outcome.network {
            assert!(stats.sum_messages_per_node > 0.0);
            assert!(stats.sum_rounds > 0);
            assert!(stats.sum_payload_bytes > 0, "the payload byte model must be populated");
            assert_eq!(stats.sum_payload_bytes % stats.sum_payload_ciphertexts, 0);
        }
    }

    #[test]
    fn budget_is_never_exceeded() {
        let data = tiny_dataset(12);
        let mut params = tiny_params(2, 3);
        params.epsilon = 1.0;
        let outcome = DistributedRun::new(params, &data).execute(5);
        assert!(outcome.report.total_epsilon() <= 1.0 + 1e-9);
    }

    #[test]
    fn runs_on_generated_cer_profiles() {
        let data = CerLikeGenerator::new(3).generate(20);
        let params = ChiaroscuroParams::builder()
            .k(3)
            .max_iterations(1)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(20)
            .exchanges(10)
            .epsilon(100.0)
            .build();
        let outcome = DistributedRun::new(params, &data).execute(13);
        assert_eq!(outcome.report.num_iterations(), 1);
        assert!(outcome.report.iterations[0].pre_inertia <= outcome.report.dataset_inertia);
    }

    #[test]
    fn explicit_exchange_override_below_the_clamp_band_is_used_verbatim() {
        // Regression: `.exchanges(6)` used to be silently clamped up to 8.
        let data = tiny_dataset(12);
        let mut params = tiny_params(2, 1);
        params.exchanges_override = Some(6);
        let outcome = DistributedRun::new(params, &data).execute(5);
        assert_eq!(outcome.network[0].sum_rounds, 6, "the explicit override must be honored");
    }

    #[test]
    fn round_based_runs_report_no_wall_clock() {
        // The default network model has no clock: the new latency fields
        // must stay at zero so legacy consumers see unchanged semantics.
        let data = tiny_dataset(12);
        let outcome = DistributedRun::new(tiny_params(2, 1), &data).execute(17);
        for stats in &outcome.network {
            assert_eq!(stats.gossip_sim_time, 0.0);
            assert_eq!(stats.peak_messages_in_flight, 0);
        }
    }

    #[test]
    fn async_network_run_is_deterministic_and_reports_latency() {
        use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
        // The asynchronous model must (a) complete the full pipeline under
        // latency + loss, (b) be bit-reproducible from the seed, and (c)
        // surface wall-clock latency stats the round engine cannot produce.
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.network = NetworkModel::Async(
                AsyncNetworkConfig::default()
                    .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 })
                    .with_loss(0.05),
            );
            params
        };
        let a = DistributedRun::new(make_params(), &data)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)])
            .execute(43);
        let b = DistributedRun::new(make_params(), &data)
            .with_initial_centroids(vec![TimeSeries::constant(4, 20.0), TimeSeries::constant(4, 60.0)])
            .execute(43);
        let a_values: Vec<Vec<f64>> = a.centroids().iter().map(|c| c.values().to_vec()).collect();
        let b_values: Vec<Vec<f64>> = b.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(a_values, b_values, "async runs must be bit-reproducible from the seed");
        assert_eq!(a.network, b.network);
        for stats in &a.network {
            assert!(stats.gossip_sim_time > 0.0, "async phases consume simulated time");
            assert!(stats.peak_messages_in_flight > 0, "requests must have been in flight");
            assert!(stats.sum_messages_per_node > 0.0);
        }
        // The clustering still recovers the two well-separated profiles.
        let mut means: Vec<f64> = a.centroids().iter().map(|c| c.mean()).collect();
        means.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((means[0] - 10.0).abs() < 8.0, "low centroid at {}", means[0]);
        assert!((means[1] - 70.0).abs() < 8.0, "high centroid at {}", means[1]);
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_exact() {
        // The determinism contract: same seed, any pool size -> identical
        // ciphertext randomness, hence identical decrypted centroids, audit
        // trail and network stats.
        let data = tiny_dataset(16);
        let serial = {
            let mut params = tiny_params(2, 2);
            params.pool_threads = 1;
            DistributedRun::new(params, &data).execute(23)
        };
        let parallel = {
            let mut params = tiny_params(2, 2);
            params.pool_threads = 4;
            DistributedRun::new(params, &data).execute(23)
        };
        let serial_values: Vec<Vec<f64>> =
            serial.centroids().iter().map(|c| c.values().to_vec()).collect();
        let parallel_values: Vec<Vec<f64>> =
            parallel.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(serial_values, parallel_values, "pool size must not change the outcome");
        assert_eq!(serial.network, parallel.network);
        assert_eq!(serial.audit.events().len(), parallel.audit.events().len());
    }

    #[test]
    fn lane_packed_and_legacy_runs_are_bit_exact() {
        // The packing contract: packing changes how many ciphertexts carry
        // the data, never a single decoded bit.  Same seed -> identical
        // centroids, and the packed gossip payload is a fraction of legacy.
        let data = tiny_dataset(16);
        // 8 exchanges keep the epidemic doubling allowance small enough for
        // the 256-bit test key to fit two lanes per plaintext.
        let legacy = {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.lane_packing = false;
            DistributedRun::new(params, &data).execute(29)
        };
        let packed = {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.lane_packing = true;
            DistributedRun::new(params, &data).execute(29)
        };
        let legacy_values: Vec<Vec<f64>> =
            legacy.centroids().iter().map(|c| c.values().to_vec()).collect();
        let packed_values: Vec<Vec<f64>> =
            packed.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(legacy_values, packed_values, "lane packing must not change any decoded value");
        assert_eq!(legacy.report.num_iterations(), packed.report.num_iterations());
        assert_eq!(legacy.audit.events().len(), packed.audit.events().len());
        let legacy_payload = legacy.network[0].sum_payload_ciphertexts;
        let packed_payload = packed.network[0].sum_payload_ciphertexts;
        assert_eq!(legacy_payload, 2 * 2 * (4 + 1), "legacy carries 2·k·(n+1) ciphertexts");
        assert!(
            packed_payload < legacy_payload,
            "packing must shrink the gossip payload ({packed_payload} vs {legacy_payload})"
        );
    }

    #[test]
    fn lane_packing_composes_with_the_thread_pool() {
        // packing + pool_threads together must still be bit-identical to
        // the serial packed run (the per-participant RNG stream discipline
        // covers both knobs at once).
        let data = tiny_dataset(16);
        let run = |pool_threads: usize| {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.lane_packing = true;
            params.pool_threads = pool_threads;
            DistributedRun::new(params, &data).execute(31)
        };
        let serial = run(1);
        let pooled = run(4);
        let serial_values: Vec<Vec<f64>> =
            serial.centroids().iter().map(|c| c.values().to_vec()).collect();
        let pooled_values: Vec<Vec<f64>> =
            pooled.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(serial_values, pooled_values);
        assert_eq!(serial.network, pooled.network);
    }

    #[test]
    fn lane_packing_survives_churn_deterministically() {
        // Churn only removes exchanges from gossip rounds (the doubling
        // budget's worst case is churn-free), but the packed decode path
        // must still hold under it: the run completes, stays deterministic,
        // and keeps its payload advantage.
        let data = tiny_dataset(16);
        let run = || {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.churn = 0.3;
            params.lane_packing = true;
            DistributedRun::new(params, &data).execute(37)
        };
        let a = run();
        let b = run();
        let a_values: Vec<Vec<f64>> = a.centroids().iter().map(|c| c.values().to_vec()).collect();
        let b_values: Vec<Vec<f64>> = b.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(a_values, b_values, "packed churny runs must stay deterministic");
        assert!(a.network[0].sum_payload_ciphertexts < 2 * 2 * (4 + 1));
    }

    #[test]
    fn surrogate_backend_decodes_the_same_centroids_as_the_crypto_backend() {
        // The tentpole contract: the plaintext surrogate replays the crypto
        // run's RNG draws and carries the exact plaintext sums, so from the
        // same seed the decoded centroids are bit-identical and every
        // message/exchange statistic matches; only the payload *bytes*
        // differ (the surrogate reports the honest plaintext size).
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.lane_packing = true;
            params
        };
        let crypto = DistributedRun::new(make_params(), &data).execute(47);
        let surrogate =
            DistributedRun::<PlaintextSurrogate>::with_backend(make_params(), &data).execute(47);
        let crypto_values: Vec<Vec<f64>> =
            crypto.centroids().iter().map(|c| c.values().to_vec()).collect();
        let surrogate_values: Vec<Vec<f64>> =
            surrogate.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(crypto_values, surrogate_values, "backends must decode identical centroids");
        assert_eq!(crypto.report.num_iterations(), surrogate.report.num_iterations());
        assert_eq!(crypto.audit.events().len(), surrogate.audit.events().len());
        for (c, s) in crypto.network.iter().zip(surrogate.network.iter()) {
            assert_eq!(c.sum_messages_per_node, s.sum_messages_per_node);
            assert_eq!(c.sum_rounds, s.sum_rounds);
            assert_eq!(c.sum_payload_ciphertexts, s.sum_payload_ciphertexts);
            assert!(
                s.sum_payload_bytes < c.sum_payload_bytes,
                "the surrogate must report the smaller, honest plaintext payload \
                 ({} vs {} bytes)",
                s.sum_payload_bytes,
                c.sum_payload_bytes
            );
        }
    }

    #[test]
    fn surrogate_arena_path_matches_the_crypto_backend_under_async_delivery() {
        use chiaroscuro_gossip::sim::{AsyncNetworkConfig, LatencyModel, NetworkModel};
        // Under the async model the surrogate's EESum runs on the
        // struct-of-arrays lane arena; the crypto run uses per-node
        // ciphertext vectors.  Identical RNG streams + exact limb
        // arithmetic => bit-identical centroids and network accounting.
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.exchanges_override = Some(8);
            params.lane_packing = true;
            params.network = NetworkModel::Async(
                AsyncNetworkConfig::default()
                    .with_latency(LatencyModel::LogNormal { median: 0.3, sigma: 0.5 }),
            );
            params
        };
        let crypto = DistributedRun::new(make_params(), &data).execute(53);
        let surrogate =
            DistributedRun::<PlaintextSurrogate>::with_backend(make_params(), &data).execute(53);
        let crypto_values: Vec<Vec<f64>> =
            crypto.centroids().iter().map(|c| c.values().to_vec()).collect();
        let surrogate_values: Vec<Vec<f64>> =
            surrogate.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(crypto_values, surrogate_values, "the arena path must not change a bit");
        for (c, s) in crypto.network.iter().zip(surrogate.network.iter()) {
            assert_eq!(c.sum_messages_per_node, s.sum_messages_per_node);
            assert_eq!(c.gossip_sim_time, s.gossip_sim_time);
            assert_eq!(c.peak_messages_in_flight, s.peak_messages_in_flight);
        }
    }

    #[test]
    #[should_panic(expected = "requires lane_packing")]
    fn surrogate_without_lane_packing_is_rejected() {
        let data = tiny_dataset(16);
        let mut params = tiny_params(2, 1);
        params.lane_packing = false;
        let _ = DistributedRun::<PlaintextSurrogate>::with_backend(params, &data);
    }

    #[test]
    #[should_panic(expected = "cannot pack")]
    fn overflowing_lane_configuration_is_rejected_at_validation() {
        // A 64-bit key cannot absorb the worst-case lane accumulation: the
        // run must refuse at construction (before any key generation or
        // encryption), not corrupt lanes silently mid-run.
        let data = tiny_dataset(16);
        let mut params = tiny_params(2, 1);
        params.key_bits = 64;
        params.lane_packing = true;
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    #[should_panic(expected = "single")]
    fn single_lane_configuration_is_rejected_at_validation() {
        // 12 exchanges at a 256-bit key leave room for exactly one lane:
        // arithmetically fine, but strictly worse than the legacy path
        // (every data ciphertext plus a counter), so the performance knob
        // must refuse instead of silently inflating every phase.
        let data = tiny_dataset(16);
        let mut params = tiny_params(2, 1); // .exchanges(12)
        params.lane_packing = true;
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    fn heavy_churn_run_reports_dissemination_and_deficit_state() {
        // Under 50% churn with few exchanges the correction dissemination
        // can fail to converge and the gossip counter can undershoot nν;
        // both conditions must be surfaced, and the run must still complete
        // deterministically (using the global min-id proposal).
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.num_noise_shares = 16;
            params.churn = 0.5;
            params.exchanges_override = Some(5);
            params
        };
        let a = DistributedRun::new(make_params(), &data).execute(41);
        let b = DistributedRun::new(make_params(), &data).execute(41);
        assert_eq!(a.report.num_iterations(), b.report.num_iterations());
        let a_values: Vec<Vec<f64>> = a.centroids().iter().map(|c| c.values().to_vec()).collect();
        let b_values: Vec<Vec<f64>> = b.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(a_values, b_values, "non-converged runs must still be deterministic");
        assert!(
            a.network.iter().any(|s| !s.dissemination_converged),
            "5 exchanges at 50% churn should leave at least one iteration unconverged"
        );
        assert!(
            a.network.iter().any(|s| s.noise_share_deficit > 0),
            "the gossip counter should undershoot nν = population at this churn level"
        );
    }

    #[test]
    fn adversarial_run_counts_faults_and_stays_deterministic() {
        use chiaroscuro_gossip::sim::AdversaryModel;
        // A 25% byzantine population degrades mixing but must leave the run
        // a pure function of the seed, with every injected fault accounted
        // as either detected or absorbed, per iteration and in the audit.
        let data = tiny_dataset(16);
        let make_params = || {
            let mut params = tiny_params(2, 2);
            params.adversary = AdversaryModel::mixed(0.25, 7);
            params
        };
        let a = DistributedRun::new(make_params(), &data).execute(19);
        let b = DistributedRun::new(make_params(), &data).execute(19);
        let a_values: Vec<Vec<f64>> = a.centroids().iter().map(|c| c.values().to_vec()).collect();
        let b_values: Vec<Vec<f64>> = b.centroids().iter().map(|c| c.values().to_vec()).collect();
        assert_eq!(a_values, b_values, "adversarial runs must stay seed-deterministic");
        assert_eq!(a.network, b.network);
        let total = a.audit.fault_stats();
        assert!(total.injected_total() > 0, "a quarter of 16 nodes must inject faults");
        assert_eq!(
            total.injected_total(),
            total.detected_total() + total.absorbed_total(),
            "every injected fault is either detected or absorbed"
        );
        let mut merged = FaultStats::ZERO;
        for stats in &a.network {
            merged.merge(&stats.faults);
        }
        assert_eq!(merged, total, "per-iteration counters must sum to the audit total");
        assert!(!a.audit.leaked_raw_data(), "R2 holds under byzantine pressure");
    }

    #[test]
    fn inactive_adversary_model_is_bit_identical_to_the_honest_run() {
        use chiaroscuro_gossip::sim::AdversaryModel;
        // Fraction 0 + eclipse 0 is inactive whatever the class mix: no
        // extra RNG draw, no code-path change, bit-for-bit the honest run.
        let data = tiny_dataset(16);
        let honest = DistributedRun::new(tiny_params(2, 2), &data).execute(19);
        let mut params = tiny_params(2, 2);
        params.adversary = AdversaryModel {
            fraction: 0.0,
            malformed: 0.9,
            replay: 0.05,
            duplicate: 0.02,
            drop_reply: 0.02,
            eclipse: 0.0,
            salt: 3,
        };
        let zeroed = DistributedRun::new(params, &data).execute(19);
        let honest_bits: Vec<Vec<u64>> = honest
            .centroids()
            .iter()
            .map(|c| c.values().iter().map(|v| v.to_bits()).collect())
            .collect();
        let zeroed_bits: Vec<Vec<u64>> = zeroed
            .centroids()
            .iter()
            .map(|c| c.values().iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(honest_bits, zeroed_bits, "an inactive model must not move a single bit");
        assert_eq!(honest.network, zeroed.network);
        assert_eq!(honest.audit.events(), zeroed.audit.events());
        assert_eq!(zeroed.audit.fault_stats(), FaultStats::ZERO);
    }

    #[test]
    #[should_panic(expected = "num_noise_shares")]
    fn population_below_noise_share_expectation_rejected() {
        // Fewer devices than expected noise contributors is a standing
        // noise deficit; the run must refuse to start.
        let data = tiny_dataset(8);
        let params = tiny_params(2, 1); // expects nν = 12 > 8 participants
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    #[should_panic(expected = "at least two participants")]
    fn single_participant_rejected() {
        let series = vec![TimeSeries::constant(4, 1.0)];
        let data = TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0));
        let params = tiny_params(1, 1);
        let _ = DistributedRun::new(params, &data);
    }

    #[test]
    #[should_panic(expected = "threshold cannot exceed")]
    fn threshold_larger_than_population_rejected() {
        let data = tiny_dataset(4);
        let params = ChiaroscuroParams::builder().k(2).key_share_threshold(10).build();
        let _ = DistributedRun::new(params, &data);
    }
}
