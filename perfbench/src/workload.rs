//! The three workloads: their inputs, one complete run of each, and the
//! checks every run's output must pass.

use chiaroscuro_core::prelude::*;
use chiaroscuro_core::seedmix::run_rng;
use chiaroscuro_crypto::backend::BackendSetup;
use chiaroscuro_crypto::encoding::FixedPointEncoder;
use chiaroscuro_crypto::packing::{LaneBudget, PackedEncoder};
use chiaroscuro_dp::laplace::{LaplaceMechanism, Sensitivity};
use chiaroscuro_dp::noise_share::NoiseShareGenerator;
use chiaroscuro_kmeans::init::InitialCentroids;
use chiaroscuro_kmeans::lloyd::{KMeans, KMeansConfig};
use chiaroscuro_node::{NodeId, Transport};
use chiaroscuro_timeseries::datasets::cer::CerLikeGenerator;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet};

use crate::loopback::{LinkStats, Loopback};

/// Clusters in every workload.
const K: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Real Damgård–Jurik at 1024-bit keys through the monolith's round
    /// engine: encryption and bigint kernels do most of the work.
    DjRounds,
    /// The plaintext surrogate on the event-driven engine and its arenas:
    /// gossip and the devices' cleartext work, no modular arithmetic.
    SurrogateAsync,
    /// The plaintext surrogate through the coordinator and per-node actors
    /// over a loopback link: every exchange crosses the frame codec.
    SurrogateActors,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "dj-rounds" => Some(Kind::DjRounds),
            "surrogate-async" => Some(Kind::SurrogateAsync),
            "surrogate-actors" => Some(Kind::SurrogateActors),
            _ => None,
        }
    }

    fn population(self) -> usize {
        match self {
            Kind::DjRounds => 6,
            Kind::SurrogateAsync => 1_500,
            Kind::SurrogateActors => 150,
        }
    }

    /// Total privacy budget, split evenly over the iterations: the smaller
    /// the population, the larger the ε its centroids need to mean
    /// anything.  ε sets the noise, not the work: the lane layout is fixed
    /// by the gossip doubling budget.
    fn epsilon(self) -> f64 {
        match self {
            Kind::DjRounds => 3000.0,
            Kind::SurrogateAsync => 30.0,
            Kind::SurrogateActors => 300.0,
        }
    }

    /// One DJ iteration already takes most of a second; short runs keep
    /// the host-speed readings around each run close to its speed.
    fn iterations(self) -> usize {
        match self {
            Kind::DjRounds => 1,
            Kind::SurrogateAsync | Kind::SurrogateActors => 2,
        }
    }

    pub fn encrypted(self) -> bool {
        self == Kind::DjRounds
    }
}

/// A workload's generated inputs: everything is a function of the seed.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub data: TimeSeriesSet,
    pub init: Vec<TimeSeries>,
    pub params: ChiaroscuroParams,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let generator = CerLikeGenerator::new(seed);
        let data = generator.generate_labelled(kind.population()).0;
        let init = generator.generate_initial_centroids(K);
        let builder = ChiaroscuroParams::builder()
            .k(K)
            .epsilon(kind.epsilon())
            .strategy(BudgetStrategy::UniformFast {
                max_iterations: kind.iterations(),
            })
            .max_iterations(kind.iterations())
            .key_bits(1024)
            .key_share_threshold(4)
            .num_noise_shares(kind.population())
            .lane_packing(true)
            // The moving-average smoothing shifts small clusters' centroids
            // by an amount that depends more on the data seed than on the
            // code; without it the quality ratio is steady across seeds.
            .smoothing(Smoothing::None)
            .pool_threads(1);
        let params = match kind {
            Kind::DjRounds | Kind::SurrogateActors => builder.build(),
            Kind::SurrogateAsync => builder
                .exchanges(20)
                .network(NetworkModel::Async(
                    AsyncNetworkConfig::default()
                        .with_latency(LatencyModel::LogNormal {
                            median: 0.25,
                            sigma: 0.5,
                        })
                        .with_convergence_check_period(1.0),
                ))
                .sim_shards(1)
                .build(),
        };
        Self {
            kind,
            seed,
            data,
            init,
            params,
        }
    }

    pub fn population(&self) -> usize {
        self.data.len()
    }

    pub fn series_length(&self) -> usize {
        self.data.series_length()
    }

    /// The lane plan the runner derives for these parameters, rebuilt from
    /// the public planning functions so the benchmark can set up backends
    /// and device contributions of the same shape.  [`Checks`] holds it
    /// against the unit count each run reports.
    pub fn packer(&self) -> PackedEncoder {
        let p = &self.params;
        let n = self.series_length();
        let exchanges = p.effective_exchanges(self.population(), n);
        let schedule = p.budget_schedule();
        let min_epsilon = (0..p.max_iterations)
            .map(|i| schedule.epsilon_for_iteration(i))
            .filter(|&e| e > 0.0)
            .fold(f64::INFINITY, f64::min);
        let mechanism = LaplaceMechanism::new(self.sensitivity(), min_epsilon)
            .with_gossip_error_bound(p.gossip_error_bound);
        let noise_bound = NoiseShareGenerator::new(p.num_noise_shares, mechanism.sum_scale())
            .magnitude_bound()
            .max(
                NoiseShareGenerator::new(p.num_noise_shares, mechanism.count_scale())
                    .magnitude_bound(),
            );
        let range = self.data.range();
        let budget = LaneBudget {
            contributors: self.population(),
            doubling_budget: 8 * exchanges + 32,
            max_abs_value: range
                .min
                .abs()
                .max(range.max.abs())
                .max(1.0)
                .max(noise_bound),
            biased_vectors: 2,
        };
        PackedEncoder::plan(
            p.packing_capacity_bits(),
            &FixedPointEncoder::new(p.encoding_digits),
            &budget,
        )
        .expect("the workload parameters admit a lane layout")
    }

    fn sensitivity(&self) -> Sensitivity {
        let range = self.data.range();
        Sensitivity::from_range(self.series_length(), range.min, range.max)
    }

    /// The Laplace scales of the first iteration: `(sum, count)`.
    pub fn first_scales(&self) -> (f64, f64) {
        let epsilon = self.params.budget_schedule().epsilon_for_iteration(0);
        let mechanism = LaplaceMechanism::new(self.sensitivity(), epsilon)
            .with_gossip_error_bound(self.params.gossip_error_bound);
        (mechanism.sum_scale(), mechanism.count_scale())
    }

    /// Backend set-up input, as the runner builds it.
    pub fn backend_setup<'a>(&self, packer: &'a PackedEncoder) -> BackendSetup<'a> {
        BackendSetup {
            key_bits: self.params.key_bits,
            damgard_jurik_s: self.params.damgard_jurik_s,
            population: self.population(),
            key_share_threshold: self.params.key_share_threshold,
            packed_layout: Some(packer.layout()),
        }
    }

    fn run<B: CipherBackend>(&self) -> DistributedRun<'_, B> {
        DistributedRun::<B>::with_backend(self.params.clone(), &self.data)
            .with_initial_centroids(self.init.clone())
    }

    /// The protocol seed of repeat `repeat`.  Every repeat runs over the
    /// same data from its own seed — its own keys, noise and gossip
    /// schedule — so each median spans many keys and noise draws.
    pub fn run_seed(&self, repeat: usize) -> u64 {
        self.seed.wrapping_add((repeat as u64 + 1) << 32)
    }

    /// One complete monolith run (`execute`).
    pub fn execute<B: CipherBackend>(&self, run_seed: u64) -> RunOutcome {
        self.run::<B>().execute(run_seed)
    }

    /// One complete coordinator run over loopback links
    /// (`execute_via_links`).
    pub fn execute_actors<B: CipherBackend>(
        &self,
        run_seed: u64,
        trace: bool,
    ) -> (RunOutcome, ActorTraffic) {
        let run = self.run::<B>();
        let mut links: Vec<Loopback<B>> = (0..self.population())
            .map(|i| Loopback::new(i as NodeId, trace))
            .collect();
        let mut rng = run_rng(run_seed);
        // Frame overhead 0 keeps the reported payload size the monolith's,
        // so the outcomes compare bit for bit.
        let outcome = run.execute_via_links(&mut links, 0, &mut rng);
        let mut traffic = ActorTraffic::default();
        for link in &links {
            traffic.node_bytes += link.bytes_received();
            traffic.total_bytes += link.bytes_sent() + link.bytes_received();
            traffic.stats.merge(&link.stats);
        }
        (outcome, traffic)
    }

    /// Intra-cluster inertia of non-private Lloyd from the same initial
    /// centroids over the same number of iterations.
    pub fn lloyd_inertia(&self, iterations: usize) -> f64 {
        let config = KMeansConfig {
            max_iterations: iterations,
            convergence_threshold: 0.0,
        };
        let report = KMeans::new(config).run(
            &self.data,
            &InitialCentroids::Provided(self.init.clone()),
            &mut run_rng(self.seed),
        );
        report
            .iterations
            .last()
            .expect("Lloyd ran at least one iteration")
            .post_inertia
    }
}

/// What crossed the loopback links in one actor run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActorTraffic {
    /// Bytes the nodes sent to the coordinator.
    pub node_bytes: u64,
    /// Bytes in both directions.
    pub total_bytes: u64,
    pub stats: LinkStats,
}

/// The output checks of one run.  A run that fails any of them is a failed
/// operation.
pub struct Checks {
    epsilon: f64,
    units_per_device: usize,
}

impl Checks {
    pub fn new(w: &Workload, packer: &PackedEncoder) -> Self {
        let entries = w.params.k * (w.series_length() + 1);
        Self {
            epsilon: w.params.epsilon,
            units_per_device: 2 * packer.ciphertexts_for(entries) + 1,
        }
    }

    /// Returns the first failed check, if any.  `reference` is an outcome
    /// the run must reproduce bit for bit: its decoded centroids always,
    /// and its audit log and network statistics too when `whole` (they
    /// differ between backends only in the unit size).
    pub fn verify(
        &self,
        outcome: &RunOutcome,
        reference: Option<&RunOutcome>,
        whole: bool,
    ) -> Result<(), String> {
        let spent = outcome.report.total_epsilon();
        if spent > self.epsilon * (1.0 + 1e-9) {
            return Err(format!(
                "spent ε {spent} exceeds the budget {}",
                self.epsilon
            ));
        }
        if outcome.audit.leaked_raw_data() {
            return Err("the audit records raw personal data leaving a device".into());
        }
        if outcome
            .network
            .iter()
            .any(|s| s.sum_payload_ciphertexts != self.units_per_device)
        {
            return Err(
                "the run's contribution size differs from the benchmark's lane plan".into(),
            );
        }
        if !outcome
            .report
            .iterations
            .iter()
            .all(|i| i.post_inertia.is_finite())
        {
            return Err("every cluster of an iteration died".into());
        }
        let Some(reference) = reference else {
            return Ok(());
        };
        if !same_centroids(reference.centroids(), outcome.centroids()) {
            return Err("decoded centroids differ from the reference run".into());
        }
        if whole && reference.audit.events() != outcome.audit.events() {
            return Err("audit log differs from the reference run".into());
        }
        if whole && reference.network != outcome.network {
            return Err("network statistics differ from the reference run".into());
        }
        Ok(())
    }
}

fn same_centroids(a: &[TimeSeries], b: &[TimeSeries]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.values().len() == y.values().len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}
