//! The repository benchmark.  One invocation runs one workload, on one
//! thread, for a fixed time:
//!
//! ```text
//! chiaroscuro_perfbench --workload <dj-rounds|surrogate-async|surrogate-actors>
//!                       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats complete runs until the time is up and reports the
//! end-to-end metrics as medians over the repeats; `--trace 1` reports the
//! per-layer metrics from runs through a timing cipher backend and a
//! timing loopback transport, plus standalone calls into each layer.  The
//! last line of standard output is the JSON result.  See `README.md`.

mod loopback;
mod probes;
mod stats;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::Rng;

use chiaroscuro_core::noise::NoiseShareVector;
use chiaroscuro_core::prelude::*;
use chiaroscuro_core::runner::IterationNetworkStats;
use chiaroscuro_core::seedmix::{device_streams, run_rng};
use chiaroscuro_core::PackedMeans;
use chiaroscuro_crypto::keys::KeyPair;
use chiaroscuro_crypto::packing::PackedEncoder;

use crate::stats::{host_speed, median, now, peak_rss_mb, secs_since, time, to_reference};
use crate::timed::{Op, Timed};
use crate::workload::{ActorTraffic, Checks, Kind, Workload};

/// End-to-end metrics (`--trace 0`), with units, in report order.
const END_TO_END: [(&str, &str); 7] = [
    ("node_iters_per_s", "node-iter/s"),
    ("setup_s", "s"),
    ("device_contrib_ms", "ms"),
    ("bytes_per_node_iter", "bytes"),
    ("sim_latency_s", "sim_s"),
    ("inertia_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, in report order.
const PER_LAYER: [(&str, &str); 29] = [
    ("bigint.modpow_2048_us", "us"),
    ("bigint.mont_mul_2048_ns", "ns"),
    ("crypto.setup.busy_s", "s"),
    ("crypto.encrypt.calls", "count"),
    ("crypto.encrypt.busy_s", "s"),
    ("crypto.add.calls", "count"),
    ("crypto.add.busy_s", "s"),
    ("crypto.scale_pow2.calls", "count"),
    ("crypto.scale_pow2.busy_s", "s"),
    ("crypto.decrypt.calls", "count"),
    ("crypto.decrypt.busy_s", "s"),
    ("crypto.encrypt_us", "us"),
    ("crypto.encrypt_pk_us", "us"),
    ("gossip.sum_msgs_per_node", "msgs"),
    ("gossip.dissem_msgs_per_node", "msgs"),
    ("gossip.sum_rounds", "rounds"),
    ("gossip.peak_in_flight", "msgs"),
    ("gossip.eesum_phase_s", "s"),
    ("gossip.counter_phase_s", "s"),
    ("gossip.dissem_phase_s", "s"),
    ("gossip.events_per_s", "msgs/s"),
    ("dp.noise_share_us", "us"),
    ("node.frames", "count"),
    ("node.bytes", "bytes"),
    ("node.codec.busy_s", "s"),
    ("node.actor.busy_s", "s"),
    ("core.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("host.calib_ms", "ms"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut values = BTreeMap::new();
    for pair in raw.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                values.insert(flag[2..].to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |name: &str| values.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let w = Workload::new(args.kind, args.seed);
    let result = match (args.kind.encrypted(), args.trace) {
        (true, false) => untraced::<DamgardJurik>(&w, args.seconds),
        (true, true) => traced::<DamgardJurik>(&w, args.seconds),
        (false, false) => untraced::<PlaintextSurrogate>(&w, args.seconds),
        (false, true) => traced::<PlaintextSurrogate>(&w, args.seconds),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    result.print(table);
}

/// Operation accounting and the metric values of one invocation.
#[derive(Default)]
struct Results {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Results {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Books one run: it fails if it panicked or its output check failed.
    fn book(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: failed operation: {why}");
        }
    }

    fn print(&self, table: &[(&str, &str)]) {
        let mut fields = Vec::with_capacity(table.len());
        let mut all_finite = true;
        for (name, unit) in table {
            let value = *self.metrics.get(name).unwrap_or(&f64::NAN);
            all_finite &= value.is_finite();
            let shown = if value.is_finite() { value } else { 0.0 };
            println!("{name:>30} = {shown} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {shown:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && all_finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// One complete run of the workload with backend `B` from `run_seed`,
/// caught if it panics, with its wall time.
fn run_once<B: CipherBackend>(
    w: &Workload,
    run_seed: u64,
    trace: bool,
) -> (Result<(RunOutcome, ActorTraffic), String>, f64) {
    time(|| {
        catch_unwind(AssertUnwindSafe(|| match w.kind {
            Kind::SurrogateActors => w.execute_actors::<B>(run_seed, trace),
            Kind::DjRounds | Kind::SurrogateAsync => {
                (w.execute::<B>(run_seed), ActorTraffic::default())
            }
        }))
        .map_err(|_| "the run panicked".to_string())
    })
}

/// The outcome a run from `run_seed` must reproduce, computed untimed:
/// dj-rounds decodes what the plaintext surrogate decodes, and the actor
/// path reproduces the monolith.  surrogate-async has none (each of its
/// seeds runs twice instead, and the pair must agree).
fn reference(w: &Workload, run_seed: u64) -> Option<RunOutcome> {
    match w.kind {
        Kind::DjRounds | Kind::SurrogateActors => Some(w.execute::<PlaintextSurrogate>(run_seed)),
        Kind::SurrogateAsync => None,
    }
}

/// Times single devices building their iteration contribution at
/// public-key speed: assignment, packed means, noise shares and the
/// counter unit, on a backend rebuilt from exported public material.
struct Devices<'a, B: CipherBackend> {
    w: &'a Workload,
    packer: &'a PackedEncoder,
    public: B,
    seeds: StdRng,
    next: usize,
    scales: (f64, f64),
}

impl<'a, B: CipherBackend> Devices<'a, B> {
    fn new(w: &'a Workload, packer: &'a PackedEncoder, full: &B) -> Self {
        Self {
            w,
            packer,
            public: B::import_public(&full.export_public()).expect("exported material imports"),
            seeds: run_rng(w.seed ^ 0xDE71CE),
            next: 0,
            scales: w.first_scales(),
        }
    }

    /// Seconds one device takes for its contribution.
    fn contribute(&mut self) -> f64 {
        let series = &self.w.data.series()[self.next % self.w.population()];
        self.next += 1;
        let mut streams = device_streams(self.seeds.gen());
        let (k, n) = (self.w.params.k, self.w.series_length());
        let (sum_scale, count_scale) = self.scales;
        let (units, secs) = time(|| {
            let noise = NoiseShareVector::generate(
                k,
                n,
                sum_scale,
                count_scale,
                self.w.params.num_noise_shares,
                &mut streams.noise,
            );
            let rng = &mut streams.encryption;
            let (means, _) =
                PackedMeans::initialise(&self.w.init, series, &self.public, self.packer, rng);
            let mut units = means.units;
            for m in self.packer.pack(&noise.flatten()) {
                units.push(self.public.encrypt(&m, rng));
            }
            units.push(self.public.encrypt(&self.packer.counter_plaintext(), rng));
            units
        });
        black_box(units);
        secs
    }
}

/// Per-repeat extra samples: set-ups of the repeat's own key, and device
/// contributions (fewer for the slow public-key DJ devices).
fn per_repeat(kind: Kind) -> (usize, usize) {
    match kind {
        Kind::DjRounds => (2, 2),
        Kind::SurrogateAsync | Kind::SurrogateActors => (2, 32),
    }
}

/// Fewest repeats an invocation makes, whatever `--seconds` says.
const MIN_REPEATS: usize = 4;

/// The protocol seed of repeat `r`.  surrogate-async runs each seed twice
/// in a row, so that its repeats can be checked against each other.
fn repeat_seed(w: &Workload, r: usize) -> u64 {
    match w.kind {
        Kind::SurrogateAsync => w.run_seed(r / 2),
        Kind::DjRounds | Kind::SurrogateActors => w.run_seed(r),
    }
}

/// The per-run end-to-end figures that do not come from a clock.
struct RunFigures {
    bytes_per_node_iter: f64,
    sim_latency: f64,
    inertia_ratio: f64,
}

fn run_figures(
    w: &Workload,
    outcome: &RunOutcome,
    traffic: &ActorTraffic,
    lloyd: &[f64],
) -> RunFigures {
    let population = w.population() as f64;
    let iterations = outcome.network.len() as f64;
    let bytes_per_node_iter = match w.kind {
        Kind::SurrogateActors => traffic.node_bytes as f64 / (population * iterations),
        // The epidemic-sum messages split evenly between the means phase
        // and the counter phase (equal exchange counts without churn or
        // loss); the means half carries the contribution payload.
        Kind::DjRounds | Kind::SurrogateAsync => {
            outcome
                .network
                .iter()
                .map(|s| s.sum_messages_per_node / 2.0 * s.sum_payload_bytes as f64)
                .sum::<f64>()
                / iterations
        }
    };
    let sim_latency = outcome
        .network
        .iter()
        .map(|s| match w.params.network {
            NetworkModel::Async(_) => s.gossip_sim_time,
            // The round engine has no clock: every node initiates one
            // exchange (two messages) per round, and a round stands for
            // one exchange period.
            NetworkModel::Rounds => {
                (s.sum_messages_per_node + s.dissemination_messages_per_node) / 2.0
            }
        })
        .sum::<f64>()
        / iterations;
    let final_inertia = outcome
        .report
        .iterations
        .last()
        .map_or(f64::NAN, |i| i.post_inertia);
    RunFigures {
        bytes_per_node_iter,
        sim_latency,
        inertia_ratio: final_inertia / lloyd[outcome.network.len() - 1],
    }
}

fn untraced<B: CipherBackend>(w: &Workload, seconds: f64) -> Results {
    let start = now();
    let packer = w.packer();
    let setup = w.backend_setup(&packer);
    let checks = Checks::new(w, &packer);
    // Lloyd over as many iterations as each private run made.
    let lloyd: Vec<f64> = (1..=w.params.max_iterations)
        .map(|i| w.lloyd_inertia(i))
        .collect();
    let full = B::setup(&setup, &mut run_rng(w.run_seed(0)));
    full.precompute();
    let mut devices = Devices::new(w, &packer, &full);
    let (setups_per_repeat, devices_per_repeat) = per_repeat(w.kind);

    let mut out = Results::default();
    let (mut run_s, mut raw_run_s, mut setup_s, mut device_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut figures = Vec::new();
    let mut previous: Option<(u64, RunOutcome)> = None;
    let mut repeat = 0usize;
    while repeat < MIN_REPEATS || secs_since(start) < seconds {
        let run_seed = repeat_seed(w, repeat);
        let expected = reference(w, run_seed).or_else(|| {
            previous
                .take()
                .filter(|(seed, _)| *seed == run_seed)
                .map(|(_, outcome)| outcome)
        });
        // Host speed is read around every timed stretch, and each timing
        // is rescaled to the reference speed (see README.md).
        let speed_before = host_speed();
        let (result, secs) = run_once::<B>(w, run_seed, false);
        let speed_after = host_speed();
        raw_run_s.push(secs);
        run_s.push(secs * to_reference(speed_before, speed_after));
        match result {
            Ok((outcome, traffic)) => {
                out.book(checks.verify(&outcome, expected.as_ref(), w.kind != Kind::DjRounds));
                figures.push(run_figures(w, &outcome, &traffic, &lloyd));
                previous = Some((run_seed, outcome));
            }
            Err(why) => out.book(Err(why)),
        }
        // The set-up this run paid, repeated outside it, and single devices'
        // contributions: interleaved with the runs, so no single stretch of
        // host speed holds all of their samples.
        let setups: Vec<f64> = (0..setups_per_repeat)
            .map(|_| {
                time(|| {
                    let backend = B::setup(&setup, &mut run_rng(run_seed));
                    backend.precompute();
                    backend
                })
                .1
            })
            .collect();
        let contributions: Vec<f64> = (0..devices_per_repeat)
            .map(|_| devices.contribute())
            .collect();
        let scale = to_reference(speed_after, host_speed());
        setup_s.extend(setups.iter().map(|s| s * scale));
        device_s.extend(contributions.iter().map(|s| s * scale));
        repeat += 1;
    }

    let iterations = w.params.max_iterations as f64;
    let median_of = |f: fn(&RunFigures) -> f64| median(&figures.iter().map(f).collect::<Vec<_>>());
    out.set(
        "node_iters_per_s",
        w.population() as f64 * iterations / median(&run_s),
    );
    out.set("setup_s", median(&setup_s));
    out.set("device_contrib_ms", median(&device_s) * 1e3);
    if !figures.is_empty() {
        out.set("bytes_per_node_iter", median_of(|f| f.bytes_per_node_iter));
        out.set("sim_latency_s", median_of(|f| f.sim_latency));
        out.set("inertia_ratio", median_of(|f| f.inertia_ratio));
    }
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    eprintln!(
        "perfbench: {repeat} repeats in {:.1} s; run median {:.4} s at reference speed, {:.4} s wall",
        secs_since(start),
        median(&run_s),
        median(&raw_run_s),
    );
    out
}

/// Everything one traced run books.
struct TracedRun {
    run_s: f64,
    /// `run_s` rescaled to the reference host speed.
    reference_s: f64,
    layers: [timed::OpTotals; 5],
    traffic: ActorTraffic,
    outcome: RunOutcome,
}

const OPS: [Op; 5] = [Op::Setup, Op::Encrypt, Op::Add, Op::ScalePow2, Op::Decrypt];

fn traced<B: CipherBackend>(w: &Workload, seconds: f64) -> Results {
    let start = now();
    let calibration_start = probes::calibration_ms();
    let packer = w.packer();
    let setup = w.backend_setup(&packer);
    let checks = Checks::new(w, &packer);
    let mut out = Results::default();

    // Standalone layer calls at the workload's shapes.
    let key = KeyPair::generate(
        w.params.key_bits,
        w.params.damgard_jurik_s,
        &mut run_rng(w.run_seed(0)),
    );
    let (modpow_us, mont_mul_ns) = probes::bigint(key.public.ciphertext_modulus(), w.seed);
    out.set("bigint.modpow_2048_us", modpow_us);
    out.set("bigint.mont_mul_2048_ns", mont_mul_ns);
    let full = B::setup(&setup, &mut run_rng(w.run_seed(0)));
    full.precompute();
    let public = B::import_public(&full.export_public()).expect("exported material imports");
    let encrypts = if B::ENCRYPTED { 16 } else { 400 };
    out.set(
        "crypto.encrypt_us",
        probes::encrypt_us(&full, w, &packer, encrypts),
    );
    out.set(
        "crypto.encrypt_pk_us",
        probes::encrypt_us(&public, w, &packer, encrypts),
    );
    out.set("dp.noise_share_us", probes::noise_share_us(w, 400));
    let gossip = probes::gossip_phases(w, &packer);
    out.set("gossip.eesum_phase_s", gossip.eesum_s);
    out.set("gossip.counter_phase_s", gossip.counter_s);
    out.set("gossip.dissem_phase_s", gossip.dissemination_s);
    let gossip_s = gossip.eesum_s + gossip.counter_s + gossip.dissemination_s;
    out.set(
        "gossip.events_per_s",
        if gossip_s > 0.0 {
            gossip.messages as f64 / gossip_s
        } else {
            0.0
        },
    );

    // An untraced and a traced run from each seed, until the time is up.
    // The traced run must decode exactly what the untraced one did.
    let (mut plain_s, mut runs) = (Vec::new(), Vec::new());
    let mut repeat = 0usize;
    while repeat == 0 || secs_since(start) < seconds {
        let run_seed = w.run_seed(repeat);
        repeat += 1;
        let expected = reference(w, run_seed);
        let speed_before = host_speed();
        let (result, secs) = run_once::<B>(w, run_seed, false);
        let speed_between = host_speed();
        plain_s.push(secs * to_reference(speed_before, speed_between));
        let plain = match result {
            Ok((outcome, _)) => {
                out.book(checks.verify(&outcome, expected.as_ref(), w.kind != Kind::DjRounds));
                outcome
            }
            Err(why) => {
                out.book(Err(why));
                continue;
            }
        };

        timed::reset();
        let (result, run_s) = run_once::<Timed<B>>(w, run_seed, true);
        let layers = OPS.map(timed::totals);
        let scale = to_reference(speed_between, host_speed());
        match result {
            Ok((outcome, traffic)) => {
                out.book(checks.verify(&outcome, Some(&plain), true));
                runs.push(TracedRun {
                    run_s,
                    reference_s: run_s * scale,
                    layers,
                    traffic,
                    outcome,
                });
            }
            Err(why) => out.book(Err(why)),
        }
    }
    if runs.is_empty() {
        return out;
    }

    let median_of = |f: &dyn Fn(&TracedRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.set(
        "crypto.setup.busy_s",
        median_of(&|r| r.layers[Op::Setup as usize].busy_s),
    );
    let names = [
        (Op::Encrypt, "crypto.encrypt.calls", "crypto.encrypt.busy_s"),
        (Op::Add, "crypto.add.calls", "crypto.add.busy_s"),
        (
            Op::ScalePow2,
            "crypto.scale_pow2.calls",
            "crypto.scale_pow2.busy_s",
        ),
        (Op::Decrypt, "crypto.decrypt.calls", "crypto.decrypt.busy_s"),
    ];
    for (op, calls, busy) in names {
        out.set(calls, median_of(&|r| r.layers[op as usize].calls as f64));
        out.set(busy, median_of(&|r| r.layers[op as usize].busy_s));
    }

    let per_iteration = |r: &TracedRun, f: &dyn Fn(&IterationNetworkStats) -> f64| {
        r.outcome.network.iter().map(f).sum::<f64>() / r.outcome.network.len() as f64
    };
    out.set(
        "gossip.sum_msgs_per_node",
        median_of(&|r| per_iteration(r, &|s| s.sum_messages_per_node)),
    );
    out.set(
        "gossip.dissem_msgs_per_node",
        median_of(&|r| per_iteration(r, &|s| s.dissemination_messages_per_node)),
    );
    out.set(
        "gossip.sum_rounds",
        median_of(&|r| per_iteration(r, &|s| f64::from(s.sum_rounds))),
    );
    out.set(
        "gossip.peak_in_flight",
        median_of(&|r| {
            r.outcome
                .network
                .iter()
                .map(|s| s.peak_messages_in_flight)
                .max()
                .unwrap_or(0) as f64
        }),
    );

    out.set("node.frames", median_of(&|r| r.traffic.stats.frames as f64));
    out.set("node.bytes", median_of(&|r| r.traffic.total_bytes as f64));
    out.set("node.codec.busy_s", median_of(&|r| r.traffic.stats.codec_s));
    out.set("node.actor.busy_s", median_of(&|r| r.traffic.stats.actor_s));
    // Cipher calls made inside the actors are booked by both the cipher
    // ledger and the actor timer; count them once.
    out.set(
        "core.self_s",
        median_of(&|r| {
            let link = &r.traffic.stats;
            let crypto: f64 = r.layers.iter().map(|t| t.busy_s).sum();
            r.run_s - crypto - (link.actor_s - link.actor_crypto_s) - link.codec_s
        }),
    );
    out.set(
        "trace.overhead_ratio",
        median_of(&|r| r.reference_s) / median(&plain_s),
    );
    out.set(
        "host.calib_ms",
        0.5 * (calibration_start + probes::calibration_ms()),
    );
    out
}
