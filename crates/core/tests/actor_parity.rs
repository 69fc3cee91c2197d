//! The actor-path determinism contract: a pinned scenario driven through
//! per-node actors (`DistributedRun::via_actors`) reproduces the monolithic
//! `DistributedRun::execute` **bit for bit** from the same seed — identical
//! centroid values, identical per-iteration network statistics, identical
//! audit events — under both transports and under every encoding path
//! (lane-packed Damgård–Jurik, legacy Damgård–Jurik, plaintext surrogate).

use chiaroscuro_core::prelude::*;
use chiaroscuro_core::runner::IterationNetworkStats;
use chiaroscuro_core::MEANS_FRAME_OVERHEAD_BYTES;
use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet, ValueRange};

/// A `population`-device dataset of two well-separated constant profiles.
fn dataset(population: usize) -> TimeSeriesSet {
    let series = (0..population)
        .map(|i| {
            if i % 2 == 0 {
                TimeSeries::constant(4, 12.0)
            } else {
                TimeSeries::constant(4, 68.0)
            }
        })
        .collect();
    TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0))
}

fn params(lane_packing: bool, churn: f64) -> ChiaroscuroParams {
    ChiaroscuroParams::builder()
        .k(2)
        .max_iterations(2)
        .key_bits(256)
        .key_share_threshold(3)
        .num_noise_shares(10)
        .exchanges(8)
        .churn(churn)
        .epsilon(40.0)
        .lane_packing(lane_packing)
        .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
        .build()
}

fn centroid_bits(outcome: &RunOutcome) -> Vec<Vec<u64>> {
    outcome
        .centroids()
        .iter()
        .map(|c| c.values().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Asserts two outcomes identical except for an expected constant
/// per-message payload-size delta (0 = fully identical network stats).
fn assert_bit_identical(a: &RunOutcome, b: &RunOutcome, payload_delta: usize) {
    assert_eq!(centroid_bits(a), centroid_bits(b), "centroids must match bit for bit");
    assert_eq!(a.report.converged, b.report.converged);
    assert_eq!(a.report.iterations.len(), b.report.iterations.len());
    for (x, y) in a.report.iterations.iter().zip(b.report.iterations.iter()) {
        assert_eq!(x.pre_inertia.to_bits(), y.pre_inertia.to_bits());
        assert_eq!(x.post_inertia.to_bits(), y.post_inertia.to_bits());
        assert_eq!(x.surviving_centroids, y.surviving_centroids);
    }
    assert_eq!(a.audit.events(), b.audit.events(), "audit logs must match event for event");
    assert_eq!(a.network.len(), b.network.len());
    for (x, y) in a.network.iter().zip(b.network.iter()) {
        let expected = IterationNetworkStats {
            sum_payload_bytes: y.sum_payload_bytes + payload_delta,
            ..*y
        };
        assert_eq!(*x, expected, "network stats must match (modulo the frame overhead)");
    }
}

#[test]
fn localbus_actors_reproduce_the_packed_crypto_monolith_bit_for_bit() {
    let data = dataset(14);
    let monolith = DistributedRun::new(params(true, 0.25), &data).execute(42);
    let actors = DistributedRun::new(params(true, 0.25), &data).via_actors(42);
    assert_bit_identical(&actors, &monolith, 0);
}

#[test]
fn localbus_actors_reproduce_the_legacy_crypto_monolith_bit_for_bit() {
    let data = dataset(12);
    let monolith = DistributedRun::new(params(false, 0.0), &data).execute(7);
    let actors = DistributedRun::new(params(false, 0.0), &data).via_actors(7);
    assert_bit_identical(&actors, &monolith, 0);
}

#[test]
fn localbus_actors_reproduce_the_surrogate_monolith_bit_for_bit() {
    let data = dataset(16);
    let monolith =
        DistributedRun::<PlaintextSurrogate>::with_backend(params(true, 0.25), &data).execute(9);
    let actors =
        DistributedRun::<PlaintextSurrogate>::with_backend(params(true, 0.25), &data).via_actors(9);
    assert_bit_identical(&actors, &monolith, 0);
}

/// The socket transport must change nothing but the *reported* payload
/// size, which grows by exactly the frame overhead actually transmitted
/// per protocol message.
#[cfg(unix)]
#[test]
fn socket_actors_match_the_monolith_and_report_the_frame_overhead() {
    let data = dataset(12);
    let monolith = DistributedRun::new(params(true, 0.0), &data).execute(11);
    let socket_params = ChiaroscuroParams { transport: TransportKind::UnixSocket, ..params(true, 0.0) };
    let actors = DistributedRun::new(socket_params, &data).via_actors(11);
    assert_bit_identical(&actors, &monolith, MEANS_FRAME_OVERHEAD_BYTES);
}

/// The two actor transports must agree with *each other* bit for bit too
/// (same protocol bytes through channels or through socketpair streams).
#[cfg(unix)]
#[test]
fn in_memory_and_socket_transports_agree() {
    let data = dataset(12);
    let in_memory = DistributedRun::new(params(false, 0.25), &data).via_actors(3);
    let socket_params =
        ChiaroscuroParams { transport: TransportKind::UnixSocket, ..params(false, 0.25) };
    let socket = DistributedRun::new(socket_params, &data).via_actors(3);
    assert_bit_identical(
        &socket,
        &in_memory,
        MEANS_FRAME_OVERHEAD_BYTES,
    );
}

/// The shared convergence break: a run that stops on
/// `convergence_threshold` before `max_iterations` must stop at the same
/// iteration through the actors.
#[test]
fn actors_stop_on_the_convergence_threshold_with_the_monolith() {
    let data = dataset(12);
    let early = || ChiaroscuroParams {
        max_iterations: 4,
        strategy: BudgetStrategy::UniformFast { max_iterations: 4 },
        convergence_threshold: 10.0,
        ..params(true, 0.0)
    };
    let monolith = DistributedRun::new(early(), &data).execute(5);
    assert!(monolith.report.converged, "the run must stop on the convergence threshold");
    assert!(monolith.report.iterations.len() < 4, "the run must stop before max_iterations");
    let actors = DistributedRun::new(early(), &data).via_actors(5);
    assert_bit_identical(&actors, &monolith, 0);
}

/// Heavy churn with few exchanges leaves the correction dissemination
/// unconverged; the agreed correction is then the global min-id proposal,
/// which both drivers must pick identically.
#[test]
fn actors_match_the_monolith_when_dissemination_does_not_converge() {
    let data = dataset(12);
    let churny = || ChiaroscuroParams { exchanges_override: Some(4), ..params(false, 0.5) };
    let monolith = DistributedRun::new(churny(), &data).execute(41);
    assert!(
        monolith.network.iter().any(|s| !s.dissemination_converged),
        "4 exchanges at 50% churn should leave at least one dissemination unconverged"
    );
    let actors = DistributedRun::new(churny(), &data).via_actors(41);
    assert_bit_identical(&actors, &monolith, 0);
}
