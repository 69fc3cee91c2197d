//! The actor-driven execution path: [`DistributedRun::via_actors`] runs the
//! same protocol as the monolithic [`DistributedRun::execute`], but every
//! participant is a [`ChiaroscuroNodeActor`] behind a
//! [`chiaroscuro_node::Transport`] link and every piece of
//! per-node protocol state lives on the node's side of that link.
//!
//! # Topology and scheduling
//!
//! The coordinator holds one link per node (a star overlay standing in for
//! the Newscast mesh) and plans each gossip round with
//! [`plan_round_with_mask`] — the exact RNG draws of the in-place
//! round engine.  Each planned exchange is delivered as:
//!
//! ```text
//! coordinator ── InitiateExchange(phase, contact) ──▶ initiator
//! initiator  ──  ExchangeRequest(phase, state)    ──▶ contact   (routed)
//! contact    ──  ExchangeReply(phase, merged)     ──▶ initiator (routed)
//! ```
//!
//! The two routed messages are the protocol traffic (the monolith's
//! `2 × exchanges` message accounting); `InitiateExchange` is uncounted
//! control traffic, standing in for the node's own gossip timer.
//!
//! # Determinism contract
//!
//! A pinned scenario driven through `via_actors` reproduces the monolithic
//! `execute` **bit for bit** from the same seed — identical centroids,
//! identical per-iteration network statistics, identical audit log — under
//! both the in-memory and the socket transports.  The contract holds by
//! construction: this module is only the *links driver* of the shared
//! execution sequence in [`crate::runner`], which makes every master-RNG
//! draw outside the gossip schedules for both drivers; the schedules here
//! draw exactly as the round engine does; and each actor derives its
//! contribution from its delivered participant seed through the same
//! device function the simulated driver calls.  No RNG lives on a thread
//! boundary.
//!
//! Only the coordinator ever threshold-decrypts: nodes are provisioned with
//! exported *public* material, so the key shares never cross a link.

use rand::Rng;

use chiaroscuro_crypto::backend::CipherBackend;
use chiaroscuro_gossip::churn::ChurnModel;
use chiaroscuro_gossip::engine::plan_round_with_mask;
use chiaroscuro_gossip::metrics::ExchangeMetrics;
use chiaroscuro_gossip::sim::{FaultStats, NetworkModel};
use chiaroscuro_node::{
    FramedSocketTransport, LocalBus, NodeEvent, NodeId, Phase, Transport, COORDINATOR,
};

use crate::actor::{
    decode_readout, encode_correction, ChiaroscuroNodeActor, IterationInputs, NodeSpec, Readout,
    MEANS_FRAME_OVERHEAD_BYTES,
};
use crate::config::TransportKind;
use crate::diptych::closest_centroid;
use crate::noise::NoiseCorrection;
use crate::runner::{
    DistributedRun, GossipDriver, PhaseCost, ReferenceSums, Round, RunOutcome, Session,
};

impl<'a, B: CipherBackend> DistributedRun<'a, B> {
    /// Executes the run through per-node actors over the transport selected
    /// by [`ChiaroscuroParams::transport`]: an in-process [`LocalBus`]
    /// (channel links, one thread per node) or Unix-domain socket pairs
    /// with framed byte streams.  Bit-identical to [`Self::execute`] from
    /// the same seed (see the module docs for why).
    ///
    /// [`ChiaroscuroParams::transport`]: crate::config::ChiaroscuroParams::transport
    ///
    /// # Panics
    /// Panics under a non-round network model (the actor path drives the
    /// synchronous round schedule; the event-driven simulator has no
    /// per-exchange message flow to relay), on transport I/O failure, and
    /// on non-Unix platforms when the socket transport is selected.
    pub fn via_actors(&self, seed: u64) -> RunOutcome {
        let mut rng = crate::seedmix::run_rng(seed);
        let population = self.data.len();
        match self.params.transport {
            TransportKind::InMemory => {
                let actors: Vec<ChiaroscuroNodeActor<B>> =
                    (0..population).map(|i| ChiaroscuroNodeActor::new(i as NodeId)).collect();
                let mut bus = LocalBus::spawn(actors);
                let outcome = self.execute_via_links(bus.links_mut(), 0, &mut rng);
                bus.shutdown().expect("the node actors must shut down cleanly");
                outcome
            }
            TransportKind::UnixSocket => self.via_socket_actors(population, &mut rng),
        }
    }

    /// The socket deployment shape, in-process: one Unix-domain socket pair
    /// and one serve thread per node, every frame crossing a real byte
    /// stream.  The multi-process example replays exactly this wire
    /// protocol with the serve loops in forked processes.
    #[cfg(unix)]
    fn via_socket_actors<R: Rng + ?Sized>(&self, population: usize, rng: &mut R) -> RunOutcome {
        use std::os::unix::net::UnixStream;

        let mut links = Vec::with_capacity(population);
        let mut threads = Vec::with_capacity(population);
        for node in 0..population {
            let (coordinator_side, node_side) =
                UnixStream::pair().expect("socketpair(2) cannot fail for in-process links");
            links.push(FramedSocketTransport::new(coordinator_side));
            threads.push(std::thread::spawn(move || {
                let mut transport = FramedSocketTransport::new(node_side);
                let mut actor = ChiaroscuroNodeActor::<B>::new(node as NodeId);
                chiaroscuro_node::serve(node as NodeId, &mut transport, &mut actor)
            }));
        }
        let outcome = self.execute_via_links(&mut links, MEANS_FRAME_OVERHEAD_BYTES, rng);
        for (node, link) in links.iter_mut().enumerate() {
            link.send(&NodeEvent::Shutdown.into_frame(COORDINATOR, node as NodeId))
                .expect("shutdown frame");
        }
        for thread in threads {
            thread
                .join()
                .expect("node thread panicked")
                .expect("the node serve loop must exit cleanly");
        }
        outcome
    }

    #[cfg(not(unix))]
    fn via_socket_actors<R: Rng + ?Sized>(&self, _population: usize, _rng: &mut R) -> RunOutcome {
        panic!("TransportKind::UnixSocket requires a Unix platform");
    }

    /// Drives the full execution sequence over caller-provided transport
    /// links — one per participant, each with a freshly spawned
    /// [`ChiaroscuroNodeActor`] serve loop on its far end (in a thread, a
    /// forked process, or a remote host).  [`Self::via_actors`] is this
    /// method plus link setup; the multi-process example calls it directly
    /// over sockets whose serve loops live in child processes.
    ///
    /// Runs the same execution sequence as [`Self::execute_with_rng`], so
    /// the outcome is bit-identical to [`Self::execute`] from the same seed.
    /// `frame_overhead` is added to each reported gossip payload size
    /// (socket deployments transmit a frame header per protocol message —
    /// pass [`MEANS_FRAME_OVERHEAD_BYTES`]; pass 0 for in-memory links to
    /// report the monolith's figure unchanged).
    ///
    /// # Panics
    /// Panics under a non-round network model, on a link-count mismatch,
    /// and on transport I/O failure.
    pub fn execute_via_links<T: Transport, R: Rng + ?Sized>(
        &self,
        links: &mut [T],
        frame_overhead: usize,
        rng: &mut R,
    ) -> RunOutcome {
        assert_eq!(links.len(), self.data.len(), "one transport link per participant");
        assert!(
            matches!(self.params.network, NetworkModel::Rounds),
            "via_actors drives the round-based schedule; the event-driven simulator models \
             the network itself and has no per-exchange message flow to relay"
        );
        assert!(
            !self.params.adversary.is_active(),
            "via_actors has no fault-injection hooks; run adversarial scenarios through \
             DistributedRun's simulated engines instead"
        );
        let driver =
            LinksDriver { links, frame_overhead, sum_readouts: Vec::new(), reference_units: Vec::new() };
        self.run_sequence(driver, rng)
    }
}

/// The links driver: every device is a node actor behind one transport
/// link, and the coordinator relays each planned exchange through the star.
struct LinksDriver<'l, T: Transport, B: CipherBackend> {
    links: &'l mut [T],
    frame_overhead: usize,
    /// Each node's readout after the counter phase; EESum weights and
    /// counters are frozen from then on (dissemination never touches them).
    sum_readouts: Vec<Readout<B>>,
    /// The reference node's accumulated units, read out after dissemination.
    reference_units: Vec<B::Unit>,
}

impl<T: Transport, B: CipherBackend> GossipDriver<B> for LinksDriver<'_, T, B> {
    fn frame_overhead(&self) -> usize {
        self.frame_overhead
    }

    /// Provisioning: public material only; key shares stay here.
    fn start<R: Rng + ?Sized>(&mut self, session: &Session<'_, '_, B>, _rng: &mut R) {
        let run = session.run;
        let packing = run.packing_budget().map(|budget| (run.params.packing_capacity_bits(), budget));
        let public = session.device.backend.export_public();
        for (node, link) in self.links.iter_mut().enumerate() {
            let spec = NodeSpec {
                k: run.params.k as u32,
                series_length: run.data.series_length() as u32,
                encoding_digits: run.params.encoding_digits,
                num_noise_shares: run.params.num_noise_shares as u32,
                packing,
                public: public.clone(),
                series: run.data.series()[node].values().to_vec(),
            };
            send(link, node, NodeEvent::Hello { config: spec.encode() });
        }
    }

    /// Each actor derives its whole contribution on its own side of the
    /// link from its delivered seed; the label it assigned itself is a pure
    /// function of the centroids and its series, so the coordinator
    /// recomputes it for the reporting-only PRE metrics instead of asking.
    fn sum_means<R: Rng + ?Sized>(
        &mut self,
        session: &Session<'_, '_, B>,
        round: &Round<'_>,
        rng: &mut R,
    ) -> (Vec<usize>, PhaseCost) {
        let centroids_flat: Vec<f64> =
            round.centroids.iter().flat_map(|c| c.values().iter().copied()).collect();
        for (node, link) in self.links.iter_mut().enumerate() {
            let inputs = IterationInputs {
                participant_seed: round.participant_seeds[node],
                sum_scale: round.sum_scale,
                count_scale: round.count_scale,
                centroids_flat: centroids_flat.clone(),
            };
            send(link, node, NodeEvent::IterationStart { payload: inputs.encode() });
        }
        let labels = session.run.data.series().iter().map(|s| closest_centroid(round.centroids, s)).collect();
        (labels, run_gossip_rounds(self.links, Phase::Means, session.exchanges, &session.churn, rng))
    }

    fn sum_counter<R: Rng + ?Sized>(&mut self, session: &Session<'_, '_, B>, rng: &mut R) -> PhaseCost {
        let cost = run_gossip_rounds(self.links, Phase::Counter, session.exchanges, &session.churn, rng);
        self.sum_readouts = (0..self.links.len()).map(|node| self.readout(session, node, false)).collect();
        cost
    }

    fn weight(&self, node: usize) -> f64 {
        self.sum_readouts[node].weight
    }

    fn counter_estimate(&self, node: usize) -> Option<f64> {
        self.sum_readouts[node].counter.estimate()
    }

    /// Relays the min-id dissemination, then reads every node out: the
    /// coordinator shadows only the identifiers (the min-id update rule is
    /// trivially mirrored per exchange) to evaluate the convergence
    /// predicate, and cross-checks them and the winning payloads against
    /// the nodes' own states.
    fn disseminate<R: Rng + ?Sized>(
        &mut self,
        session: &Session<'_, '_, B>,
        corrections: &[NoiseCorrection],
        reference: usize,
        rng: &mut R,
    ) -> (NoiseCorrection, PhaseCost) {
        let population = self.links.len();
        for (node, link) in self.links.iter_mut().enumerate() {
            let c = &corrections[node];
            let payload = encode_correction(c.id, &c.sum_correction, &c.count_correction);
            send(link, node, NodeEvent::CorrectionProposal { payload });
        }
        let mut ids: Vec<u64> = corrections.iter().map(|c| c.id).collect();
        let mut metrics = ExchangeMetrics::default();
        // `run_until` semantics: predicate before each round, then one
        // final evaluation when the budget is exhausted.
        let mut satisfied = false;
        for _ in 0..session.exchanges {
            if ids.iter().all(|&id| id == ids[0]) {
                satisfied = true;
                break;
            }
            let online = session.churn.sample_mask(population, rng);
            for (initiator, contact) in plan_round_with_mask(population, &online, rng) {
                relay_exchange(self.links, Phase::Correction, initiator, contact);
                let merged = ids[initiator].min(ids[contact]);
                ids[initiator] = merged;
                ids[contact] = merged;
                metrics.record_exchange();
            }
            metrics.record_round();
        }
        let converged = satisfied || ids.iter().all(|&id| id == ids[0]);

        let mut readouts: Vec<Readout<B>> =
            (0..population).map(|node| self.readout(session, node, node == reference)).collect();
        let winner_id = *ids.iter().min().expect("non-empty population");
        let mut winning_payload: Option<&[f64]> = None;
        for (node, readout) in readouts.iter().enumerate() {
            let (id, payload) = readout.correction.as_ref().expect("every node holds a correction state");
            assert_eq!(*id, ids[node], "the coordinator's shadow ids must match the nodes'");
            if *id == winner_id {
                match winning_payload {
                    None => winning_payload = Some(payload),
                    Some(expected) => assert_eq!(
                        &payload[..],
                        expected,
                        "every node holding the winning identifier must carry the same payload"
                    ),
                }
            }
        }
        let winning_row = winning_payload.expect("the winning identifier is held somewhere");
        let kn = session.run.params.k * session.run.data.series_length();
        let winner = NoiseCorrection {
            id: winner_id,
            sum_correction: winning_row[..kn].to_vec(),
            count_correction: winning_row[kn..].to_vec(),
        };
        self.reference_units = readouts
            .swap_remove(reference)
            .units
            .expect("the reference node reports its accumulated units");
        (winner, PhaseCost { metrics, converged, sim_time: 0.0, peak_in_flight: 0 })
    }

    fn reference_sums(&self, _reference: usize) -> ReferenceSums<'_, B> {
        ReferenceSums::Units(&self.reference_units)
    }

    fn take_faults(&mut self) -> Option<FaultStats> {
        None
    }
}

impl<T: Transport, B: CipherBackend> LinksDriver<'_, T, B> {
    /// Requests and decodes one node's end-of-phase readout.
    fn readout(&mut self, session: &Session<'_, '_, B>, node: usize, include_units: bool) -> Readout<B> {
        let link = &mut self.links[node];
        send(link, node, NodeEvent::ReadoutRequest { include_units });
        let frame = link
            .recv()
            .unwrap_or_else(|e| panic!("receiving node {node}'s readout failed: {e}"));
        match NodeEvent::from_frame(&frame).expect("a readout reply decodes") {
            NodeEvent::ReadoutReply { payload } => decode_readout::<B>(
                &session.device.backend,
                &payload,
                session.run.params.k,
                session.run.data.series_length(),
            ),
            other => panic!("expected a readout reply from node {node}, got {other:?}"),
        }
    }
}

/// Sends one coordinator-originated event down a node's link.
fn send<T: Transport>(link: &mut T, node: usize, event: NodeEvent) {
    link.send(&event.into_frame(COORDINATOR, node as NodeId))
        .unwrap_or_else(|e| panic!("sending to node {node} failed: {e}"));
}

/// Runs one phase's gossip rounds: the round engine's exact schedule, each
/// exchange relayed through the star as a request/reply pair.
fn run_gossip_rounds<T: Transport, R: Rng + ?Sized>(
    links: &mut [T],
    phase: Phase,
    rounds: u32,
    churn: &ChurnModel,
    rng: &mut R,
) -> PhaseCost {
    let population = links.len();
    let mut metrics = ExchangeMetrics::default();
    for _ in 0..rounds {
        let online = churn.sample_mask(population, rng);
        for (initiator, contact) in plan_round_with_mask(population, &online, rng) {
            relay_exchange(links, phase, initiator, contact);
            metrics.record_exchange();
        }
        metrics.record_round();
    }
    PhaseCost { metrics, converged: true, sim_time: 0.0, peak_in_flight: 0 }
}

/// Delivers one planned exchange: tell the initiator to start, route its
/// request to the contact, route the merged reply back.  Strict lockstep —
/// the coordinator never interleaves two exchanges, exactly like the
/// in-place engine's sequential pair updates.
fn relay_exchange<T: Transport>(links: &mut [T], phase: Phase, initiator: usize, contact: usize) {
    send(
        &mut links[initiator],
        initiator,
        NodeEvent::InitiateExchange { phase, contact: contact as NodeId },
    );
    let request = links[initiator]
        .recv()
        .unwrap_or_else(|e| panic!("receiving node {initiator}'s exchange request failed: {e}"));
    assert_eq!(request.to, contact as NodeId, "the initiator must address its planned contact");
    links[contact]
        .send(&request)
        .unwrap_or_else(|e| panic!("routing to node {contact} failed: {e}"));
    let reply = links[contact]
        .recv()
        .unwrap_or_else(|e| panic!("receiving node {contact}'s exchange reply failed: {e}"));
    assert_eq!(reply.to, initiator as NodeId, "the contact must reply to the initiator");
    links[initiator]
        .send(&reply)
        .unwrap_or_else(|e| panic!("routing to node {initiator} failed: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use chiaroscuro_crypto::backend::{BackendSetup, DamgardJurik};
    use chiaroscuro_node::Actor;
    use chiaroscuro_timeseries::{TimeSeries, TimeSeriesSet, ValueRange};
    use crate::config::ChiaroscuroParams;
    use chiaroscuro_dp::budget::BudgetStrategy;

    fn tiny_setup(lane_packing: bool) -> (TimeSeriesSet, ChiaroscuroParams) {
        let series = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    TimeSeries::constant(4, 12.0)
                } else {
                    TimeSeries::constant(4, 68.0)
                }
            })
            .collect();
        let data = TimeSeriesSet::new(series, ValueRange::new(0.0, 80.0));
        let params = ChiaroscuroParams::builder()
            .k(2)
            .max_iterations(2)
            .key_bits(256)
            .key_share_threshold(3)
            .num_noise_shares(10)
            .exchanges(8)
            .epsilon(40.0)
            .lane_packing(lane_packing)
            .strategy(BudgetStrategy::UniformFast { max_iterations: 2 })
            .build();
        (data, params)
    }

    /// Satellite honesty check for `MeansWireModel`/network stats under a
    /// socket transport: the modeled per-message byte figure
    /// (`sum_payload_ciphertexts × unit_bytes + MEANS_FRAME_OVERHEAD_BYTES`)
    /// must equal the encoded length of the frame a provisioned actor
    /// *actually* produces for a means exchange — measured here by driving
    /// a real actor through Hello → IterationStart → InitiateExchange and
    /// encoding the resulting `ExchangeRequest`.
    #[test]
    fn modeled_socket_payload_bytes_match_an_actual_means_frame() {
        for lane_packing in [false, true] {
            let (data, params) = tiny_setup(lane_packing);
            let run = DistributedRun::<DamgardJurik>::with_backend(params.clone(), &data);
            let packing = run.plan_packing();
            let mut rng = StdRng::seed_from_u64(5);
            let setup = BackendSetup {
                key_bits: params.key_bits,
                damgard_jurik_s: params.damgard_jurik_s,
                population: data.len(),
                key_share_threshold: params.key_share_threshold,
                packed_layout: packing.as_ref().map(|p| p.layout()),
            };
            let backend = DamgardJurik::setup(&setup, &mut rng);
            let n = data.series_length();
            let k = params.k;

            let spec = NodeSpec {
                k: k as u32,
                series_length: n as u32,
                encoding_digits: params.encoding_digits,
                num_noise_shares: params.num_noise_shares as u32,
                packing: run.packing_budget().map(|b| (params.packing_capacity_bits(), b)),
                public: backend.export_public(),
                series: data.series()[0].values().to_vec(),
            };
            let mut actor = ChiaroscuroNodeActor::<DamgardJurik>::new(0);
            assert!(actor.on_event(COORDINATOR, NodeEvent::Hello { config: spec.encode() }).is_empty());
            let centroids_flat: Vec<f64> =
                data.series()[..k].iter().flat_map(|c| c.values().iter().copied()).collect();
            let inputs = IterationInputs {
                participant_seed: 99,
                sum_scale: 1.5,
                count_scale: 0.5,
                centroids_flat,
            };
            actor.on_event(COORDINATOR, NodeEvent::IterationStart { payload: inputs.encode() });
            let mut replies = actor
                .on_event(COORDINATOR, NodeEvent::InitiateExchange { phase: Phase::Means, contact: 1 });
            assert_eq!(replies.len(), 1);
            let (to, request) = replies.remove(0);
            assert_eq!(to, 1);
            let frame = request.into_frame(0, to);

            let entries = k * (n + 1);
            let ciphertexts = match &packing {
                Some(packer) => 2 * packer.ciphertexts_for(entries) + 1,
                None => 2 * entries,
            };
            let modeled = ciphertexts * backend.unit_bytes() + MEANS_FRAME_OVERHEAD_BYTES;
            assert_eq!(
                frame.encoded_len(),
                modeled,
                "modeled socket payload must equal the transmitted frame (lane_packing: {lane_packing})"
            );
        }
    }
}
