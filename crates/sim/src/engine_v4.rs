//! The frozen v4 engine: pointer-rich per-switch state (`SwitchState` with
//! nested `Vec<Vec<InputVc>>`), kept byte-for-byte as the A/B baseline the
//! data-oriented v5 engine in [`crate::engine`] is proven against and the
//! layout `surepath bench` measures. Do not optimise this module.
//!
//! It also carries the even older exhaustive-scan scheduler (`set_full_scan`)
//! and its scan-equivalence tests, so the whole lineage v3 -> v4 -> v5 stays
//! A/B testable from one binary.
use crate::config::SimConfig;
use crate::metrics::{BatchMetrics, MeasuredCounters, RateMetrics, ThroughputSample};
use crate::obs::{Counter, CounterRegistry, PacketTracer, TraceEvent, TraceEventKind};
use crate::packet::Packet;
use crate::rng_contract::{sample_without_replacement, RngContract};
use crate::server::{GenerationMode, ServerState};
use crate::switch::{OutputKind, StagedPacket, SwitchState};
use crate::traffic::{ServerLayout, TrafficPattern};
use hyperx_routing::{Candidate, NetworkView, RouteScratch, RoutingMechanism};
use rand::distributions::Binomial;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A timed event travelling between switches or towards a server.
#[derive(Debug)]
enum Event {
    /// A packet finishes crossing a link and lands in an input VC.
    Arrival {
        switch: usize,
        port: usize,
        vc: usize,
        packet: Packet,
    },
    /// A packet finishes its ejection link and is consumed by its server.
    Delivery { packet: Packet },
}

/// One output request produced by a head packet.
#[derive(Debug, Clone, Copy)]
struct Request {
    in_port: usize,
    in_vc: usize,
    out_port: usize,
    out_vc: usize,
    /// `Q + P` in phits.
    score: u64,
    /// The routing candidate behind the request (`None` for ejection).
    candidate: Option<Candidate>,
}

/// A deterministic dirty set of indices (switches, or servers for the
/// generation stage).
///
/// The active-set scheduler must visit members in exactly the order the
/// exhaustive scan would (ascending index — RNG draws happen per member in
/// that order), so this is a sorted list plus a membership bitmap:
/// insertion is O(1) amortised (pending insertions merge in one in-place
/// backward merge per cycle), iteration is the sorted list, and removal
/// happens during the caller's sweep. No allocations at steady state.
#[derive(Debug)]
struct ActiveSet {
    /// Membership bitmap; prevents duplicate insertions.
    member: Vec<bool>,
    /// Sorted active indices (the iteration order).
    list: Vec<usize>,
    /// Insertions since the last merge, unsorted.
    added: Vec<usize>,
}

impl ActiveSet {
    fn new(n: usize) -> Self {
        ActiveSet {
            member: vec![false; n],
            list: Vec::new(),
            added: Vec::new(),
        }
    }

    /// Marks `idx` active; no-op if it already is.
    fn insert(&mut self, idx: usize) {
        if !self.member[idx] {
            self.member[idx] = true;
            self.added.push(idx);
        }
    }

    /// Folds pending insertions into the sorted list (in place, backwards).
    fn merge_added(&mut self) {
        if self.added.is_empty() {
            return;
        }
        self.added.sort_unstable();
        let old_len = self.list.len();
        self.list.extend_from_slice(&self.added);
        let mut i = old_len;
        let mut j = self.added.len();
        let mut k = self.list.len();
        while i > 0 && j > 0 {
            k -= 1;
            if self.list[i - 1] > self.added[j - 1] {
                self.list[k] = self.list[i - 1];
                i -= 1;
            } else {
                self.list[k] = self.added[j - 1];
                j -= 1;
            }
        }
        while j > 0 {
            k -= 1;
            j -= 1;
            self.list[k] = self.added[j];
        }
        self.added.clear();
    }
}

/// The cycle-level simulator.
pub struct SimulatorV4 {
    cfg: SimConfig,
    view: Arc<NetworkView>,
    mechanism: Box<dyn RoutingMechanism>,
    pattern: Box<dyn TrafficPattern>,
    layout: ServerLayout,
    switches: Vec<SwitchState>,
    servers: Vec<ServerState>,
    /// Event wheel indexed by `cycle % wheel.len()`.
    wheel: Vec<Vec<Event>>,
    rng: ChaCha8Rng,
    cycle: u64,
    next_packet_id: u64,
    /// Packets created and not yet delivered (source queues + network).
    packets_alive: u64,
    total_generated: u64,
    total_delivered: u64,
    counters: MeasuredCounters,
    measuring: bool,
    /// Crate-visible so the v5 `layout_equivalence` tests can drive both
    /// engines cycle by cycle under the same generation mode.
    pub(crate) generation: GenerationMode,
    last_progress: u64,
    progress_this_cycle: bool,
    stalled: bool,
    radix: usize,
    /// Delivered phits since the last batch sample (Figure 10 curve).
    window_delivered_phits: u64,
    /// Switches with at least one buffered input packet: the only switches
    /// the allocator needs to visit.
    alloc_active: ActiveSet,
    /// Switches with at least one staged packet: the only switches the
    /// transmit stage needs to visit.
    xmit_active: ActiveSet,
    /// Buffered input packets per switch (all ports and VCs).
    input_occupancy: Vec<u32>,
    /// Staged output packets per switch (all ports).
    staged_count: Vec<u32>,
    /// Servers with generation work or source-queue backlog: the only
    /// servers batch mode and rate contract v2 visit. (Rate contract v1
    /// scans every server — its per-server draw order is the frozen
    /// contract.)
    server_live: ActiveSet,
    /// Rebuild `server_live` from scratch before the next batch-mode cycle
    /// (set whenever quotas are handed out or zeroed).
    server_live_dirty: bool,
    /// Rate contract v2: per-server cycle stamp marking membership in this
    /// cycle's sampled injector set (`cycle + 1`; never needs clearing).
    sampled_at: Vec<u64>,
    /// Rate contract v2 scratch: this cycle's sampled injectors.
    sampled_scratch: Vec<usize>,
    /// Rate contract v2: the counting sampler, rebuilt when the per-trial
    /// probability changes (i.e. when the offered load changes).
    binomial_cache: Option<(f64, Binomial)>,
    /// Scratch: requests of the switch being allocated.
    req_scratch: Vec<Request>,
    /// Scratch: `(score, tie-break, request index)` sort keys.
    keyed_scratch: Vec<(u64, u32, usize)>,
    /// Scratch: per-output grants of the switch being allocated.
    out_grants: Vec<usize>,
    /// Scratch: per-input grants of the switch being allocated.
    in_grants: Vec<usize>,
    /// Scratch: intermediate route lists of candidate computation.
    route_scratch: RouteScratch,
    /// Scratch: the head packet's candidate list, copied out of the per-VC
    /// cache so the borrow on the switch ends before scoring.
    cand_scratch: Vec<Candidate>,
    /// Fixed-slot observability counters: plain `u64` adds on the hot path,
    /// never fed back into any scheduling decision (zero-perturbation).
    obs: CounterRegistry,
    /// Optional packet-lifecycle tracer. `None` reduces every hook to one
    /// branch; enabling it must not change RNG draws or metrics bytes.
    tracer: Option<PacketTracer>,
    /// A/B baseline: when true, `step` runs the legacy exhaustive-scan
    /// scheduler (only settable under cfg(test) or the `full-scan` feature).
    #[cfg_attr(not(any(test, feature = "full-scan")), allow(dead_code))]
    full_scan: bool,
}

impl SimulatorV4 {
    /// Builds a simulator over `view` with the given routing mechanism and
    /// traffic pattern.
    ///
    /// # Panics
    /// Panics if the mechanism's VC count disagrees with the configuration.
    pub fn new(
        view: Arc<NetworkView>,
        mechanism: Box<dyn RoutingMechanism>,
        pattern: Box<dyn TrafficPattern>,
        cfg: SimConfig,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            mechanism.num_vcs(),
            cfg.num_vcs,
            "the routing mechanism uses {} VCs but the configuration says {}",
            mechanism.num_vcs(),
            cfg.num_vcs
        );
        let hx = view.hyperx();
        let layout = ServerLayout::new(hx, cfg.servers_per_switch);
        let radix = hx.switch_radix();
        let num_ports = radix + cfg.servers_per_switch;
        let switches = (0..hx.num_switches())
            .map(|s| {
                let mut kinds = Vec::with_capacity(num_ports);
                for p in 0..radix {
                    kinds.push(match view.network().neighbor(s, p) {
                        Some(nb) => OutputKind::Network {
                            next_switch: nb.switch,
                            next_input_port: nb.reverse_port,
                        },
                        None => OutputKind::Dead,
                    });
                }
                for o in 0..cfg.servers_per_switch {
                    kinds.push(OutputKind::Ejection {
                        server: layout.server_at(s, o),
                    });
                }
                SwitchState::new(num_ports, cfg.num_vcs, kinds)
            })
            .collect();
        let servers = (0..layout.num_servers())
            .map(|_| ServerState::new(u64::MAX))
            .collect();
        let wheel_len = (cfg.packet_length + cfg.link_latency + cfg.crossbar_latency + 4) as usize;
        let counters = MeasuredCounters::new(layout.num_servers());
        let num_switches = hx.num_switches();
        let num_servers = layout.num_servers();
        SimulatorV4 {
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cfg,
            view,
            mechanism,
            pattern,
            switches,
            servers,
            wheel: (0..wheel_len).map(|_| Vec::new()).collect(),
            cycle: 0,
            next_packet_id: 0,
            packets_alive: 0,
            total_generated: 0,
            total_delivered: 0,
            counters,
            measuring: false,
            generation: GenerationMode::Rate { offered_load: 0.0 },
            last_progress: 0,
            progress_this_cycle: false,
            stalled: false,
            radix,
            layout,
            window_delivered_phits: 0,
            alloc_active: ActiveSet::new(num_switches),
            xmit_active: ActiveSet::new(num_switches),
            input_occupancy: vec![0; num_switches],
            staged_count: vec![0; num_switches],
            server_live: ActiveSet::new(num_servers),
            server_live_dirty: true,
            sampled_at: vec![0; num_servers],
            sampled_scratch: Vec::new(),
            binomial_cache: None,
            req_scratch: Vec::new(),
            keyed_scratch: Vec::new(),
            out_grants: vec![0; num_ports],
            in_grants: vec![0; num_ports],
            route_scratch: RouteScratch::default(),
            cand_scratch: Vec::new(),
            obs: CounterRegistry::new(),
            tracer: None,
            full_scan: false,
        }
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The network view this simulator runs on.
    pub fn view(&self) -> &NetworkView {
        &self.view
    }

    /// Packets created and not yet delivered.
    pub fn packets_alive(&self) -> u64 {
        self.packets_alive
    }

    /// Packets delivered since the simulation started.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Packets generated since the simulation started.
    pub fn total_generated(&self) -> u64 {
        self.total_generated
    }

    /// Whether the stall watchdog has fired.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// Sum of packets buffered inside switches (inputs + staging), used by
    /// conservation tests.
    pub fn packets_in_switches(&self) -> usize {
        self.switches.iter().map(|s| s.buffered_packets()).sum()
    }

    /// The engine's observability counters (reset when measurement begins).
    pub fn obs(&self) -> &CounterRegistry {
        &self.obs
    }

    /// Installs (or removes) the packet-lifecycle tracer. Tracing is
    /// observation-only: enabling it never changes RNG draw order, metrics
    /// bytes, or store bytes — see the `obs_equivalence` tests.
    pub fn set_tracer(&mut self, tracer: Option<PacketTracer>) {
        self.tracer = tracer;
    }

    /// Takes the tracer (and its recorded events) out of the simulator.
    pub fn take_tracer(&mut self) -> Option<PacketTracer> {
        self.tracer.take()
    }

    /// Runs an open-loop (rate mode) experiment at `offered_load`
    /// phits/cycle/server: warmup, then a measurement window.
    pub fn run_rate(&mut self, offered_load: f64) -> RateMetrics {
        assert!(
            (0.0..=1.0).contains(&offered_load),
            "offered load is normalised to [0, 1] phits/cycle/server"
        );
        self.generation = GenerationMode::Rate { offered_load };
        for _ in 0..self.cfg.warmup_cycles {
            self.step();
        }
        self.begin_measurement();
        for _ in 0..self.cfg.measure_cycles {
            self.step();
            if self.stalled {
                break;
            }
        }
        self.counters.cycles = self.cfg.measure_cycles.min(self.counters.cycles.max(1));
        RateMetrics::from_counters(
            offered_load,
            self.cfg.packet_length,
            self.layout.num_servers(),
            &mut self.counters,
            self.packets_alive,
            self.stalled,
        )
    }

    /// Runs a closed-loop (batch mode) experiment: every server sends
    /// `packets_per_server` packets as fast as it can; the simulation runs to
    /// completion (or a stall). `sample_window` controls the granularity of
    /// the accepted-load curve (Figure 10).
    pub fn run_batch(&mut self, packets_per_server: u64, sample_window: u64) -> BatchMetrics {
        assert!(packets_per_server > 0 && sample_window > 0);
        self.generation = GenerationMode::Batch { packets_per_server };
        for server in &mut self.servers {
            server.remaining_quota = packets_per_server;
        }
        self.server_live_dirty = true;
        self.begin_measurement();
        let expected = packets_per_server * self.layout.num_servers() as u64;
        let mut samples = Vec::new();
        let mut completion = 0u64;
        while self.total_delivered < expected && !self.stalled {
            self.step();
            if self.cycle.is_multiple_of(sample_window) {
                samples.push(ThroughputSample {
                    cycle: self.cycle,
                    accepted_load: self.window_delivered_phits as f64
                        / (sample_window as f64 * self.layout.num_servers() as f64),
                });
                self.window_delivered_phits = 0;
            }
            if self.total_delivered >= expected {
                completion = self.cycle;
            }
        }
        if completion == 0 {
            completion = self.cycle;
        }
        // Final partial window, if any.
        if !self.cycle.is_multiple_of(sample_window) {
            let partial = self.cycle % sample_window;
            samples.push(ThroughputSample {
                cycle: self.cycle,
                accepted_load: self.window_delivered_phits as f64
                    / (partial as f64 * self.layout.num_servers() as f64),
            });
        }
        let average_latency = if self.counters.delivered_packets > 0 {
            self.counters.latency_sum as f64 / self.counters.delivered_packets as f64
        } else {
            0.0
        };
        BatchMetrics {
            completion_time: completion,
            delivered_packets: self.counters.delivered_packets,
            samples,
            average_latency,
            stalled: self.stalled,
            latency_hist: Some(std::mem::take(&mut self.counters.latency_hist)),
        }
    }

    /// Stops generating new packets and runs until everything in flight is
    /// delivered (or `max_cycles` elapse). Returns whether the network drained
    /// completely. Used by integration tests to verify packet conservation.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.generation = GenerationMode::Batch {
            packets_per_server: 0,
        };
        for server in &mut self.servers {
            server.remaining_quota = 0;
        }
        self.server_live_dirty = true;
        let deadline = self.cycle + max_cycles;
        while self.packets_alive > 0 && self.cycle < deadline && !self.stalled {
            self.step();
        }
        self.packets_alive == 0
    }

    fn begin_measurement(&mut self) {
        self.counters = MeasuredCounters::new(self.layout.num_servers());
        self.obs.reset();
        self.measuring = true;
        self.window_delivered_phits = 0;
    }

    /// Advances the simulation by one cycle.
    ///
    /// The scheduler is **active-set based**: allocation only visits switches
    /// with buffered input packets, transmission only visits switches with
    /// staged packets, and generation (batch mode, and rate mode under
    /// [`RngContract::V2Counting`]) only visits servers with remaining work —
    /// so a cycle's cost scales with live traffic, not network size. (Rate
    /// mode under the frozen [`RngContract::V1PerServer`] still scans every
    /// server: its per-server draw order is the contract.) The observable
    /// behaviour (RNG draw order, metrics, event timing) is identical to the
    /// exhaustive scan; see [`SimulatorV4::set_full_scan`] and the A/B
    /// equivalence tests.
    pub fn step(&mut self) {
        #[cfg(any(test, feature = "full-scan"))]
        if self.full_scan {
            self.step_full_scan();
            return;
        }
        self.progress_this_cycle = false;
        self.process_events();
        self.generate_and_inject();
        self.allocate();
        self.transmit();
        self.finish_step();
    }

    /// Measurement, watchdog and cycle bookkeeping shared by both schedulers.
    fn finish_step(&mut self) {
        if self.measuring {
            self.counters.cycles += 1;
        }
        if self.progress_this_cycle {
            self.last_progress = self.cycle;
        } else if self.packets_alive > 0 {
            self.obs.incr(Counter::BlockedCycles);
            if self.cycle - self.last_progress >= self.cfg.watchdog_cycles {
                self.stalled = true;
            }
        }
        self.cycle += 1;
    }

    /// Switches `step` to the legacy exhaustive-scan scheduler (the
    /// pre-active-set engine, kept as a frozen baseline). Only the
    /// `scan_equivalence` tests call it — `surepath bench` times the
    /// active-set path; call it before the first `step`.
    #[cfg(any(test, feature = "full-scan"))]
    pub fn set_full_scan(&mut self, enabled: bool) {
        self.full_scan = enabled;
    }

    /// One cycle of the frozen pre-refactor scheduler: exhaustive scans over
    /// every switch and port, per-cycle `Vec` allocations included — the
    /// independent implementation the `scan_equivalence` tests prove the
    /// active-set scheduler against, so it must stay faithful to the
    /// original, not get optimised.
    #[cfg(any(test, feature = "full-scan"))]
    fn step_full_scan(&mut self) {
        self.progress_this_cycle = false;
        self.process_events();
        let packet_length = self.cfg.packet_length;
        if let (GenerationMode::Rate { offered_load }, RngContract::V2Counting) =
            (self.generation, self.cfg.rng_contract)
        {
            // Contract v2 under the frozen scheduler: the same counting
            // draws, but the per-server visit is an exhaustive scan — an
            // independent implementation the active-set sweep is proven
            // byte-identical against.
            self.sample_injectors_v2(offered_load);
            for server in 0..self.layout.num_servers() {
                self.rate_v2_server_body(server, packet_length);
            }
        } else {
            for server in 0..self.layout.num_servers() {
                self.generate_and_inject_server(server, packet_length);
            }
        }
        // The frozen scheduler visits every switch in both stages; counting
        // those visits keeps the active-set occupancy counters comparable
        // across schedulers.
        self.obs
            .add(Counter::AllocSwitchVisits, self.switches.len() as u64);
        self.obs
            .add(Counter::XmitSwitchVisits, self.switches.len() as u64);
        for switch in 0..self.switches.len() {
            let requests = self.collect_requests_full(switch);
            self.apply_grants_full(switch, requests);
        }
        for switch in 0..self.switches.len() {
            self.transmit_switch(switch);
        }
        self.finish_step();
    }

    fn wheel_slot(&self, cycle: u64) -> usize {
        (cycle % self.wheel.len() as u64) as usize
    }

    fn schedule(&mut self, cycle: u64, event: Event) {
        debug_assert!(cycle > self.cycle, "events must be scheduled in the future");
        debug_assert!(
            cycle - self.cycle < self.wheel.len() as u64,
            "event beyond the wheel horizon"
        );
        let slot = self.wheel_slot(cycle);
        self.wheel[slot].push(event);
    }

    fn process_events(&mut self) {
        let slot = self.wheel_slot(self.cycle);
        let events = std::mem::take(&mut self.wheel[slot]);
        for event in events {
            match event {
                Event::Arrival {
                    switch,
                    port,
                    vc,
                    packet,
                } => {
                    if let Some(tracer) = &mut self.tracer {
                        tracer.record(TraceEvent {
                            cycle: self.cycle,
                            packet: packet.id,
                            kind: TraceEventKind::Hop,
                            switch: switch as u64,
                            hops: packet.state.hops as u64,
                            escape_hops: packet.escape_hops as u64,
                        });
                    }
                    let input = &mut self.switches[switch].inputs[port][vc];
                    debug_assert!(input.inflight > 0, "arrival without a reservation");
                    input.inflight -= 1;
                    debug_assert!(
                        input.queue.len() < self.cfg.input_buffer_packets,
                        "input VC overflow: the reservation protocol is broken"
                    );
                    input.queue.push_back(packet);
                    self.input_occupancy[switch] += 1;
                    self.alloc_active.insert(switch);
                    self.progress_this_cycle = true;
                }
                Event::Delivery { packet } => {
                    self.packets_alive -= 1;
                    self.total_delivered += 1;
                    self.progress_this_cycle = true;
                    if let Some(tracer) = &mut self.tracer {
                        tracer.record(TraceEvent {
                            cycle: self.cycle,
                            packet: packet.id,
                            kind: TraceEventKind::Deliver,
                            switch: packet.dst_switch as u64,
                            hops: packet.state.hops as u64,
                            escape_hops: packet.escape_hops as u64,
                        });
                    }
                    if self.measuring {
                        self.counters.delivered_packets += 1;
                        self.counters.delivered_phits += self.cfg.packet_length;
                        let lat = packet.latency_at(self.cycle);
                        self.counters.latency_sum += lat;
                        self.counters.latency_max = self.counters.latency_max.max(lat);
                        self.counters.latency_hist.record(lat);
                        self.counters.hop_sum += packet.state.hops as u64;
                        self.counters.escape_hop_sum += packet.escape_hops as u64;
                        if packet.escape_hops > 0 {
                            self.counters.delivered_via_escape += 1;
                        }
                        self.window_delivered_phits += self.cfg.packet_length;
                    }
                }
            }
        }
    }

    fn generate_and_inject(&mut self) {
        let packet_length = self.cfg.packet_length;
        match self.generation {
            GenerationMode::Rate { offered_load } => match self.cfg.rng_contract {
                // Contract v1 (frozen): one Bernoulli trial per server per
                // cycle, in ascending server order. The draw order is the
                // contract, so this path scans every server.
                RngContract::V1PerServer => {
                    for server in 0..self.layout.num_servers() {
                        self.generate_and_inject_server(server, packet_length);
                    }
                }
                // Contract v2: one binomial draw counts the cycle's
                // arrivals, a without-replacement sample places them, and
                // only live servers (sampled or backlogged) are visited —
                // O(traffic) instead of O(network).
                RngContract::V2Counting => {
                    self.sample_injectors_v2(offered_load);
                    self.sweep_live_servers(packet_length, Self::rate_v2_server_body, |sim, s| {
                        !sim.servers[s].source_queue.is_empty()
                    });
                }
            },
            // Batch mode: a server without quota or queued packets draws no
            // randomness and injects nothing, so only live servers are
            // visited. Activity is monotone decreasing mid-run (nothing
            // refills a quota), so the retain sweep suffices.
            GenerationMode::Batch { .. } => {
                if self.server_live_dirty {
                    self.rebuild_server_live();
                }
                self.sweep_live_servers(
                    packet_length,
                    Self::generate_and_inject_server,
                    |sim, s| !sim.servers[s].is_drained(),
                );
            }
        }
    }

    /// Rebuilds the live-server set from scratch (after batch quotas are
    /// handed out or zeroed).
    fn rebuild_server_live(&mut self) {
        self.server_live.member.iter_mut().for_each(|m| *m = false);
        self.server_live.list.clear();
        self.server_live.added.clear();
        for s in 0..self.layout.num_servers() {
            if !self.servers[s].is_drained() {
                self.server_live.member[s] = true;
                self.server_live.list.push(s);
            }
        }
        self.server_live_dirty = false;
    }

    /// The shared visitation helper of batch mode and rate contract v2:
    /// folds pending insertions into the live set, visits the live servers
    /// in ascending order running `body` on each, and drops the ones
    /// `retain` rejects afterwards.
    fn sweep_live_servers(
        &mut self,
        packet_length: u64,
        body: fn(&mut Self, usize, u64),
        retain: fn(&Self, usize) -> bool,
    ) {
        self.server_live.merge_added();
        let mut live = std::mem::take(&mut self.server_live.list);
        let mut keep = 0;
        for k in 0..live.len() {
            let server = live[k];
            body(self, server, packet_length);
            if retain(self, server) {
                live[keep] = server;
                keep += 1;
            } else {
                self.server_live.member[server] = false;
            }
        }
        live.truncate(keep);
        self.server_live.list = live;
    }

    /// Rate contract v2, step 1: draws `k ~ Binomial(n_servers, p)`, samples
    /// the `k` injecting servers without replacement (stamping `sampled_at`
    /// with `cycle + 1`), and marks them live so the sweep visits them.
    fn sample_injectors_v2(&mut self, offered_load: f64) {
        if offered_load <= 0.0 {
            return;
        }
        let n = self.layout.num_servers();
        let p = offered_load / self.cfg.packet_length as f64;
        match &self.binomial_cache {
            Some((cached_p, _)) if *cached_p == p => {}
            _ => self.binomial_cache = Some((p, Binomial::new(n as u64, p))),
        }
        let binomial = self.binomial_cache.as_ref().unwrap().1;
        let k = binomial.sample(&mut self.rng) as usize;
        self.obs.incr(Counter::BinomialDraws);
        sample_without_replacement(
            &mut self.rng,
            n,
            k,
            &mut self.sampled_at,
            self.cycle + 1,
            &mut self.sampled_scratch,
        );
        for i in 0..self.sampled_scratch.len() {
            let server = self.sampled_scratch[i];
            self.server_live.insert(server);
        }
    }

    /// Rate contract v2, step 2 (per live server): generation happens only
    /// on the servers the counting sampler picked this cycle; injection runs
    /// for every live server.
    fn rate_v2_server_body(&mut self, server: usize, packet_length: u64) {
        if self.sampled_at[server] == self.cycle + 1 {
            self.admit_packet(server);
        }
        self.inject_server(server, packet_length);
    }

    /// Generation + injection of one server: the per-server body shared by
    /// both schedulers, batch mode and rate contract v1.
    fn generate_and_inject_server(&mut self, server: usize, packet_length: u64) {
        let wants_packet = match self.generation {
            GenerationMode::Rate { offered_load } => {
                offered_load > 0.0 && self.rng.gen::<f64>() < offered_load / packet_length as f64
            }
            GenerationMode::Batch { .. } => self.servers[server].remaining_quota > 0,
        };
        if wants_packet {
            self.admit_packet(server);
        }
        self.inject_server(server, packet_length);
    }

    /// Admits one new packet into `server`'s source queue, drawing its
    /// destination and routing state — or, if the queue is full, counts the
    /// lost generation opportunity in `generation_blocked`. A v2 sampled
    /// server against a full queue loses its opportunity exactly like a v1
    /// Bernoulli success against a full queue: in both contracts this is
    /// what depresses the Jain index at saturation.
    fn admit_packet(&mut self, server: usize) {
        if self.servers[server].source_queue.len() < self.cfg.source_queue_packets {
            let dst = self.pattern.destination(server, &mut self.rng);
            debug_assert!(dst < self.layout.num_servers());
            let src_switch = self.layout.server_switch(server);
            let dst_switch = self.layout.server_switch(dst);
            let state = self
                .mechanism
                .init_packet(src_switch, dst_switch, &mut self.rng);
            let packet = Packet::new(
                self.next_packet_id,
                server,
                dst,
                dst_switch,
                self.cycle,
                state,
            );
            self.next_packet_id += 1;
            self.packets_alive += 1;
            self.total_generated += 1;
            if self.measuring {
                self.counters.generated_per_server[server] += 1;
            }
            if let GenerationMode::Batch { .. } = self.generation {
                self.servers[server].remaining_quota -= 1;
            }
            if let Some(tracer) = &mut self.tracer {
                tracer.record(TraceEvent {
                    cycle: self.cycle,
                    packet: packet.id,
                    kind: TraceEventKind::Inject,
                    switch: src_switch as u64,
                    hops: 0,
                    escape_hops: 0,
                });
            }
            self.servers[server].source_queue.push_back(packet);
        } else if self.measuring {
            self.counters.generation_blocked += 1;
        }
    }

    /// Injection of `server`'s head packet over its server-to-switch link
    /// (no randomness: every server has a dedicated switch input port).
    fn inject_server(&mut self, server: usize, packet_length: u64) {
        if self.servers[server].injection_busy_until > self.cycle
            || self.servers[server].source_queue.is_empty()
        {
            return;
        }
        let sw = self.layout.server_switch(server);
        let in_port = self.radix + self.layout.server_offset(server);
        let vc = 0usize;
        if self.switches[sw].inputs[in_port][vc].free_slots(self.cfg.input_buffer_packets) == 0 {
            return;
        }
        let mut packet = self.servers[server].source_queue.pop_front().unwrap();
        packet.injected_at = self.cycle;
        self.switches[sw].inputs[in_port][vc].inflight += 1;
        self.servers[server].injection_busy_until = self.cycle + packet_length;
        let arrive = self.cycle + packet_length + self.cfg.link_latency;
        self.schedule(
            arrive,
            Event::Arrival {
                switch: sw,
                port: in_port,
                vc,
                packet,
            },
        );
        self.progress_this_cycle = true;
    }

    /// The `Q` term of the paper's allocation rule, in packets: output staging
    /// occupancy plus the consumed credits of every VC of the requested port,
    /// counting the requested VC twice.
    fn request_q(&self, switch: usize, out_port: usize, out_vc: usize) -> u64 {
        let out = &self.switches[switch].outputs[out_port];
        let staging = out.staging.len() as u64;
        match out.kind {
            OutputKind::Network {
                next_switch,
                next_input_port,
            } => {
                let port = &self.switches[next_switch].inputs[next_input_port];
                let all: u64 = port.iter().map(|vc| vc.occupancy() as u64).sum();
                staging + all + port[out_vc].occupancy() as u64
            }
            OutputKind::Ejection { .. } => staging * 2,
            OutputKind::Dead => u64::MAX / 2,
        }
    }

    /// Fills `out` with the requests of `switch`'s head packets, reusing the
    /// per-VC candidate cache (candidate lists are pure functions of the
    /// head packet's routing state, so a blocked head's list is computed
    /// once, not once per cycle) and the simulator's scratch buffers — no
    /// allocations at steady state.
    fn collect_requests_into(&mut self, switch: usize, out: &mut Vec<Request>) {
        let num_ports = self.switches[switch].inputs.len();
        for in_port in 0..num_ports {
            for in_vc in 0..self.cfg.num_vcs {
                let Some(head) = self.switches[switch].inputs[in_port][in_vc].queue.front() else {
                    continue;
                };
                // Ejection: the packet has reached its destination switch.
                if head.dst_switch == switch {
                    let out_port = self.radix + self.layout.server_offset(head.dst_server);
                    let output = &self.switches[switch].outputs[out_port];
                    if output.staging_has_room(self.cfg.output_buffer_packets, 0) {
                        out.push(Request {
                            in_port,
                            in_vc,
                            out_port,
                            out_vc: 0,
                            score: self.request_q(switch, out_port, 0) * self.cfg.packet_length,
                            candidate: None,
                        });
                    }
                    continue;
                }
                let (head_id, head_state) = (head.id, head.state);
                // Routing: compute (or reuse) the head's candidate list. The
                // cache is keyed by packet id and invalidated whenever the
                // head is popped, and candidate lists are pure functions of
                // (state, switch), so reuse is observably identical to
                // recomputation.
                {
                    let vc_state = &mut self.switches[switch].inputs[in_port][in_vc];
                    if vc_state.cached_for != Some(head_id) {
                        self.obs.incr(Counter::CandCacheMisses);
                        vc_state.cached_for = Some(head_id);
                        let cache = &mut vc_state.cached_candidates;
                        cache.clear();
                        self.mechanism.candidates_into(
                            &head_state,
                            switch,
                            &mut self.route_scratch,
                            cache,
                        );
                    } else {
                        self.obs.incr(Counter::CandCacheHits);
                    }
                }
                self.cand_scratch.clear();
                self.cand_scratch.extend_from_slice(
                    &self.switches[switch].inputs[in_port][in_vc].cached_candidates,
                );
                // Single request to the best candidate that satisfies flow control.
                let mut best: Option<Request> = None;
                for cand in &self.cand_scratch {
                    let output = &self.switches[switch].outputs[cand.port];
                    let OutputKind::Network {
                        next_switch,
                        next_input_port,
                    } = output.kind
                    else {
                        continue;
                    };
                    if !output.staging_has_room(self.cfg.output_buffer_packets, 0) {
                        continue;
                    }
                    // Pick the VC of the allowed range with the most free space.
                    let mut chosen: Option<(usize, usize)> = None; // (free, vc)
                    for vc in cand.vcs.iter() {
                        if vc >= self.cfg.num_vcs {
                            continue;
                        }
                        let free = self.switches[next_switch].inputs[next_input_port][vc]
                            .free_slots(self.cfg.input_buffer_packets);
                        if free > 0 && chosen.is_none_or(|(best_free, _)| free > best_free) {
                            chosen = Some((free, vc));
                        }
                    }
                    let Some((_, vc)) = chosen else {
                        continue;
                    };
                    let score = self.request_q(switch, cand.port, vc) * self.cfg.packet_length
                        + cand.penalty as u64;
                    if best.as_ref().is_none_or(|b| score < b.score) {
                        best = Some(Request {
                            in_port,
                            in_vc,
                            out_port: cand.port,
                            out_vc: vc,
                            score,
                            candidate: Some(*cand),
                        });
                    }
                }
                if let Some(req) = best {
                    out.push(req);
                }
            }
        }
    }

    /// Applies the allocation rule to `requests`: random tie-break, then
    /// lowest score first, up to `crossbar_speedup` grants per output and
    /// input port. Reuses the simulator's scratch sort keys and grant
    /// counters — no allocations at steady state.
    fn apply_grants(&mut self, switch: usize, requests: &[Request]) {
        if requests.is_empty() {
            return;
        }
        self.obs.add(Counter::AllocRequests, requests.len() as u64);
        // Random tie-break, then lowest score first per output port.
        let mut keyed = std::mem::take(&mut self.keyed_scratch);
        keyed.clear();
        {
            let rng = &mut self.rng;
            keyed.extend(
                requests
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.score, rng.gen::<u32>(), i)),
            );
        }
        keyed.sort_unstable();
        let num_ports = self.switches[switch].outputs.len();
        let speedup = self.cfg.crossbar_speedup;
        let mut out_grants = std::mem::take(&mut self.out_grants);
        let mut in_grants = std::mem::take(&mut self.in_grants);
        out_grants.clear();
        out_grants.resize(num_ports, 0);
        in_grants.clear();
        in_grants.resize(num_ports, 0);
        let crossbar_time = self.cfg.crossbar_latency
            + self
                .cfg
                .packet_length
                .div_ceil(self.cfg.crossbar_speedup as u64);
        for &(_, _, idx) in &keyed {
            let req = requests[idx];
            if out_grants[req.out_port] >= speedup || in_grants[req.in_port] >= speedup {
                self.obs.incr(Counter::AllocConflicts);
                self.trace_block(switch, &req);
                continue;
            }
            if !self.switches[switch].outputs[req.out_port]
                .staging_has_room(self.cfg.output_buffer_packets, 0)
            {
                self.obs.incr(Counter::AllocConflicts);
                self.trace_block(switch, &req);
                continue;
            }
            // Re-check (and reserve) the downstream slot for network hops.
            if let OutputKind::Network {
                next_switch,
                next_input_port,
            } = self.switches[switch].outputs[req.out_port].kind
            {
                let free = self.switches[next_switch].inputs[next_input_port][req.out_vc]
                    .free_slots(self.cfg.input_buffer_packets);
                if free == 0 {
                    self.obs.incr(Counter::AllocConflicts);
                    self.trace_block(switch, &req);
                    continue;
                }
                self.switches[next_switch].inputs[next_input_port][req.out_vc].inflight += 1;
            }
            // Commit: move the packet from the input VC to the output staging buffer.
            let input = &mut self.switches[switch].inputs[req.in_port][req.in_vc];
            let mut packet = input
                .queue
                .pop_front()
                .expect("granted request without a head packet");
            input.invalidate_cache();
            self.input_occupancy[switch] -= 1;
            if let Some(cand) = &req.candidate {
                if let OutputKind::Network { next_switch, .. } =
                    self.switches[switch].outputs[req.out_port].kind
                {
                    self.mechanism
                        .note_hop(&mut packet.state, switch, next_switch, cand);
                    if cand.enters_escape() {
                        packet.escape_hops += 1;
                        self.obs.incr(Counter::EscapeGrants);
                    }
                }
            }
            self.obs.incr(Counter::AllocGrants);
            if let Some(tracer) = &mut self.tracer {
                tracer.record(TraceEvent {
                    cycle: self.cycle,
                    packet: packet.id,
                    kind: TraceEventKind::Grant,
                    switch: switch as u64,
                    hops: packet.state.hops as u64,
                    escape_hops: packet.escape_hops as u64,
                });
            }
            self.switches[switch].outputs[req.out_port]
                .staging
                .push_back(StagedPacket {
                    packet,
                    dst_vc: req.out_vc,
                    ready_at: self.cycle + crossbar_time,
                });
            self.staged_count[switch] += 1;
            self.xmit_active.insert(switch);
            out_grants[req.out_port] += 1;
            in_grants[req.in_port] += 1;
            self.progress_this_cycle = true;
        }
        self.keyed_scratch = keyed;
        self.out_grants = out_grants;
        self.in_grants = in_grants;
    }

    /// Records a `Block` trace event for the head packet behind a denied
    /// request. Pure observation: runs only when a tracer is installed and
    /// reads nothing that feeds back into scheduling.
    fn trace_block(&mut self, switch: usize, req: &Request) {
        if self.tracer.is_none() {
            return;
        }
        let Some(head) = self.switches[switch].inputs[req.in_port][req.in_vc]
            .queue
            .front()
        else {
            return;
        };
        let event = TraceEvent {
            cycle: self.cycle,
            packet: head.id,
            kind: TraceEventKind::Block,
            switch: switch as u64,
            hops: head.state.hops as u64,
            escape_hops: head.escape_hops as u64,
        };
        if let Some(tracer) = &mut self.tracer {
            tracer.record(event);
        }
    }

    /// Allocation stage: visits only the switches with buffered input
    /// packets, in ascending switch order (the same order the exhaustive
    /// scan grants in, so the RNG tie-break sequence is identical). Switches
    /// whose inputs drained are dropped from the active set.
    fn allocate(&mut self) {
        self.alloc_active.merge_added();
        let mut active = std::mem::take(&mut self.alloc_active.list);
        self.obs
            .add(Counter::AllocSwitchVisits, active.len() as u64);
        let mut keep = 0;
        for k in 0..active.len() {
            let switch = active[k];
            let mut requests = std::mem::take(&mut self.req_scratch);
            requests.clear();
            self.collect_requests_into(switch, &mut requests);
            self.apply_grants(switch, &requests);
            self.req_scratch = requests;
            if self.input_occupancy[switch] > 0 {
                active[keep] = switch;
                keep += 1;
            } else {
                self.alloc_active.member[switch] = false;
            }
        }
        active.truncate(keep);
        self.alloc_active.list = active;
    }

    /// Transmit stage: visits only the switches with staged packets, in
    /// ascending switch order so the event wheel receives arrivals in the
    /// same order the exhaustive scan would schedule them.
    fn transmit(&mut self) {
        self.xmit_active.merge_added();
        let mut active = std::mem::take(&mut self.xmit_active.list);
        self.obs.add(Counter::XmitSwitchVisits, active.len() as u64);
        let mut keep = 0;
        for k in 0..active.len() {
            let switch = active[k];
            self.transmit_switch(switch);
            if self.staged_count[switch] > 0 {
                active[keep] = switch;
                keep += 1;
            } else {
                self.xmit_active.member[switch] = false;
            }
        }
        active.truncate(keep);
        self.xmit_active.list = active;
    }

    /// Puts the ready staged packets of one switch onto their links; the
    /// per-switch transmit body shared by both schedulers.
    fn transmit_switch(&mut self, switch: usize) {
        let packet_length = self.cfg.packet_length;
        let link_latency = self.cfg.link_latency;
        for port in 0..self.switches[switch].outputs.len() {
            let out = &self.switches[switch].outputs[port];
            if out.link_busy_until > self.cycle {
                continue;
            }
            let Some(head) = out.staging.front() else {
                continue;
            };
            if head.ready_at > self.cycle {
                continue;
            }
            let kind = out.kind;
            let staged = self.switches[switch].outputs[port]
                .staging
                .pop_front()
                .unwrap();
            self.staged_count[switch] -= 1;
            self.switches[switch].outputs[port].link_busy_until = self.cycle + packet_length;
            let arrive = self.cycle + packet_length + link_latency;
            match kind {
                OutputKind::Network {
                    next_switch,
                    next_input_port,
                } => {
                    self.schedule(
                        arrive,
                        Event::Arrival {
                            switch: next_switch,
                            port: next_input_port,
                            vc: staged.dst_vc,
                            packet: staged.packet,
                        },
                    );
                }
                OutputKind::Ejection { .. } => {
                    self.schedule(
                        arrive,
                        Event::Delivery {
                            packet: staged.packet,
                        },
                    );
                }
                OutputKind::Dead => unreachable!("dead ports never receive grants"),
            }
            self.progress_this_cycle = true;
        }
    }

    /// The frozen pre-refactor request collection: exhaustive port/VC scan
    /// with per-cycle allocations and no candidate cache. This is the
    /// baseline `surepath bench` measures against — keep it faithful to the
    /// original, do not optimise it.
    #[cfg(any(test, feature = "full-scan"))]
    fn collect_requests_full(&self, switch: usize) -> Vec<Request> {
        let mut requests = Vec::new();
        let num_ports = self.switches[switch].inputs.len();
        let mut scratch: Vec<Candidate> = Vec::new();
        for in_port in 0..num_ports {
            for in_vc in 0..self.cfg.num_vcs {
                let Some(head) = self.switches[switch].inputs[in_port][in_vc].queue.front() else {
                    continue;
                };
                if head.dst_switch == switch {
                    let out_port = self.radix + self.layout.server_offset(head.dst_server);
                    let out = &self.switches[switch].outputs[out_port];
                    if out.staging_has_room(self.cfg.output_buffer_packets, 0) {
                        requests.push(Request {
                            in_port,
                            in_vc,
                            out_port,
                            out_vc: 0,
                            score: self.request_q(switch, out_port, 0) * self.cfg.packet_length,
                            candidate: None,
                        });
                    }
                    continue;
                }
                scratch.clear();
                self.mechanism.candidates(&head.state, switch, &mut scratch);
                let mut best: Option<Request> = None;
                for cand in &scratch {
                    let out = &self.switches[switch].outputs[cand.port];
                    let OutputKind::Network {
                        next_switch,
                        next_input_port,
                    } = out.kind
                    else {
                        continue;
                    };
                    if !out.staging_has_room(self.cfg.output_buffer_packets, 0) {
                        continue;
                    }
                    let mut chosen: Option<(usize, usize)> = None; // (free, vc)
                    for vc in cand.vcs.iter() {
                        if vc >= self.cfg.num_vcs {
                            continue;
                        }
                        let free = self.switches[next_switch].inputs[next_input_port][vc]
                            .free_slots(self.cfg.input_buffer_packets);
                        if free > 0 && chosen.is_none_or(|(best_free, _)| free > best_free) {
                            chosen = Some((free, vc));
                        }
                    }
                    let Some((_, vc)) = chosen else {
                        continue;
                    };
                    let score = self.request_q(switch, cand.port, vc) * self.cfg.packet_length
                        + cand.penalty as u64;
                    if best.as_ref().is_none_or(|b| score < b.score) {
                        best = Some(Request {
                            in_port,
                            in_vc,
                            out_port: cand.port,
                            out_vc: vc,
                            score,
                            candidate: Some(*cand),
                        });
                    }
                }
                if let Some(req) = best {
                    requests.push(req);
                }
            }
        }
        requests
    }

    /// The frozen pre-refactor grant application (allocates its sort keys
    /// and grant counters per call). The shared occupancy bookkeeping is
    /// kept up to date so the schedulers can be flipped safely.
    #[cfg(any(test, feature = "full-scan"))]
    fn apply_grants_full(&mut self, switch: usize, requests: Vec<Request>) {
        if requests.is_empty() {
            return;
        }
        self.obs.add(Counter::AllocRequests, requests.len() as u64);
        let mut keyed: Vec<(u64, u32, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| (r.score, self.rng.gen::<u32>(), i))
            .collect();
        keyed.sort_unstable();
        let num_ports = self.switches[switch].outputs.len();
        let speedup = self.cfg.crossbar_speedup;
        let mut out_grants = vec![0usize; num_ports];
        let mut in_grants = vec![0usize; num_ports];
        let crossbar_time = self.cfg.crossbar_latency
            + self
                .cfg
                .packet_length
                .div_ceil(self.cfg.crossbar_speedup as u64);
        for (_, _, idx) in keyed {
            let req = requests[idx];
            if out_grants[req.out_port] >= speedup || in_grants[req.in_port] >= speedup {
                self.obs.incr(Counter::AllocConflicts);
                self.trace_block(switch, &req);
                continue;
            }
            if !self.switches[switch].outputs[req.out_port]
                .staging_has_room(self.cfg.output_buffer_packets, 0)
            {
                self.obs.incr(Counter::AllocConflicts);
                self.trace_block(switch, &req);
                continue;
            }
            if let OutputKind::Network {
                next_switch,
                next_input_port,
            } = self.switches[switch].outputs[req.out_port].kind
            {
                let free = self.switches[next_switch].inputs[next_input_port][req.out_vc]
                    .free_slots(self.cfg.input_buffer_packets);
                if free == 0 {
                    self.obs.incr(Counter::AllocConflicts);
                    self.trace_block(switch, &req);
                    continue;
                }
                self.switches[next_switch].inputs[next_input_port][req.out_vc].inflight += 1;
            }
            let input = &mut self.switches[switch].inputs[req.in_port][req.in_vc];
            let mut packet = input
                .queue
                .pop_front()
                .expect("granted request without a head packet");
            input.invalidate_cache();
            self.input_occupancy[switch] -= 1;
            if let Some(cand) = &req.candidate {
                if let OutputKind::Network { next_switch, .. } =
                    self.switches[switch].outputs[req.out_port].kind
                {
                    self.mechanism
                        .note_hop(&mut packet.state, switch, next_switch, cand);
                    if cand.enters_escape() {
                        packet.escape_hops += 1;
                        self.obs.incr(Counter::EscapeGrants);
                    }
                }
            }
            self.obs.incr(Counter::AllocGrants);
            if let Some(tracer) = &mut self.tracer {
                tracer.record(TraceEvent {
                    cycle: self.cycle,
                    packet: packet.id,
                    kind: TraceEventKind::Grant,
                    switch: switch as u64,
                    hops: packet.state.hops as u64,
                    escape_hops: packet.escape_hops as u64,
                });
            }
            self.switches[switch].outputs[req.out_port]
                .staging
                .push_back(StagedPacket {
                    packet,
                    dst_vc: req.out_vc,
                    ready_at: self.cycle + crossbar_time,
                });
            self.staged_count[switch] += 1;
            self.xmit_active.insert(switch);
            out_grants[req.out_port] += 1;
            in_grants[req.in_port] += 1;
            self.progress_this_cycle = true;
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::UniformTraffic;
    use hyperx_routing::MechanismSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    mod scan_equivalence {
        use super::*;
        use crate::traffic::ServerLayout;
        use hyperx_topology::HyperX;

        fn build(
            spec: MechanismSpec,
            cfg: SimConfig,
            faults: usize,
            full_scan: bool,
        ) -> SimulatorV4 {
            let hx = HyperX::regular(2, 4);
            let view = if faults == 0 {
                Arc::new(NetworkView::healthy(hx, 0))
            } else {
                let mut fault_rng = ChaCha8Rng::seed_from_u64(11);
                let fault_set = hyperx_topology::FaultSet::random_connected_sequence(
                    hx.network(),
                    faults,
                    &mut fault_rng,
                );
                Arc::new(NetworkView::with_faults(hx, &fault_set, 0))
            };
            let mech = spec.build(view.clone(), cfg.num_vcs);
            let layout = ServerLayout::new(view.hyperx(), cfg.servers_per_switch);
            let pattern = Box::new(UniformTraffic::new(&layout));
            let mut sim = SimulatorV4::new(view, mech, pattern, cfg);
            sim.set_full_scan(full_scan);
            sim
        }

        fn rate_metrics_bytes(
            spec: MechanismSpec,
            cfg: SimConfig,
            faults: usize,
            load: f64,
            full_scan: bool,
        ) -> String {
            let mut sim = build(spec, cfg, faults, full_scan);
            let metrics = sim.run_rate(load);
            format!(
                "{metrics:?}|gen={}|del={}",
                sim.total_generated(),
                sim.total_delivered()
            )
        }

        #[test]
        fn rate_mode_identical_across_mechanisms_loads_and_contracts() {
            for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
                for spec in [
                    MechanismSpec::Minimal,
                    MechanismSpec::Valiant,
                    MechanismSpec::Polarized,
                    MechanismSpec::OmniSP,
                    MechanismSpec::PolSP,
                ] {
                    for load in [0.1, 0.5, 0.9] {
                        let mut cfg = SimConfig::quick(2, 4);
                        cfg.warmup_cycles = 200;
                        cfg.measure_cycles = 600;
                        cfg.seed = 42;
                        cfg.rng_contract = contract;
                        let a = rate_metrics_bytes(spec, cfg.clone(), 0, load, false);
                        let b = rate_metrics_bytes(spec, cfg, 0, load, true);
                        assert_eq!(a, b, "{spec:?} at load {load} ({contract}) diverged");
                    }
                }
            }
        }

        #[test]
        fn rate_mode_identical_under_faults_across_seeds_and_contracts() {
            for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
                for spec in [MechanismSpec::OmniSP, MechanismSpec::PolSP] {
                    for seed in [1u64, 7, 99] {
                        let mut cfg = SimConfig::quick(2, 4);
                        cfg.warmup_cycles = 200;
                        cfg.measure_cycles = 600;
                        cfg.seed = seed;
                        cfg.rng_contract = contract;
                        let a = rate_metrics_bytes(spec, cfg.clone(), 4, 0.6, false);
                        let b = rate_metrics_bytes(spec, cfg, 4, 0.6, true);
                        assert_eq!(
                            a, b,
                            "{spec:?} seed {seed} ({contract}) diverged under faults"
                        );
                    }
                }
            }
        }

        #[test]
        fn batch_mode_and_drain_identical() {
            let mut results = Vec::new();
            for full_scan in [false, true] {
                let mut cfg = SimConfig::quick(2, 4);
                cfg.seed = 5;
                let mut sim = build(MechanismSpec::PolSP, cfg, 2, full_scan);
                let metrics = sim.run_batch(4, 100);
                let drained = sim.drain(100_000);
                results.push(format!(
                    "{metrics:?}|drained={drained}|in_switches={}",
                    sim.packets_in_switches()
                ));
            }
            assert_eq!(results[0], results[1]);
        }

        #[test]
        fn cycle_by_cycle_state_identical_at_low_load() {
            // Beyond end-of-run metrics: the per-cycle observable state
            // (alive, generated, delivered) must match at every cycle,
            // under both RNG contracts.
            for contract in [RngContract::V1PerServer, RngContract::V2Counting] {
                let mut cfg = SimConfig::quick(2, 4);
                cfg.seed = 13;
                cfg.rng_contract = contract;
                let mut active = build(MechanismSpec::OmniSP, cfg.clone(), 3, false);
                let mut full = build(MechanismSpec::OmniSP, cfg, 3, true);
                active.generation = GenerationMode::Rate { offered_load: 0.2 };
                full.generation = GenerationMode::Rate { offered_load: 0.2 };
                for cycle in 0..2_000 {
                    active.step();
                    full.step();
                    assert_eq!(
                        (
                            active.packets_alive(),
                            active.total_generated(),
                            active.total_delivered(),
                            active.packets_in_switches()
                        ),
                        (
                            full.packets_alive(),
                            full.total_generated(),
                            full.total_delivered(),
                            full.packets_in_switches()
                        ),
                        "state diverged at cycle {cycle} ({contract})"
                    );
                }
            }
        }
    }
}
