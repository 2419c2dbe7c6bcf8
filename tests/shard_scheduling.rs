//! Property tests of the shard scheduling policy ([`FairQueue`]):
//! over arbitrary arrival sequences, frames dequeue in
//! [`DeadlineClass`] priority order, FIFO within every
//! (class, tenant) lane, and round-robin-fair across tenants — one
//! hot session never starves its shard-mates.
//!
//! The queue is modeled against a reference: per-lane FIFOs plus
//! per-class counts. Priority and FIFO are checked on every pop;
//! fairness is checked over the final drain (no concurrent pushes),
//! where round-robin implies any two tenants' served counts differ by
//! at most one for as long as both still have frames pending.

use gen_nerf_serve::{DeadlineClass, FairQueue};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

const N_TENANTS: u64 = 4;

fn class_of(code: u8) -> DeadlineClass {
    if code == 0 {
        DeadlineClass::Interactive
    } else {
        DeadlineClass::BestEffort
    }
}

/// Reference model: per-(class, tenant) FIFO of sequence numbers.
#[derive(Default)]
struct Model {
    lanes: HashMap<(u8, u64), VecDeque<u64>>,
    per_class: [usize; 2],
}

impl Model {
    fn push(&mut self, class: u8, tenant: u64, seq: u64) {
        self.lanes
            .entry((class, tenant))
            .or_default()
            .push_back(seq);
        self.per_class[class as usize] += 1;
    }

    fn top_class(&self) -> Option<u8> {
        self.per_class.iter().position(|&n| n > 0).map(|c| c as u8)
    }

    fn pop(&mut self, class: u8, tenant: u64) -> Option<u64> {
        let seq = self.lanes.get_mut(&(class, tenant))?.pop_front()?;
        self.per_class[class as usize] -= 1;
        Some(seq)
    }
}

/// Checks one pop against the model: class priority and lane FIFO.
fn check_pop(
    model: &mut Model,
    popped: Option<&(u8, u64, u64)>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match popped {
        None => {
            prop_assert_eq!(model.top_class(), None, "queue empty while model is not");
        }
        Some(&(class, tenant, seq)) => {
            prop_assert_eq!(
                Some(class),
                model.top_class(),
                "popped class {} while a higher-priority class was pending",
                class
            );
            let expected = model.pop(class, tenant);
            prop_assert_eq!(
                expected,
                Some(seq),
                "tenant {} lane reordered (class {})",
                tenant,
                class
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of pushes and pops, then a full drain:
    /// every dequeue honors class priority and per-lane FIFO, and the
    /// drain serves tenants round-robin (counts within one of each
    /// other while both have frames pending).
    #[test]
    fn prop_fair_queue_policy(
        ops in proptest::collection::vec(
            (0u64..N_TENANTS, 0u8..2, 0u8..4),
            1..120,
        ),
    ) {
        let mut q: FairQueue<(u8, u64, u64)> = FairQueue::new();
        let mut model = Model::default();
        let mut seq = 0u64;
        for &(tenant, class, action) in &ops {
            if action < 3 {
                // Three in four ops push (keeps the drain non-trivial).
                seq += 1;
                q.push(class_of(class), tenant, (class, tenant, seq));
                model.push(class, tenant, seq);
            } else {
                let popped = q.pop();
                check_pop(&mut model, popped.as_ref())?;
            }
            prop_assert_eq!(q.len(), model.per_class.iter().sum::<usize>());
        }

        // Full drain with no concurrent pushes: record the pop order
        // for the fairness check below.
        let mut pending: HashMap<(u8, u64), usize> = model
            .lanes
            .iter()
            .filter(|(_, lane)| !lane.is_empty())
            .map(|(&key, lane)| (key, lane.len()))
            .collect();
        let mut served: HashMap<(u8, u64), usize> = HashMap::new();
        while let Some(popped) = q.pop() {
            let (class, tenant, _) = popped;
            check_pop(&mut model, Some(&popped))?;
            *served.entry((class, tenant)).or_default() += 1;
            *pending.get_mut(&(class, tenant)).expect("lane known") -= 1;
            // Round-robin balance: while two tenants of the same class
            // both still have pending frames, their drain-served
            // counts never diverge by more than one.
            for (&(ca, ta), &left_a) in &pending {
                for (&(cb, tb), &left_b) in &pending {
                    if ca == cb && ta < tb && left_a > 0 && left_b > 0 {
                        let sa = *served.get(&(ca, ta)).unwrap_or(&0) as i64;
                        let sb = *served.get(&(cb, tb)).unwrap_or(&0) as i64;
                        prop_assert!(
                            (sa - sb).abs() <= 1,
                            "class {} tenants {} and {} diverged: served {} vs {}",
                            ca, ta, tb, sa, sb
                        );
                    }
                }
            }
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(model.top_class(), None, "drain left the model non-empty");
    }

    /// `pop_next` with an eligibility filter: ineligible lane heads
    /// park their whole tenant (no intra-lane reordering), eligible
    /// tenants still drain in policy order.
    #[test]
    fn prop_filter_never_reorders_a_lane(
        pushes in proptest::collection::vec((0u64..N_TENANTS, 0u8..2), 1..60),
        blocked in 0u64..N_TENANTS,
    ) {
        let mut q: FairQueue<(u8, u64, u64)> = FairQueue::new();
        let mut model = Model::default();
        for (i, &(tenant, class)) in pushes.iter().enumerate() {
            let seq = i as u64;
            q.push(class_of(class), tenant, (class, tenant, seq));
            model.push(class, tenant, seq);
        }
        // Drain everything the filter admits.
        while let Some((class, tenant, seq)) = q.pop_next(|&(_, t, _)| t != blocked) {
            prop_assert!(tenant != blocked, "blocked tenant was served");
            prop_assert_eq!(
                model.pop(class, tenant),
                Some(seq),
                "lane reordered under filtering"
            );
        }
        // Exactly the blocked tenant's frames remain, in FIFO order.
        let left: usize = model
            .lanes
            .iter()
            .filter(|(&(_, t), _)| t == blocked)
            .map(|(_, lane)| lane.len())
            .sum();
        prop_assert_eq!(q.len(), left);
        while let Some((class, tenant, seq)) = q.pop() {
            prop_assert_eq!(tenant, blocked);
            prop_assert_eq!(model.pop(class, tenant), Some(seq));
        }
    }

    /// `drain` hands the queue out in requeue-safe order: re-pushing
    /// the triples in order onto the same queue or a fresh one must be
    /// scheduling-invisible: pop-for-pop, the rebuilt
    /// queue (same object or a fresh one) serves the exact sequence
    /// the undisturbed queue would have — lanes intact, class priority
    /// intact, round-robin cursor intact.
    #[test]
    fn prop_drain_and_rebuild_is_scheduling_invisible(
        pushes in proptest::collection::vec((0u64..N_TENANTS, 0u8..2), 1..80),
        pre_pops in 0usize..80,
    ) {
        let mut undisturbed: FairQueue<(u8, u64, u64)> = FairQueue::new();
        let mut restarted: FairQueue<(u8, u64, u64)> = FairQueue::new();
        for (i, &(tenant, class)) in pushes.iter().enumerate() {
            let item = (class, tenant, i as u64);
            undisturbed.push(class_of(class), tenant, item);
            restarted.push(class_of(class), tenant, item);
        }
        // Serve a prefix on both, leaving the round-robin cursors
        // mid-ring (the interesting restart point).
        for _ in 0..pre_pops.min(pushes.len()) {
            prop_assert_eq!(undisturbed.pop(), restarted.pop());
        }
        // Restart: snapshot, then rebuild both documented ways.
        let snapshot = restarted.drain();
        prop_assert!(restarted.is_empty());
        let mut fresh: FairQueue<(u8, u64, u64)> = FairQueue::new();
        for &(class, tenant, item) in &snapshot {
            restarted.push(class, tenant, item);
            fresh.push(class, tenant, item);
        }
        loop {
            let expected = undisturbed.pop();
            prop_assert_eq!(restarted.pop(), expected, "rebuilt-in-place queue diverged");
            prop_assert_eq!(fresh.pop(), expected, "rebuilt-fresh queue diverged");
            if expected.is_none() {
                break;
            }
        }
    }

    /// A killed or wedged incarnation `push_front`s its popped head
    /// back. Interleaving such requeues into an
    /// arbitrary drain must never reorder a lane: every served frame
    /// is still its (class, tenant) lane's FIFO head, and nothing is
    /// lost or duplicated.
    #[test]
    fn prop_requeue_head_preserves_lane_fifo(
        pushes in proptest::collection::vec((0u64..N_TENANTS, 0u8..2), 1..60),
        requeue_every in 1usize..4,
    ) {
        let mut q: FairQueue<(u8, u64, u64)> = FairQueue::new();
        let mut model = Model::default();
        for (i, &(tenant, class)) in pushes.iter().enumerate() {
            q.push(class_of(class), tenant, (class, tenant, i as u64));
            model.push(class, tenant, i as u64);
        }
        // Drain, periodically simulating a condemn mid-frame: the
        // popped head goes back unexecuted via push_front (the model
        // never saw it leave). Budgeted so the drain terminates.
        let mut requeues_left = 5usize;
        let mut since_requeue = 0usize;
        while let Some(popped) = q.pop() {
            since_requeue += 1;
            if requeues_left > 0 && since_requeue >= requeue_every {
                since_requeue = 0;
                requeues_left -= 1;
                q.push_front(class_of(popped.0), popped.1, popped);
                continue;
            }
            check_pop(&mut model, Some(&popped))?;
        }
        prop_assert_eq!(model.top_class(), None, "requeue lost a frame");
    }
}

// ---------------------------------------------------------------------------
// Circuit-breaker state machine, modeled against an independent
// reference transcription of the spec: Closed windows outcomes and
// opens at the failure threshold (once `min_samples` are in), Open
// sheds every submission until the cooldown elapses, HalfOpen admits
// exactly `probe_quota` probes (in-flight + succeeded), closes when
// all succeed and re-opens the moment one fails. Virtual time — a
// `telemetry::Clock` advanced explicitly — makes every run
// deterministic.
// ---------------------------------------------------------------------------

mod breaker {
    use gen_nerf_serve::{BreakerAdmit, BreakerConfig, BreakerState, CircuitBreaker};
    use gen_nerf_telemetry::Clock;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::time::Duration;

    const WINDOW: usize = 8;
    const MIN_SAMPLES: usize = 4;
    /// The breaker's fixed failure-rate threshold.
    const THRESHOLD: f64 = 0.5;
    const COOLDOWN_MS: u64 = 500;
    const PROBE_QUOTA: u32 = 2;

    fn config() -> BreakerConfig {
        BreakerConfig {
            window: WINDOW,
            min_samples: MIN_SAMPLES,
            cooldown: Duration::from_millis(COOLDOWN_MS),
            probe_quota: PROBE_QUOTA,
        }
    }

    /// Reference model, written against the spec (not the
    /// implementation).
    enum ModelState {
        Closed { outcomes: VecDeque<bool> },
        Open { since_ms: u64 },
        HalfOpen { in_flight: u32, successes: u32 },
    }

    struct Model {
        state: ModelState,
        trips: u64,
    }

    impl Model {
        fn new() -> Self {
            Model {
                state: ModelState::Closed {
                    outcomes: VecDeque::new(),
                },
                trips: 0,
            }
        }

        fn state(&self) -> BreakerState {
            match self.state {
                ModelState::Closed { .. } => BreakerState::Closed,
                ModelState::Open { .. } => BreakerState::Open,
                ModelState::HalfOpen { .. } => BreakerState::HalfOpen,
            }
        }

        fn admit(&mut self, now_ms: u64) -> BreakerAdmit {
            match &mut self.state {
                ModelState::Closed { .. } => BreakerAdmit::Admit,
                ModelState::Open { since_ms } => {
                    if now_ms - *since_ms < COOLDOWN_MS {
                        BreakerAdmit::Shed
                    } else {
                        self.state = ModelState::HalfOpen {
                            in_flight: 1,
                            successes: 0,
                        };
                        BreakerAdmit::Probe
                    }
                }
                ModelState::HalfOpen {
                    in_flight,
                    successes,
                } => {
                    if *in_flight + *successes < PROBE_QUOTA {
                        *in_flight += 1;
                        BreakerAdmit::Probe
                    } else {
                        BreakerAdmit::Shed
                    }
                }
            }
        }

        fn record(&mut self, ok: bool, probe: bool, now_ms: u64) {
            match &mut self.state {
                ModelState::Closed { outcomes } => {
                    outcomes.push_back(ok);
                    while outcomes.len() > WINDOW {
                        outcomes.pop_front();
                    }
                    let n = outcomes.len();
                    let failures = outcomes.iter().filter(|&&o| !o).count();
                    if n >= MIN_SAMPLES && failures as f64 / n as f64 >= THRESHOLD {
                        self.state = ModelState::Open { since_ms: now_ms };
                        self.trips += 1;
                    }
                }
                ModelState::Open { .. } => {}
                ModelState::HalfOpen {
                    in_flight,
                    successes,
                } => {
                    if !probe {
                        return;
                    }
                    *in_flight = in_flight.saturating_sub(1);
                    if ok {
                        *successes += 1;
                        if *successes >= PROBE_QUOTA {
                            self.state = ModelState::Closed {
                                outcomes: VecDeque::new(),
                            };
                        }
                    } else {
                        self.state = ModelState::Open { since_ms: now_ms };
                        self.trips += 1;
                    }
                }
            }
        }

        fn abort_probe(&mut self) {
            if let ModelState::HalfOpen { in_flight, .. } = &mut self.state {
                *in_flight = in_flight.saturating_sub(1);
            }
        }
    }

    /// A config built as a struct literal is normalised like a built
    /// one: over a window of four, the default eight minimum samples
    /// can never be in the window, so the breaker counts four.
    #[test]
    fn a_struct_literal_window_below_min_samples_still_trips() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            window: 4,
            ..BreakerConfig::default()
        });
        let now = Clock::virtual_clock().now();
        for _ in 0..32 {
            if breaker.admit(now) == BreakerAdmit::Admit {
                breaker.record(false, false, now);
            }
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary submission/outcome/straggler sequences over
        /// virtual time: after every operation the breaker's state,
        /// admission verdict and trip count match the reference
        /// model — and the per-state laws hold (Open in cooldown
        /// always sheds, HalfOpen never admits past the probe quota,
        /// Closed always admits).
        #[test]
        fn prop_breaker_matches_reference_model(
            ops in proptest::collection::vec(
                (0u64..1200, 0u8..2, 0u8..4),
                1..150,
            ),
        ) {
            let clock = Clock::virtual_clock();
            let breaker = CircuitBreaker::new(config());
            let mut model = Model::new();
            let mut now_ms = 0u64;
            let mut probes_this_episode = 0u32;
            for &(advance, ok_bit, action) in &ops {
                let ok = ok_bit == 1;
                now_ms += advance;
                clock.advance(Duration::from_millis(advance));
                match action {
                    // A straggler outcome with no matching admission:
                    // windows while Closed, carries no signal
                    // otherwise.
                    3 => {
                        breaker.record(ok, false, clock.now());
                        model.record(ok, false, now_ms);
                    }
                    // A submission; action 2 abandons an admitted
                    // probe (abort path) instead of rendering it.
                    _ => {
                        let was = model.state();
                        if was == BreakerState::HalfOpen {
                            // Track quota within one HalfOpen episode.
                        } else {
                            probes_this_episode = 0;
                        }
                        let verdict = breaker.admit(clock.now());
                        let expected = model.admit(now_ms);
                        prop_assert_eq!(verdict, expected, "admit diverged at t={}ms", now_ms);
                        match was {
                            BreakerState::Closed => {
                                prop_assert_eq!(verdict, BreakerAdmit::Admit);
                            }
                            BreakerState::Open => {
                                // In cooldown: always shed. Past it:
                                // the submission is the first probe.
                                prop_assert!(verdict != BreakerAdmit::Admit);
                                if verdict == BreakerAdmit::Probe {
                                    probes_this_episode = 1;
                                }
                            }
                            BreakerState::HalfOpen => {
                                if verdict == BreakerAdmit::Probe {
                                    probes_this_episode += 1;
                                }
                                prop_assert!(
                                    probes_this_episode <= PROBE_QUOTA,
                                    "HalfOpen admitted past the probe quota"
                                );
                            }
                        }
                        match verdict {
                            BreakerAdmit::Admit => {
                                if action == 2 {
                                    // Dropped frame: no outcome.
                                } else {
                                    breaker.record(ok, false, clock.now());
                                    model.record(ok, false, now_ms);
                                }
                            }
                            BreakerAdmit::Probe => {
                                if action == 2 {
                                    breaker.abort_probe();
                                    model.abort_probe();
                                    probes_this_episode =
                                        probes_this_episode.saturating_sub(1);
                                } else {
                                    breaker.record(ok, true, clock.now());
                                    model.record(ok, true, now_ms);
                                }
                            }
                            BreakerAdmit::Shed => {}
                        }
                    }
                }
                prop_assert_eq!(
                    breaker.state(),
                    model.state(),
                    "state diverged at t={}ms",
                    now_ms
                );
                prop_assert_eq!(
                    breaker.trips(),
                    model.trips,
                    "trip count diverged at t={}ms",
                    now_ms
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Admission at the configured capacity, through a live server.
// ---------------------------------------------------------------------------

mod admission {
    use gen_nerf::config::{ModelConfig, SamplingStrategy};
    use gen_nerf::model::GenNerfModel;
    use gen_nerf_geometry::{Intrinsics, Pose, Vec3};
    use gen_nerf_scene::{Dataset, DatasetKind};
    use gen_nerf_serve::{
        AdmissionConfig, DeadlineClass, FrameRequest, RenderServer, ResolutionTier, SceneState,
        ServerConfig, SessionConfig,
    };
    use std::sync::Arc;

    /// A struct-literal capacity of zero is read as one, the way
    /// `AdmissionConfig::with_capacity` builds it: an Interactive frame
    /// at an empty queue renders at full resolution instead of being
    /// shed.
    #[test]
    fn a_zero_capacity_literal_admits_at_an_empty_queue() {
        let ds = Dataset::build(DatasetKind::DeepVoxels, "cube", 0.05, 4, 1, 24, 5);
        let scene = Arc::new(SceneState::prepare(
            GenNerfModel::new(ModelConfig::fast()),
            &ds.source_views,
            ds.scene.bounds,
            ds.scene.background,
        ));
        let server = RenderServer::new(
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            }
            .with_admission(AdmissionConfig { queue_capacity: 0 }),
        );
        let intrinsics = Intrinsics::from_fov(8, 8, 0.6);
        let strategy = SamplingStrategy::Uniform { n: 4 };
        let session = server.create_session(scene, SessionConfig::new(intrinsics, strategy));
        let pose = Pose::look_at(Vec3::new(3.0, 1.0, 3.0), Vec3::ZERO, Vec3::Y);
        let req = FrameRequest::new(pose).with_deadline(DeadlineClass::Interactive);
        let frame = server.submit(session, req).wait_result();
        let frame = frame.expect("an Interactive frame at an empty queue is admitted");
        assert_eq!(frame.serve.tier, ResolutionTier::Full);
        assert!(!frame.serve.degraded);
    }
}
