//! Integration tests for the multi-tenant serving service: guard
//! rails, fair-share shedding, malformed plans, shutdown semantics, the
//! assembled service under faults (pricing panic, shutdown in flight)
//! with its accounting conservation law, and the bit-identity property
//! — predictions served under concurrency, in a caller's
//! `predict_many`, or from a cached plan context must equal
//! `CostModel::predict_seconds` on the same encoded plan, exactly.

mod common;

use common::{bundle_with_model_input, candidate_plans, engine, resources, some_plan, tiny_bundle};
use raal::model::FrozenModel;
use raal::persist::ModelBundle;
use raal::serving::shard::{BatchQueue, ReplySlot, ShardConfig, ShardedServing};
use raal::serving::{FallbackModel, FallbackReason, PredictionSource, ServingConfig, SloStats};
use sparksim::plan::physical::{PhysicalOp, PhysicalPlan};
use sparksim::resource::{ClusterConfig, ResourceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bundle whose encoder emits node features one wider than the model
/// was built for. `ModelBundle::new` skips the width check
/// `ModelBundle::load` does, so the first priced plan panics in the
/// LSTM kernel's input guard — a pricing fault with no injection seam.
fn mismatched_bundle() -> ModelBundle {
    bundle_with_model_input(1)
}

fn analytical() -> Arc<dyn FallbackModel + Send + Sync> {
    Arc::new(|plan: &PhysicalPlan, _res: &ResourceConfig| 1.0 + plan.len() as f64)
}

fn generous() -> ShardConfig {
    ShardConfig {
        serving: ServingConfig {
            deadline: Duration::from_secs(10),
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn sharded_service_is_send_and_sync() {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<ShardedServing>();
}

#[test]
fn corrupt_checkpoint_degrades_the_whole_service() {
    let dir = std::env::temp_dir().join("raal_shard_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.json");
    std::fs::write(&path, "{\"not\": \"a bundle\"}").unwrap();

    let engine = engine();
    let plan = some_plan(&engine);
    let service = ShardedServing::from_checkpoint(&path, analytical(), ShardConfig::default());
    assert!(service.is_degraded());
    let pred = service.predict("tenant-a", &plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Checkpoint));
    assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
    let stats = service.slo_stats();
    assert_eq!(stats.total, 1);
    assert_eq!(stats.count(FallbackReason::Checkpoint), 1);
}

#[test]
fn healthy_service_answers_with_the_model() {
    let engine = engine();
    let plan = some_plan(&engine);
    // The reference answer: an identically-seeded frozen model.
    let expected = {
        let bundle = tiny_bundle();
        let encoder = bundle.encoder();
        let features = resources().feature_vector(&ClusterConfig::default());
        FrozenModel::freeze(bundle.model).predict_seconds(&encoder.encode(&plan), &features)
    };
    let lines = telemetry::testing::capture(|| {
        let service = ShardedServing::new(tiny_bundle(), analytical(), generous());
        let pred = service.predict("tenant-a", &plan, &resources());
        assert_eq!(pred.source, PredictionSource::Model);
        assert_eq!(pred.seconds, expected);
        let stats = service.slo_stats();
        assert_eq!((stats.total, stats.model), (1, 1));
        assert_eq!(stats.hit_rate(), 1.0);
        service.shutdown();
    });
    assert!(lines.iter().any(|l| l.contains("serving.predict.model")));
    assert!(
        lines.iter().any(|l| l.contains("serving.tenant.predict.tenant_a")),
        "per-tenant counter missing (tenant id should be sanitized)"
    );
}

#[test]
fn oversized_plans_fall_back_at_admission() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ShardConfig {
        serving: ServingConfig {
            deadline: Duration::from_secs(10),
            max_plan_nodes: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    let pred = service.predict("tenant-a", &plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Admission));
}

#[test]
fn tenant_over_quota_is_shed_but_others_are_not() {
    let engine = engine();
    let plan = some_plan(&engine);
    // A zero in-flight budget sheds every admitted request of the
    // noisy tenant deterministically, without any concurrency setup.
    let cfg = ShardConfig { tenant_inflight: 0, ..generous() };
    let lines = telemetry::testing::capture(|| {
        let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
        let pred = service.predict("noisy", &plan, &resources());
        assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::TenantQuota));
        assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
        let stats = service.slo_stats();
        assert_eq!(stats.count(FallbackReason::TenantQuota), 1);
    });
    assert!(lines.iter().any(|l| l.contains("serving.fallback.tenant_quota")));
    assert!(lines.iter().any(|l| l.contains("serving.tenant.shed.noisy")));
}

#[test]
fn quota_slots_are_released_after_each_predict() {
    let engine = engine();
    let plan = some_plan(&engine);
    // Budget of one in flight: sequential predicts must all succeed,
    // because each release happens before the next acquire.
    let cfg = ShardConfig { tenant_inflight: 1, ..generous() };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    for _ in 0..5 {
        let pred = service.predict("tenant-a", &plan, &resources());
        assert_eq!(pred.source, PredictionSource::Model);
    }
    // Calls that miss their deadline must release their slot too.
    let cfg = ShardConfig {
        tenant_inflight: 1,
        serving: ServingConfig { deadline: Duration::ZERO, ..Default::default() },
        ..ShardConfig::default()
    };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    for _ in 0..5 {
        let pred = service.predict("tenant-a", &plan, &resources());
        assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Deadline));
    }
}

/// The deadline is judged after pricing: an answer that took longer
/// than its budget is demoted to the analytical one, counted once.
#[test]
fn an_over_budget_answer_is_demoted_to_deadline() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ShardConfig {
        serving: ServingConfig {
            deadline: Duration::from_nanos(1),
            ..Default::default()
        },
        ..Default::default()
    };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    let pred = service.predict("tenant-a", &plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Deadline));
    assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
    let stats = service.slo_stats();
    assert_eq!((stats.total, stats.model), (1, 0));
    assert_eq!(stats.count(FallbackReason::Deadline), 1);
    assert_eq!(stats.total, stats.model + stats.by_reason.iter().sum::<u64>());
}

/// Plans `PhysicalPlan::add` lets a caller build that are not a single
/// tree: none at all, two roots, a child listed twice, a child under
/// two parents.
fn malformed_plans() -> Vec<(&'static str, PhysicalPlan)> {
    let leaf = |plan: &mut PhysicalPlan, n| plan.add(PhysicalOp::Limit { n }, vec![], 1.0, 8.0);
    let mut forest = PhysicalPlan::new();
    leaf(&mut forest, 1);
    leaf(&mut forest, 2);
    let mut duplicate = PhysicalPlan::new();
    let child = leaf(&mut duplicate, 1);
    duplicate.add(PhysicalOp::Limit { n: 2 }, vec![child, child], 1.0, 8.0);
    let mut shared = PhysicalPlan::new();
    let child = leaf(&mut shared, 1);
    let parent = shared.add(PhysicalOp::Limit { n: 2 }, vec![child], 1.0, 8.0);
    shared.add(PhysicalOp::Limit { n: 3 }, vec![child, parent], 1.0, 8.0);
    vec![
        ("empty", PhysicalPlan::new()),
        ("forest", forest),
        ("duplicate child", duplicate),
        ("shared child", shared),
    ]
}

/// A plan the encoder rejects is outside input, not a model fault: it
/// is answered `Admission` by itself, its neighbours keep the model,
/// the service stays healthy, and the tenant's slot comes back — with
/// one in-flight slot, a leak would shed the very next call
/// `TenantQuota`.
#[test]
fn a_malformed_plan_is_an_admission_fallback_not_a_fault() {
    let engine = engine();
    let good = some_plan(&engine);
    let res = resources();
    let admission = PredictionSource::Fallback(FallbackReason::Admission);
    let cfg = ShardConfig { tenant_inflight: 1, ..generous() };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    let mut sent = 0;
    for (name, bad) in &malformed_plans() {
        for _ in 0..8 {
            let alone = service.predict("tenant-a", bad, &res);
            assert_eq!(alone.source, admission, "{name}");
            assert_eq!(alone.seconds, 1.0 + bad.len() as f64, "{name}");
        }
        let preds = service.predict_many("tenant-a", &[&good, bad, &good], &res);
        let sources: Vec<_> = preds.iter().map(|p| p.source).collect();
        assert_eq!(
            sources,
            [PredictionSource::Model, admission, PredictionSource::Model],
            "{name}"
        );
        assert_eq!(preds[1].seconds, 1.0 + bad.len() as f64, "{name}");
        assert_eq!(service.predict("tenant-a", &good, &res).source, PredictionSource::Model);
        sent += 8 + 3 + 1;
    }
    let stats = service.slo_stats();
    assert_eq!(stats.total, sent);
    assert_eq!(stats.count(FallbackReason::Admission), stats.total - stats.model);
    assert_eq!(stats.total, stats.model + stats.by_reason.iter().sum::<u64>());
}

#[test]
fn predict_many_batches_with_per_plan_admission() {
    let engine = engine();
    let candidates = candidate_plans(&engine);
    assert!(candidates.len() >= 2, "need at least two candidate plans");
    let refs: Vec<&PhysicalPlan> = candidates.iter().collect();
    let max_nodes = refs.iter().map(|p| p.len()).min().unwrap();
    let cfg = ShardConfig {
        serving: ServingConfig {
            deadline: Duration::from_secs(10),
            max_plan_nodes: max_nodes,
            ..Default::default()
        },
        ..Default::default()
    };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    let preds = service.predict_many("tenant-a", &refs, &resources());
    assert_eq!(preds.len(), refs.len());
    for (plan, pred) in refs.iter().zip(&preds) {
        if plan.len() > max_nodes {
            assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Admission));
            assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
        } else {
            assert_eq!(pred.source, PredictionSource::Model);
        }
    }
}

/// The bit-identity property: a prediction must be **bit-identical**
/// whether its plan is priced alone, in a caller's `predict_many`, or
/// while other tenants' calls price beside it — concurrency may change
/// throughput, never answers.
#[test]
fn concurrent_predictions_are_bit_identical_to_sequential() {
    // Three queries' candidate sets — each one `predict_many` call,
    // whose misses encode through the call's operator memo — and a
    // lone plan.
    let engine = engine();
    let mut sets = vec![candidate_plans(&engine), vec![some_plan(&engine)]];
    for sql in [
        "SELECT t.x, COUNT(*) FROM t, u WHERE t.id = u.t_id AND t.x < 5 GROUP BY t.x",
        "SELECT u.y, COUNT(*) FROM t, u WHERE t.id = u.t_id AND u.y > 2 GROUP BY u.y",
    ] {
        sets.push(engine.plan_candidates(sql).unwrap());
    }
    assert!(sets.iter().filter(|set| set.len() >= 2).count() >= 3);
    let starts: Vec<usize> = sets
        .iter()
        .scan(0, |next, set| Some(std::mem::replace(next, *next + set.len())))
        .collect();
    let plans = sets.concat();
    let features = resources().feature_vector(&ClusterConfig::default());

    // Reference: every plan priced one at a time, straight through the
    // unfrozen model.
    let bundle = tiny_bundle();
    let encoder = bundle.encoder();
    let expected: Vec<f64> = plans
        .iter()
        .map(|p| bundle.model.predict_seconds(&encoder.encode(p), &features))
        .collect();

    // More concurrent clients than cores.
    let service = Arc::new(ShardedServing::new(tiny_bundle(), analytical(), generous()));
    let threads = 8;
    let rounds = 12;
    std::thread::scope(|s| {
        for t in 0..threads {
            let service = Arc::clone(&service);
            let (plans, sets, starts, expected) = (&plans, &sets, &starts, &expected);
            s.spawn(move || {
                let res = resources();
                let tenant = format!("tenant-{t}");
                for r in 0..rounds {
                    // Rotate through single-plan and multi-plan calls.
                    if (t + r) % 2 == 0 {
                        let i = (t + r) % plans.len();
                        let pred = service.predict(&tenant, &plans[i], &res);
                        assert_eq!(pred.source, PredictionSource::Model);
                        assert_eq!(
                            pred.seconds.to_bits(),
                            expected[i].to_bits(),
                            "concurrent single predict diverged from sequential reference"
                        );
                    } else {
                        let set = (t + r) / 2 % sets.len();
                        let refs: Vec<&PhysicalPlan> = sets[set].iter().collect();
                        let preds = service.predict_many(&tenant, &refs, &res);
                        assert_eq!(preds.len(), refs.len());
                        for (k, pred) in preds.iter().enumerate() {
                            assert_eq!(pred.source, PredictionSource::Model);
                            assert_eq!(
                                pred.seconds.to_bits(),
                                expected[starts[set] + k].to_bits(),
                                "concurrent predict_many diverged from sequential reference"
                            );
                        }
                    }
                }
            });
        }
    });
    let stats = service.slo_stats();
    assert_eq!(stats.hit_rate(), 1.0, "every predict should hit the model");
}

/// One way to break the assembled service, and what its callers may
/// then see.
struct Fault {
    name: &'static str,
    bundle: fn() -> ModelBundle,
    shutdown_mid_flight: bool,
    /// Every source a call may report while the fault plays out.
    allowed: &'static [PredictionSource],
    /// What a call made after the clients are done must report.
    afterwards: PredictionSource,
}

const WORKER_LOST: PredictionSource = PredictionSource::Fallback(FallbackReason::WorkerLost);
const BUSY: PredictionSource = PredictionSource::Fallback(FallbackReason::Busy);

const FAULTS: [Fault; 2] = [
    Fault {
        name: "pricing panics",
        bundle: mismatched_bundle,
        shutdown_mid_flight: false,
        allowed: &[WORKER_LOST],
        afterwards: WORKER_LOST,
    },
    Fault {
        name: "shutdown with calls in flight",
        bundle: tiny_bundle,
        shutdown_mid_flight: true,
        allowed: &[PredictionSource::Model, BUSY],
        afterwards: BUSY,
    },
];

/// Drives one fault with 4 single-tenant clients and checks, from the
/// outside, that every call returns exactly one finite answer per plan
/// from an allowed source — never `TenantQuota`: with one in-flight
/// slot per tenant, a slot that did not come back would shed that
/// tenant's very next call — and that the service still answers
/// promptly afterwards. Returns its final [`SloStats`].
fn drive_fault(fault: &Fault, plans: &[PhysicalPlan]) -> SloStats {
    let cfg = ShardConfig { tenant_inflight: 1, ..generous() };
    let service = ShardedServing::new((fault.bundle)(), analytical(), cfg);
    let sent = AtomicU64::new(0);
    let res = resources();
    std::thread::scope(|s| {
        for t in 0..4 {
            let (service, sent, res) = (&service, &sent, &res);
            s.spawn(move || {
                let tenant = format!("fault-{t}");
                for round in 0..12 {
                    // Alternate single-plan and whole-candidate-set calls.
                    let call: Vec<&PhysicalPlan> = if (t + round) % 2 == 0 {
                        vec![&plans[round % plans.len()]]
                    } else {
                        plans.iter().collect()
                    };
                    let preds = service.predict_many(&tenant, &call, res);
                    assert_eq!(preds.len(), call.len(), "{}: one answer per plan", fault.name);
                    for pred in &preds {
                        assert!(pred.seconds.is_finite(), "{}: {pred:?}", fault.name);
                        assert!(fault.allowed.contains(&pred.source), "{}: {pred:?}", fault.name);
                    }
                    sent.fetch_add(call.len() as u64, Ordering::Relaxed);
                }
            });
        }
        if fault.shutdown_mid_flight {
            while service.slo_stats().total < 8 {
                std::thread::yield_now();
            }
            service.shutdown();
        }
    });
    let t0 = telemetry::clock_us();
    let late = service.predict("fault-late", &plans[0], &res);
    let waited_us = telemetry::clock_us() - t0;
    assert_eq!(late.source, fault.afterwards, "{}", fault.name);
    assert!(late.seconds.is_finite());
    assert!(waited_us < 1_000_000, "{}: a later call took {waited_us} us", fault.name);
    let stats = service.slo_stats();
    assert_eq!(stats.total, sent.load(Ordering::Relaxed) + 1, "{}", fault.name);
    assert_eq!(stats.total, stats.model + stats.by_reason.iter().sum::<u64>(), "{}", fault.name);
    stats
}

/// The assembled service under faults obeys the accounting conservation
/// law: every call is answered exactly once, and
/// `SloStats.total == model + Σ by_reason` equals what telemetry
/// counted — `serving.predict` and the per-reason `serving.fallback.*`.
#[test]
fn under_faults_every_call_is_answered_and_counted_once() {
    let engine = engine();
    let mut plans = candidate_plans(&engine);
    plans.push(some_plan(&engine));
    telemetry::testing::capture(|| {
        let mut want = SloStats::default();
        for fault in &FAULTS {
            let stats = drive_fault(fault, &plans);
            want.total += stats.total;
            want.model += stats.model;
            for (sum, n) in want.by_reason.iter_mut().zip(stats.by_reason) {
                *sum += n;
            }
        }
        assert!(want.count(FallbackReason::WorkerLost) > 0 && want.model > 0);
        assert_eq!(want.count(FallbackReason::TenantQuota), 0);

        let snap = telemetry::metrics_snapshot();
        let counted = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        // The registry is process-global, so a test running beside this
        // one counts into it too (ROADMAP item 4a). What no other test
        // can touch is always exact: this test's own tenants, and the
        // worker-lost counter only this test trips.
        let tenant_counters = "serving.tenant.predict.";
        let ours = "serving.tenant.predict.fault_";
        let of_ours: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(ours))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(of_ours, want.total);
        assert_eq!(
            counted(FallbackReason::WorkerLost.counter()),
            want.count(FallbackReason::WorkerLost)
        );
        // The process-wide names are exact whenever no other tenant
        // showed up during the capture, i.e. this test had the registry
        // to itself; beside a neighbour they can only run ahead.
        let alone = snap
            .counters
            .keys()
            .all(|k| !k.starts_with(tenant_counters) || k.starts_with(ours));
        let holds = |counted: u64, want: u64| {
            if alone {
                counted == want
            } else {
                counted >= want
            }
        };
        assert!(holds(counted("serving.predict"), want.total), "alone={alone}: {snap:?}");
        assert!(holds(counted("serving.predict.model"), want.model), "alone={alone}: {snap:?}");
        for reason in FallbackReason::ALL {
            assert!(
                holds(counted(reason.counter()), want.count(reason)),
                "alone={alone} {reason:?}: {snap:?}"
            );
        }
    });
}

thread_local! {
    static PANICS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Panics raised on the calling thread since the first call of this
/// function in the process. The counting hook chains to the one it
/// replaces, so a failing test still prints.
fn panics_on_this_thread() -> u32 {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.with(|n| n.set(n.get() + 1));
            previous(info);
        }));
    });
    PANICS.with(|n| n.get())
}

/// A pricing panic costs the model, never an answer, and is met once:
/// the call that tripped it comes back `WorkerLost` with its analytical
/// estimate, and so does every later one — cached or not — without
/// reaching the model again.
#[test]
fn a_pricing_panic_is_met_once_and_sticks() {
    const CALLS: u64 = 8;
    let engine = engine();
    let plan = some_plan(&engine);
    let res = resources();
    // In a capture because captures are serialised: the fault test
    // asserts the exact worker-lost count of its own.
    telemetry::testing::capture(|| {
        let service = ShardedServing::new(mismatched_bundle(), analytical(), generous());
        let before = panics_on_this_thread();
        for _ in 0..CALLS {
            let pred = service.predict("lost", &plan, &res);
            assert_eq!(pred.source, WORKER_LOST);
            assert_eq!(pred.seconds, 1.0 + plan.len() as f64);
        }
        assert_eq!(panics_on_this_thread() - before, 1, "the model was reached again");
        let stats = service.slo_stats();
        assert_eq!((stats.total, stats.count(FallbackReason::WorkerLost)), (CALLS, CALLS));
    });
}

/// The plan-context cache may change *how* a plan is priced — from a
/// fresh context or a cached one — never *what* it is priced at: over
/// a stream mixing a hot set under varying resources, plans
/// never seen twice and `predict_many` calls that hit only in part,
/// every answer is the model's and carries exactly the bits
/// `CostModel::predict_seconds` gives the freshly encoded plan. Every
/// admitted plan is one cache lookup, counted once.
#[test]
fn warm_plans_are_priced_from_cached_contexts_with_the_same_bits() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 24;
    let engine = engine();
    let mut hot = candidate_plans(&engine);
    hot.push(some_plan(&engine));
    // Two never-repeated plans per client and round: the literal (and
    // the row estimate it moves) makes each one distinct.
    let unique: Vec<PhysicalPlan> = (0..2 * CLIENTS * ROUNDS)
        .map(|n| {
            let sql = format!("SELECT t.x, COUNT(*) FROM t WHERE t.id < {} GROUP BY t.x", n + 1);
            engine.plan_candidates(&sql).unwrap().remove(0)
        })
        .collect();
    let cluster = ClusterConfig::default();
    let resources_for = |t: usize, r: usize| ResourceConfig {
        executors: 1 + (t + r) % 6,
        cores_per_executor: 1 + r % 3,
        memory_per_executor_gb: 1.0 + ((3 * t + r) % 8) as f64,
        ..resources()
    };
    let bundle = tiny_bundle();
    let encoder = bundle.encoder();
    let reference = |plan: &PhysicalPlan, res: &ResourceConfig| {
        bundle
            .model
            .predict_seconds(&encoder.encode(plan), &res.feature_vector(&cluster))
    };

    telemetry::testing::capture(|| {
        let service = ShardedServing::new(tiny_bundle(), analytical(), generous());
        let sent = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..CLIENTS {
                let (service, sent, hot, unique) = (&service, &sent, &hot, &unique);
                let (reference, resources_for) = (&reference, &resources_for);
                s.spawn(move || {
                    let tenant = format!("reuse-{t}");
                    for r in 0..ROUNDS {
                        let res = resources_for(t, r);
                        let fresh = &unique[2 * (t * ROUNDS + r)..][..2];
                        let call: Vec<&PhysicalPlan> = match r % 3 {
                            0 => vec![&hot[(t + r) % hot.len()]],
                            1 => vec![&fresh[0]],
                            _ => vec![&hot[r % hot.len()], &fresh[1], &hot[(r + 1) % hot.len()]],
                        };
                        let preds = if call.len() == 1 {
                            vec![service.predict(&tenant, call[0], &res)]
                        } else {
                            service.predict_many(&tenant, &call, &res)
                        };
                        assert_eq!(preds.len(), call.len());
                        for (plan, pred) in call.iter().zip(&preds) {
                            assert_eq!(pred.source, PredictionSource::Model);
                            assert_eq!(
                                pred.seconds.to_bits(),
                                reference(plan, &res).to_bits(),
                                "client {t} round {r}: served bits differ from predict_seconds"
                            );
                        }
                        sent.fetch_add(call.len() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        let sent = sent.load(Ordering::Relaxed);
        let stats = service.slo_stats();
        assert_eq!((stats.total, stats.model), (sent, sent));
        assert_eq!(stats.total, stats.model + stats.by_reason.iter().sum::<u64>());

        let snap = telemetry::metrics_snapshot();
        let counted = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let of_ours: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("serving.tenant.predict.reuse_"))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(of_ours, sent);
        let (hits, misses) =
            (counted("serving.plan_cache.hit"), counted("serving.plan_cache.miss"));
        // Each hot plan misses at least twice before it is resident and
        // no unique plan ever hits; past that the split depends on how
        // the clients interleave.
        let unique_sent = 2 * CLIENTS * (ROUNDS / 3);
        assert!(misses >= (unique_sent + 2 * hot.len()) as u64, "{misses} misses");
        assert!(hits > 0, "no lookup ever hit");
        // The cache counters carry no tenant, and the registry is
        // process-global (ROADMAP item 4a): they are exact whenever no
        // other test's tenant counted into this capture, and can only
        // run ahead otherwise.
        let alone = snap
            .counters
            .keys()
            .all(|k| !k.starts_with("serving.tenant.predict.") || k.contains(".reuse_"));
        if alone {
            assert_eq!(hits + misses, sent, "one lookup per admitted plan");
            assert_eq!(counted("serving.plan_cache.insert"), hot.len() as u64);
            assert_eq!(counted("serving.plan_cache.evict"), 0);
            assert!(snap.gauges["serving.plan_cache.bytes"] > 0.0);
        } else {
            assert!(hits + misses >= sent);
        }
    });
}

#[test]
fn shutdown_under_traffic_completes_and_sheds_later_predicts() {
    let engine = engine();
    let plan = some_plan(&engine);
    let service = Arc::new(ShardedServing::new(tiny_bundle(), analytical(), generous()));
    std::thread::scope(|s| {
        for t in 0..4 {
            let service = Arc::clone(&service);
            let plan = &plan;
            s.spawn(move || {
                let res = resources();
                let tenant = format!("tenant-{t}");
                for _ in 0..10 {
                    // Every call completes with *some* finite answer,
                    // before, during and after shutdown.
                    let pred = service.predict(&tenant, plan, &res);
                    assert!(pred.seconds.is_finite());
                }
            });
        }
        service.shutdown();
    });
    // After shutdown predicts shed immediately.
    let pred = service.predict("late", &plan, &resources());
    assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Busy));
    // Idempotent (and Drop will run it again).
    service.shutdown();
}

#[test]
fn dropping_a_busy_service_joins_all_threads() {
    let engine = engine();
    let plan = some_plan(&engine);
    let cfg = ShardConfig {
        serving: ServingConfig { deadline: Duration::ZERO, ..Default::default() },
        ..Default::default()
    };
    let service = ShardedServing::new(tiny_bundle(), analytical(), cfg);
    // A zero deadline is never met; there is no thread left for drop
    // to join, so it returns at once.
    for _ in 0..6 {
        let pred = service.predict("tenant-a", &plan, &resources());
        assert_eq!(pred.source, PredictionSource::Fallback(FallbackReason::Deadline));
    }
    drop(service);
}

/// The benchmark-pinned queue and slot keep their single-threaded
/// contract (the model-check suite explores their interleavings).
#[test]
fn batch_queue_and_reply_slot_contracts() {
    let q: BatchQueue<u32> = BatchQueue::bounded(2);
    assert!(q.push(1).is_ok());
    assert!(q.push(2).is_ok());
    assert_eq!(q.push(3), Err(3), "full queue hands the item back");
    assert_eq!(q.len(), 2);
    let mut got = Vec::new();
    assert!(q.drain(8, &mut got));
    assert_eq!(got, vec![1, 2]);
    q.close();
    assert_eq!(q.push(4), Err(4), "closed queue rejects pushes");
    assert!(!q.drain(8, &mut got), "closed+empty queue signals exit");

    let slot: ReplySlot<u32> = ReplySlot::new();
    assert!(slot.complete(7), "first completion wins");
    assert!(!slot.complete(8), "second completion is rejected");
    assert_eq!(slot.wait_deadline(Duration::from_secs(1)), Some(7));

    let slot: ReplySlot<u32> = ReplySlot::new();
    assert_eq!(slot.wait_deadline(Duration::ZERO), None, "timeout abandons");
    assert!(!slot.complete(9), "completing an abandoned slot reports false");
}
