//! Model-check suite for the telemetry sink's enable/disable handoff.
//! Compiled only under `RUSTFLAGS="--cfg raal_model_check"`, where the
//! `raal_sync` primitives these scenarios are built on route through the
//! deterministic schedule explorer.
//!
//! The protocol under test is the one `telemetry` itself follows (see
//! `testing::capture_inner` and the `enabled()` fast path): the sink is
//! installed under the state mutex *before* the `ENABLED` flag is
//! published, and readers that observe the flag re-check the sink under
//! the same mutex. The tests prove the handoff is never torn in any
//! bounded interleaving — and that the checker catches the torn variant
//! when the publication order is deliberately inverted.
#![cfg(raal_model_check)]

use raal_sync::atomic::{AtomicBool, Ordering};
use raal_sync::model::{check, explore, Config, FailureKind};
use raal_sync::sync::Mutex;
use raal_sync::thread;
use std::sync::Arc;

fn cfg() -> Config {
    Config {
        max_preemptions: 2,
        max_schedules: 200_000,
        max_steps: 10_000,
    }
}

/// The correct publication order — install the sink under the lock,
/// then store the flag — means a reader that saw `enabled == true` can
/// never find the sink missing. Explored across every interleaving.
#[test]
fn enable_handoff_is_never_torn() {
    explore("telemetry-enable-handoff", cfg(), || {
        let enabled = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(Mutex::new(None::<u32>));
        let (e2, s2) = (enabled.clone(), sink.clone());
        let writer = thread::spawn(move || {
            *s2.lock().unwrap_or_else(|e| e.into_inner()) = Some(7);
            e2.store(true, Ordering::Release);
        });
        if enabled.load(Ordering::Acquire) {
            let g = sink.lock().unwrap_or_else(|e| e.into_inner());
            assert!(g.is_some(), "enabled observed before the sink install: torn handoff");
        }
        writer.join().unwrap();
    });
}

/// Negative control: publishing the flag *before* installing the sink
/// is the torn handoff. The checker must find the interleaving where a
/// reader slips between the two writes, and report it as a panic with a
/// replayable seed.
#[test]
fn inverted_publication_order_is_caught() {
    let failure = check(cfg(), || {
        let enabled = Arc::new(AtomicBool::new(false));
        let sink = Arc::new(Mutex::new(None::<u32>));
        let (e2, s2) = (enabled.clone(), sink.clone());
        let writer = thread::spawn(move || {
            e2.store(true, Ordering::Release); // published too early
            *s2.lock().unwrap_or_else(|e| e.into_inner()) = Some(7);
        });
        if enabled.load(Ordering::Acquire) {
            let g = sink.lock().unwrap_or_else(|e| e.into_inner());
            assert!(g.is_some(), "torn handoff");
        }
        writer.join().unwrap();
    })
    .expect_err("the torn interleaving must be found");
    assert!(matches!(failure.kind, FailureKind::Panic(_)), "unexpected failure: {failure}");
    assert!(failure.seed.starts_with("mc1:"));
}

/// The registry's headline guarantee: a [`telemetry::registry::Registry`]
/// snapshot is one lock acquisition, so ordering invariants the writers
/// maintain survive into the snapshot. The writer increments `a` before
/// `b` in separate registry calls and pairs a gauge with a counter; no
/// interleaving may produce a snapshot with `b > a` or a gauge that ran
/// ahead of its counter.
#[test]
fn metrics_snapshot_is_never_torn() {
    use telemetry::registry::Registry;
    explore("registry-snapshot-not-torn", cfg(), || {
        let reg = Arc::new(Registry::new());
        let r2 = reg.clone();
        let writer = thread::spawn(move || {
            for _ in 0..2 {
                // Protocol: `a` always leads `b`, and the paired gauge
                // is published only after its counter.
                r2.counter_add("a", 1);
                r2.counter_add("b", 1);
                r2.counter_add("done", 1);
                r2.gauge_set("done.gauge", 1.0);
            }
        });
        let snap = reg.snapshot();
        let a = snap.counters.get("a").copied().unwrap_or(0);
        let b = snap.counters.get("b").copied().unwrap_or(0);
        assert!(a >= b, "snapshot tore the a-then-b ordering: a={a} b={b}");
        if snap.gauges.contains_key("done.gauge") {
            assert!(
                snap.counters.get("done").copied().unwrap_or(0) >= 1,
                "gauge published before its counter"
            );
        }
        writer.join().unwrap();
        let final_snap = reg.snapshot();
        assert_eq!(final_snap.counters["a"], 2);
        assert_eq!(final_snap.counters["b"], 2);
    });
}

/// Negative control for the snapshot guarantee: reading `a` and `b` in
/// *separate* lock acquisitions (two single-metric snapshots) is the
/// torn pattern the one-shot snapshot exists to prevent — the checker
/// must find the interleaving where the writer slips between the two
/// reads.
#[test]
fn split_reads_are_caught_as_torn() {
    use telemetry::registry::Registry;
    let failure = check(cfg(), || {
        let reg = Arc::new(Registry::new());
        let r2 = reg.clone();
        let writer = thread::spawn(move || {
            r2.counter_add("a", 1);
            r2.counter_add("b", 1);
        });
        // Torn read: b from a later state than a.
        let a = reg.snapshot().counters.get("a").copied().unwrap_or(0);
        let b = reg.snapshot().counters.get("b").copied().unwrap_or(0);
        assert!(a >= b, "torn read: a={a} b={b}");
        writer.join().unwrap();
    })
    .expect_err("the torn interleaving must be found");
    assert!(matches!(failure.kind, FailureKind::Panic(_)), "unexpected failure: {failure}");
    assert!(failure.seed.starts_with("mc1:"));
}

/// Concurrent histogram writers against one registry metric:
/// no interleaving may lose an observation or deadlock, and the final
/// snapshot agrees with the number of records made.
#[test]
fn concurrent_observers_never_lose_samples() {
    use telemetry::registry::Registry;
    explore("registry-concurrent-observe", cfg(), || {
        let reg = Arc::new(Registry::new());
        let (r1, r2) = (reg.clone(), reg.clone());
        let t1 = thread::spawn(move || {
            r1.observe("lat", 10);
            r1.observe("lat", 20);
        });
        let t2 = thread::spawn(move || {
            r2.observe("lat", 30);
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.hists["lat"].count, 3, "an observation was lost");
    });
}

/// Disable-and-teardown, as `capture_inner` runs it: the writer clears
/// the flag and then removes the sink under the lock, while a reader
/// follows the emit pattern — flag check, then a lock-guarded `if let`
/// that tolerates a missing sink. No interleaving may deadlock or
/// observe partially-torn-down state it isn't written to tolerate.
#[test]
fn disable_teardown_never_deadlocks() {
    explore("telemetry-disable-teardown", cfg(), || {
        let enabled = Arc::new(AtomicBool::new(true));
        let sink = Arc::new(Mutex::new(Some(7u32)));
        let (e2, s2) = (enabled.clone(), sink.clone());
        let writer = thread::spawn(move || {
            e2.store(false, Ordering::Release);
            s2.lock().unwrap_or_else(|e| e.into_inner()).take();
        });
        if enabled.load(Ordering::Acquire) {
            // The emit path: the sink may already be gone — that must
            // degrade to a dropped line, never a panic.
            if let Some(v) = *sink.lock().unwrap_or_else(|e| e.into_inner()) {
                assert_eq!(v, 7);
            }
        }
        writer.join().unwrap();
    });
}
