//! Model-check suite for the queue/slot protocol and the worker handoff
//! — primitives the serving service no longer uses (it prices on the
//! caller's thread) but the benchmark package still links, so they stay
//! checked until it lets go of them. Compiled only in the model-check
//! configuration (`RUSTFLAGS="--cfg raal_model_check"`), where
//! `raal_sync` swaps its std re-exports for schedule-explored twins:
//! these tests run the *production* [`BatchQueue`], [`ReplySlot`] and
//! [`Handoff`] code across every thread interleaving up to the
//! preemption bound. What serving's client threads do share, the
//! plan-context cache, is explored next to it in
//! `src/serving/plan_cache.rs`.
//!
//! A plain `cargo test` compiles this file to nothing; CI runs it in the
//! dedicated model-check job. See DESIGN.md §14 for how to write and
//! replay these tests.
#![cfg(raal_model_check)]

use raal::serving::handoff::Handoff;
use raal::serving::shard::{BatchQueue, ReplySlot};
use raal_sync::model::{check, explore, replay, Config, FailureKind};
use raal_sync::mpsc::RecvTimeoutError;
use raal_sync::sync::Mutex;
use raal_sync::thread;
use std::sync::Arc;
use std::time::Duration;

fn cfg() -> Config {
    Config {
        max_preemptions: 2,
        max_schedules: 200_000,
        max_steps: 10_000,
    }
}

/// The deadline path of `predict_many`, end to end: ship a request,
/// wait with a timeout (which the explorer treats as a nondeterministic
/// branch — both "response arrived" and "deadline missed" schedules are
/// covered), and on a miss drain the stale response the way the serving
/// state machine does before its next send. No interleaving may
/// deadlock, lose the response, or deliver a wrong value.
#[test]
fn worker_handoff_delivers_or_stays_in_flight() {
    explore("serving-worker-handoff", cfg(), || {
        let h = Handoff::spawn(|x: u32| x + 1);
        assert!(h.send(1));
        match h.recv_timeout(Duration::from_millis(5)) {
            Ok(v) => assert_eq!(v, 2),
            Err(RecvTimeoutError::Timeout) => {
                // Deadline missed: the request is still in flight. The
                // caller drains it opportunistically, exactly like
                // predict_many's pending-response bookkeeping.
                if let Ok(v) = h.try_recv() {
                    assert_eq!(v, 2);
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("worker exited while the handoff handle was live")
            }
        }
        // Dropping the handoff closes the request channel and joins the
        // worker — in every schedule, including mid-work ones.
    });
}

/// Tearing the handoff down while a request is mid-work must terminate:
/// the drop path closes the request channel, the worker finishes the
/// request it holds, fails or succeeds its last response send, and
/// exits; join completes either way.
#[test]
fn drop_with_request_in_flight_never_deadlocks() {
    explore("serving-drop-in-flight", cfg(), || {
        let h = Handoff::spawn(|x: u32| x);
        assert!(h.send(7));
        drop(h);
    });
}

/// FIFO survives deadline misses: with two requests and a worker that
/// echoes them, the successful receives — whether from `recv_timeout`
/// or a stale-response drain — must form a prefix-ordered subsequence
/// of the request order. A stale response can be *delayed* past a
/// deadline, never reordered or duplicated.
#[test]
fn stale_drain_preserves_response_order() {
    explore("serving-stale-drain", cfg(), || {
        let h = Handoff::spawn(|x: u32| x);
        let mut seen = Vec::new();
        assert!(h.send(1));
        match h.recv_timeout(Duration::from_millis(5)) {
            Ok(v) => seen.push(v),
            Err(RecvTimeoutError::Timeout) => {
                if let Ok(v) = h.try_recv() {
                    seen.push(v);
                }
            }
            Err(RecvTimeoutError::Disconnected) => panic!("worker died"),
        }
        assert!(h.send(2));
        if let Ok(v) = h.recv_timeout(Duration::from_millis(5)) {
            seen.push(v);
        }
        assert!(
            seen.is_empty() || seen == [1] || seen == [1, 2],
            "responses reordered or duplicated: {seen:?}"
        );
    });
}

/// The shard dispatcher's core promise, explored on the production
/// [`BatchQueue`]/[`ReplySlot`] types: every pushed job is drained by
/// the dispatcher **exactly once** (no lost requests, no
/// double-dispatch), and for every job the dispatcher's `complete()`
/// verdict agrees with what the client observed — `true` iff the
/// client's wait returned the value. The model treats every timed wait
/// as a nondeterministic branch, so both the delivered and the
/// abandoned outcome of each job are covered.
#[test]
fn coalescer_drains_each_job_exactly_once() {
    explore("shard-coalescer-exactly-once", cfg(), || {
        let q: Arc<BatchQueue<(u32, Arc<ReplySlot<u32>>)>> = Arc::new(BatchQueue::bounded(4));
        let slots: Vec<Arc<ReplySlot<u32>>> = (0..2).map(|_| Arc::new(ReplySlot::new())).collect();
        let qd = q.clone();
        let dispatcher = thread::spawn(move || {
            // The real dispatch loop's shape: take what is queued until
            // closed-and-empty, settle every job in turn.
            let mut batch = Vec::new();
            let mut log = Vec::new();
            while qd.drain(2, &mut batch) {
                for (v, slot) in batch.drain(..) {
                    log.push((v, slot.complete(v * 10)));
                }
            }
            log
        });
        for (i, slot) in slots.iter().enumerate() {
            assert!(q.push((i as u32 + 1, slot.clone())).is_ok(), "queue has room");
        }
        q.close();
        let got: Vec<Option<u32>> = slots
            .iter()
            .map(|s| s.wait_deadline(Duration::from_millis(5)))
            .collect();
        let log = dispatcher.join().unwrap();
        // No lost requests, no double-dispatch: both jobs drained, once
        // each, in FIFO order.
        let drained: Vec<u32> = log.iter().map(|&(v, _)| v).collect();
        assert_eq!(drained, [1, 2], "jobs lost, duplicated or reordered: {log:?}");
        // Exactly-once settle: the dispatcher delivered iff the client
        // saw the value; an abandoned wait never observes one.
        for (&(v, delivered), got) in log.iter().zip(&got) {
            match got {
                Some(x) => {
                    assert!(delivered, "client got a value the dispatcher never delivered");
                    assert_eq!(*x, v * 10, "wrong value delivered");
                }
                None => assert!(!delivered, "value delivered but the client saw nothing"),
            }
        }
    });
}

/// Shutdown with requests still queued: a producer races `close()`
/// against its own pushes, then the dispatcher drains. Every job must
/// be settled exactly once — by the dispatcher if the push won, by the
/// producer's shed path if `close` won — and the dispatcher must
/// terminate (a hang on `drain` after close is the classic lost-wakeup
/// bug this exists to catch).
#[test]
fn shutdown_with_queued_requests_sheds_or_serves_every_job() {
    explore("shard-coalescer-shutdown", cfg(), || {
        let q: Arc<BatchQueue<Arc<ReplySlot<u32>>>> = Arc::new(BatchQueue::bounded(4));
        let qc = q.clone();
        let closer = thread::spawn(move || qc.close());
        let mut settled_by_producer = 0u32;
        let slots: Vec<Arc<ReplySlot<u32>>> = (0..2).map(|_| Arc::new(ReplySlot::new())).collect();
        for slot in &slots {
            if q.push(slot.clone()).is_err() {
                // close() won the race: shed, like serving's Busy path.
                assert!(slot.complete(0), "producer owns the slot it failed to enqueue");
                settled_by_producer += 1;
            }
        }
        closer.join().unwrap();
        // Dispatcher arrives only after close: the backlog must still
        // come out before drain reports closed-and-empty.
        let mut batch = Vec::new();
        let mut settled_by_dispatcher = 0u32;
        while q.drain(2, &mut batch) {
            for slot in batch.drain(..) {
                assert!(slot.complete(1), "job settled twice");
                settled_by_dispatcher += 1;
            }
        }
        assert_eq!(
            settled_by_producer + settled_by_dispatcher,
            2,
            "a queued request was lost across shutdown"
        );
    });
}

/// The abandon race, isolated: a client with a tiny deadline against a
/// dispatcher completing the slot. In every interleaving exactly one
/// side owns the outcome — `complete()` returns `true` iff the client's
/// wait returned `Some` — which is the agreement the service uses to
/// count each request's answer exactly once.
#[test]
fn reply_slot_settles_exactly_once_under_abandonment() {
    explore("shard-replyslot-abandon", cfg(), || {
        let slot: Arc<ReplySlot<u32>> = Arc::new(ReplySlot::new());
        let sd = slot.clone();
        let dispatcher = thread::spawn(move || sd.complete(7));
        let got = slot.wait_deadline(Duration::from_millis(1));
        let delivered = dispatcher.join().unwrap();
        assert_eq!(
            delivered,
            got.is_some(),
            "settle protocol split-brain: delivered={delivered}, got={got:?}"
        );
        if let Some(v) = got {
            assert_eq!(v, 7);
        }
        // A late completion after the race is always rejected.
        assert!(!slot.complete(8), "slot accepted a second outcome");
    });
}

/// Two completers race one slot: exactly one wins in every schedule —
/// the queue-level exactly-once guarantee cannot be faked by the slot
/// accepting both answers.
#[test]
fn racing_completers_produce_exactly_one_winner() {
    explore("shard-replyslot-race", cfg(), || {
        let slot: Arc<ReplySlot<u32>> = Arc::new(ReplySlot::new());
        let s2 = slot.clone();
        let rival = thread::spawn(move || s2.complete(2));
        let mine = slot.complete(1);
        let theirs = rival.join().unwrap();
        assert!(mine ^ theirs, "expected exactly one winner: mine={mine}, theirs={theirs}");
        let got = slot.wait_deadline(Duration::from_millis(1));
        if let Some(v) = got {
            assert_eq!(v, if mine { 1 } else { 2 }, "loser's value observed");
        }
    });
}

/// The injected-deadlock regression: an intentionally inverted lock
/// order MUST make the checker fail with a deadlock report, and the
/// seed it prints MUST deterministically replay the same failure. If
/// this test ever passes the inverted program, the model checker has
/// lost its teeth — CI runs it to keep the gate honest (raal-lint's
/// `lock-order` rule is the static half of the same regression).
#[test]
fn injected_deadlock_fails_the_checker_and_replays_by_seed() {
    let run = || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            let _g1 = b2.lock().unwrap();
            let _g2 = a2.lock().unwrap();
        });
        let _g1 = a.lock().unwrap();
        let _g2 = b.lock().unwrap();
        drop(_g2);
        drop(_g1);
        t.join().unwrap();
    };
    let failure = check(cfg(), run).expect_err("inverted lock order must be caught");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "unexpected failure: {failure}"
    );
    assert!(failure.seed.starts_with("mc1:"), "unprintable seed: {}", failure.seed);

    let replayed =
        replay(cfg(), &failure.seed, run).expect_err("printed seed must reproduce the deadlock");
    assert!(matches!(replayed.kind, FailureKind::Deadlock(_)), "replay diverged: {replayed}");
}
