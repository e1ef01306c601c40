//! Deterministic schedule exploration for concurrent code (loom-style).
//!
//! [`check`] runs a closure repeatedly, once per distinct thread
//! interleaving, with every context switch decided by a DFS over the
//! tree of scheduling choices. Threads are real OS threads, but exactly
//! one runs at a time: each operation on a [`checked`](crate::checked)
//! primitive (lock, channel op, atomic access, spawn, join) is a
//! *switch point* where the explorer may hand control to another
//! runnable thread.
//!
//! The search is bounded two ways:
//!
//! * **context-switch bounding** — at most [`Config::max_preemptions`]
//!   *voluntary* preemptions per schedule (switching away from a thread
//!   that could have continued). Forced switches — the current thread
//!   blocked on a lock, an empty channel, a condvar or a join — are
//!   free. Most concurrency bugs manifest within two or three
//!   preemptions (the CHESS observation: Musuvathi & Qadeer, PLDI
//!   2007), so a small bound explores the interesting schedules without
//!   the exponential tail.
//! * **schedule and step caps** — [`Config::max_schedules`] /
//!   [`Config::max_steps`] are safety valves against state-space or
//!   livelock blowups; hitting them is reported, never silent.
//!
//! A failing schedule — deadlock, a panic in any model thread, or a
//! step-limit livelock — is reported with a printable **seed** encoding
//! the exact decision sequence. [`replay`] re-executes that one
//! schedule deterministically, so a CI failure reproduces locally with
//! no search. [`explore`] (the `assert!`-style wrapper used by tests)
//! panics with the seed in the message and honours the `RAAL_MC_SEED`
//! environment variable for replay under a test harness.
//!
//! ## What the model guarantees
//!
//! Within the preemption bound, a closure that passes [`check`] has no
//! schedule that deadlocks (including lost condvar wakeups — a missed
//! notify leaves the waiter blocked forever, which the idle detector
//! reports), no schedule that panics, and no schedule that livelocks
//! past the step cap. Timed waits (`recv_timeout`-style) are modelled
//! as a nondeterministic branch — the timeout either fires or the wait
//! continues — so serving-code deadline paths are explored, and a
//! timed wait alone never counts as a deadlock (its timeout would fire
//! in reality).
//!
//! Atomics are modelled sequentially consistent regardless of the
//! `Ordering` argument (every access is still a switch point). Weaker
//! orderings therefore cannot produce model-only failures here; the
//! static side of the audit — the workspace's `tests/source_rules.rs` —
//! demands a written justification for every `Relaxed` site instead.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Search bounds for [`check`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum voluntary preemptions per schedule (forced switches are
    /// free). The state space grows combinatorially with this; 2–3
    /// catches most real interleaving bugs.
    pub max_preemptions: usize,
    /// Hard cap on the number of schedules explored; exceeding it makes
    /// the run incomplete ([`Report::complete`]), not a failure.
    pub max_schedules: usize,
    /// Hard cap on switch points within one schedule; exceeding it is
    /// reported as a livelock ([`FailureKind::StepLimit`]).
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            max_preemptions: 2,
            max_schedules: 100_000,
            max_steps: 50_000,
        }
    }
}

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread can run: every live thread is blocked on a lock,
    /// condvar, channel or join. The strings describe each thread.
    Deadlock(Vec<String>),
    /// A model thread panicked; carries the payload's message.
    Panic(String),
    /// One schedule exceeded [`Config::max_steps`] switch points.
    StepLimit,
    /// A replay seed did not match the execution (wrong seed, or the
    /// closure is nondeterministic beyond scheduling).
    ReplayDiverged(String),
}

/// A failed exploration: the kind, the seed that reproduces it, and how
/// many schedules had passed before it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// Decision-sequence seed; feed to [`replay`] (or `RAAL_MC_SEED`)
    /// to re-execute exactly this schedule.
    pub seed: String,
    /// 0-based index of the failing schedule in DFS order.
    pub schedule: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::Deadlock(states) => {
                writeln!(f, "deadlock in schedule {} — thread states:", self.schedule)?;
                for s in states {
                    writeln!(f, "  {s}")?;
                }
            }
            FailureKind::Panic(msg) => {
                writeln!(f, "panic in schedule {}: {msg}", self.schedule)?;
            }
            FailureKind::StepLimit => {
                writeln!(f, "schedule {} exceeded the step limit (livelock?)", self.schedule)?;
            }
            FailureKind::ReplayDiverged(why) => {
                writeln!(f, "replay diverged: {why}")?;
            }
        }
        write!(f, "replay with seed {}", self.seed)
    }
}

/// A completed exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// True when the bounded search space was exhausted; false when
    /// [`Config::max_schedules`] stopped the search early.
    pub complete: bool,
}

// ------------------------------------------------------------------ seeds

const SEED_PREFIX: &str = "mc1:";

fn encode_seed(choices: &[usize]) -> String {
    let body: Vec<String> = choices.iter().map(|c| c.to_string()).collect();
    format!("{SEED_PREFIX}{}", body.join("."))
}

fn decode_seed(seed: &str) -> Result<Vec<usize>, String> {
    let body = seed
        .strip_prefix(SEED_PREFIX)
        .ok_or_else(|| format!("seed must start with '{SEED_PREFIX}'"))?;
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split('.')
        .map(|tok| tok.parse::<usize>().map_err(|_| format!("bad seed token '{tok}'")))
        .collect()
}

// --------------------------------------------------------- scheduler state

/// Panic payload used to unwind model threads during teardown; never
/// reported as a user failure.
pub(crate) struct Abort;

/// What a blocked model thread is waiting for. Resource ids are the
/// addresses of the owning primitive (stable for the object's lifetime,
/// which is all the bookkeeping needs — the maps reset per schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// Waiting to acquire the lock with this id.
    Lock(u64),
    /// Waiting on the condvar with this id.
    Condvar(u64),
    /// Waiting for data on the channel with this id.
    Recv(u64),
    /// Waiting for the thread with this index to finish.
    Join(usize),
}

impl Reason {
    /// Renders the reason using first-touch ordinals (`ords`) rather
    /// than raw addresses, so the text is identical across runs and a
    /// replayed failure prints the same states as the original.
    fn describe(self, ords: &HashMap<u64, usize>) -> String {
        let ord = |id: u64| ords.get(&id).map_or_else(|| "?".to_string(), |o| o.to_string());
        match self {
            Reason::Lock(id) => format!("blocked acquiring lock r{}", ord(id)),
            Reason::Condvar(id) => format!("waiting on condvar r{}", ord(id)),
            Reason::Recv(id) => format!("receiving on channel r{}", ord(id)),
            Reason::Join(t) => format!("joining thread {t}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Runnable,
    Blocked { reason: Reason, timeoutable: bool },
    Finished,
}

struct LockSt {
    owner: Option<usize>,
    poisoned: bool,
}

struct St {
    threads: Vec<TState>,
    names: Vec<String>,
    current: usize,
    preemptions_left: usize,
    steps: usize,
    max_steps: usize,
    /// Decision indices to replay before exploring (DFS prefix or a
    /// user-supplied seed).
    prefix: Vec<usize>,
    cursor: usize,
    /// Every decision taken this schedule where more than one
    /// alternative existed: `(chosen, alternatives)`.
    trace: Vec<(usize, usize)>,
    /// In replay mode the execution must follow the seed exactly;
    /// needing a decision past its end is a divergence.
    strict_replay: bool,
    failure: Option<FailureKind>,
    aborting: bool,
    locks: HashMap<u64, LockSt>,
    /// FIFO wait queues per condvar id.
    cv_waiters: HashMap<u64, Vec<usize>>,
    /// Threads whose last block ended in a modelled timeout (set by the
    /// idle rescue, consumed when the thread resumes).
    timed_out: HashMap<usize, bool>,
    /// Resource id → first-touch ordinal; keeps printed thread states
    /// stable across runs (the ids themselves are addresses).
    res_ords: HashMap<u64, usize>,
    /// OS wrapper threads still live; the driver waits for zero before
    /// starting the next schedule.
    live_os: usize,
}

pub(crate) struct Sched {
    st: Mutex<St>,
    cv: Condvar,
}

type Guard<'a> = std::sync::MutexGuard<'a, St>;

impl Sched {
    fn new(cfg: &Config, prefix: Vec<usize>, strict_replay: bool) -> Self {
        Sched {
            st: Mutex::new(St {
                threads: vec![TState::Runnable],
                names: vec!["main".to_string()],
                current: 0,
                preemptions_left: cfg.max_preemptions,
                steps: 0,
                max_steps: cfg.max_steps,
                prefix,
                cursor: 0,
                trace: Vec::new(),
                strict_replay,
                failure: None,
                aborting: false,
                locks: HashMap::new(),
                cv_waiters: HashMap::new(),
                timed_out: HashMap::new(),
                res_ords: HashMap::new(),
                live_os: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a failure and unwinds every model thread. The caller is a
    /// model thread itself and unwinds via the panic.
    fn fail(&self, st: &mut St, kind: FailureKind) -> ! {
        if st.failure.is_none() {
            st.failure = Some(kind);
        }
        st.aborting = true;
        self.cv.notify_all();
        panic::panic_any(Abort);
    }

    fn abort_unwind(&self, st: Guard<'_>) -> ! {
        drop(st);
        panic::panic_any(Abort);
    }

    /// Picks one of `options` alternatives: the next prefix entry while
    /// replaying, alternative 0 once exploring. Single-option decisions
    /// are taken silently so seeds stay short.
    fn decide(&self, st: &mut St, options: usize) -> usize {
        debug_assert!(options > 0);
        st.steps += 1;
        if st.steps > st.max_steps {
            self.fail(st, FailureKind::StepLimit);
        }
        if options == 1 {
            return 0;
        }
        let chosen = if st.cursor < st.prefix.len() {
            let c = st.prefix[st.cursor];
            if c >= options {
                let why = format!("decision {} chose alternative {c} of {options}", st.cursor);
                self.fail(st, FailureKind::ReplayDiverged(why));
            }
            c
        } else if st.strict_replay {
            let why = format!("execution needed a decision past the seed's {} entries", st.cursor);
            self.fail(st, FailureKind::ReplayDiverged(why));
        } else {
            0
        };
        st.cursor += 1;
        st.trace.push((chosen, options));
        chosen
    }

    /// Assigns `id` its first-touch ordinal if it has none yet.
    fn touch_res(st: &mut St, id: u64) {
        let n = st.res_ords.len();
        st.res_ords.entry(id).or_insert(n);
    }

    fn runnable(st: &St) -> Vec<usize> {
        (0..st.threads.len())
            .filter(|&t| st.threads[t] == TState::Runnable)
            .collect()
    }

    /// Parks the calling thread until it is scheduled (current and
    /// runnable), unwinding if the model is torn down meanwhile.
    fn park_until_scheduled<'a>(&'a self, mut st: Guard<'a>, me: usize) -> Guard<'a> {
        loop {
            if st.aborting {
                self.abort_unwind(st);
            }
            if st.current == me && st.threads[me] == TState::Runnable {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A switch point for a still-runnable thread: the explorer may
    /// preempt it (budget permitting) in favour of any runnable peer.
    pub(crate) fn switch_point(&self, me: usize) {
        let mut st = self.lock();
        if st.aborting {
            self.abort_unwind(st);
        }
        debug_assert_eq!(st.current, me, "switch point from a descheduled thread");
        let others: Vec<usize> = Self::runnable(&st).into_iter().filter(|&t| t != me).collect();
        let options = if st.preemptions_left == 0 || others.is_empty() {
            1 // continue running `me`
        } else {
            1 + others.len()
        };
        let chosen = self.decide(&mut st, options);
        if chosen > 0 {
            st.preemptions_left -= 1;
            // decide() returns < 1 + others.len(), so chosen - 1
            // indexes others in bounds.
            st.current = others[chosen - 1];
            self.cv.notify_all();
            let st = self.park_until_scheduled(st, me);
            drop(st);
        }
    }

    /// A nondeterministic `arms`-way branch (e.g. timeout fires / does
    /// not); returns the chosen arm.
    pub(crate) fn nondet(&self, me: usize, arms: usize) -> usize {
        let mut st = self.lock();
        if st.aborting {
            self.abort_unwind(st);
        }
        debug_assert_eq!(st.current, me);
        self.decide(&mut st, arms)
    }

    /// Hands control to some runnable thread after the current one
    /// stopped being runnable (blocked or finished). Forced — costs no
    /// preemption. If nothing can run: wake timeoutable waiters (their
    /// deadlines would fire in reality); if there are none, it is a
    /// deadlock (or, with all threads finished, the end of the run).
    fn schedule_other(&self, st: &mut St) {
        let mut runnable = Self::runnable(st);
        if runnable.is_empty() {
            let mut rescued = false;
            for t in 0..st.threads.len() {
                if matches!(st.threads[t], TState::Blocked { timeoutable: true, .. }) {
                    st.threads[t] = TState::Runnable;
                    st.timed_out.insert(t, true);
                    rescued = true;
                }
            }
            if rescued {
                runnable = Self::runnable(st);
            }
        }
        if runnable.is_empty() {
            if st.threads.iter().all(|t| *t == TState::Finished) {
                self.cv.notify_all(); // wake the driver
                return;
            }
            let states: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let name = &st.names[i];
                    match t {
                        TState::Runnable => format!("thread {i} ({name}): runnable"),
                        TState::Blocked { reason, .. } => {
                            format!("thread {i} ({name}): {}", reason.describe(&st.res_ords))
                        }
                        TState::Finished => format!("thread {i} ({name}): finished"),
                    }
                })
                .collect();
            self.fail(st, FailureKind::Deadlock(states));
        }
        let chosen = self.decide(st, runnable.len());
        st.current = runnable[chosen];
        self.cv.notify_all();
    }

    /// Blocks the calling thread on `reason` until woken; returns true
    /// when the wake was a modelled timeout (only possible with
    /// `timeoutable`). Wakes are granted by [`Sched::wake`],
    /// [`Sched::release`], [`Sched::cv_notify`] or the idle rescue.
    pub(crate) fn block_on(&self, me: usize, reason: Reason, timeoutable: bool) -> bool {
        let mut st = self.lock();
        if st.aborting {
            self.abort_unwind(st);
        }
        debug_assert_eq!(st.current, me);
        match reason {
            Reason::Lock(id) | Reason::Condvar(id) | Reason::Recv(id) => {
                Self::touch_res(&mut st, id);
            }
            Reason::Join(_) => {}
        }
        st.threads[me] = TState::Blocked { reason, timeoutable };
        self.schedule_other(&mut st);
        let mut st = self.park_until_scheduled(st, me);
        let timed_out = st.timed_out.remove(&me).unwrap_or(false);
        drop(st);
        timed_out
    }

    /// Marks blocked threads matching `pred` runnable (they still run
    /// only when a later decision schedules them).
    pub(crate) fn wake(&self, pred: impl Fn(Reason) -> bool) {
        let mut st = self.lock();
        Self::wake_where(&mut st, pred);
        self.cv.notify_all();
    }

    fn wake_where(st: &mut St, pred: impl Fn(Reason) -> bool) {
        for t in 0..st.threads.len() {
            if let TState::Blocked { reason, .. } = st.threads[t] {
                if pred(reason) {
                    st.threads[t] = TState::Runnable;
                }
            }
        }
    }

    // ------------------------------------------------- lock bookkeeping

    /// Attempts to take `lock_id` for `me`. Returns `(acquired,
    /// poisoned)`.
    pub(crate) fn try_acquire(&self, me: usize, lock_id: u64) -> (bool, bool) {
        let mut st = self.lock();
        if st.aborting {
            self.abort_unwind(st);
        }
        Self::touch_res(&mut st, lock_id);
        let entry = st
            .locks
            .entry(lock_id)
            .or_insert(LockSt { owner: None, poisoned: false });
        if entry.owner.is_none() {
            entry.owner = Some(me);
            (true, entry.poisoned)
        } else {
            (false, entry.poisoned)
        }
    }

    /// Releases `lock_id`, optionally poisoning it, and wakes acquire
    /// waiters. Runs during unwinds too, so it never makes decisions.
    pub(crate) fn release(&self, lock_id: u64, poison: bool) {
        let mut st = self.lock();
        if let Some(entry) = st.locks.get_mut(&lock_id) {
            entry.owner = None;
            entry.poisoned |= poison;
        }
        Self::wake_where(&mut st, |r| r == Reason::Lock(lock_id));
        self.cv.notify_all();
    }

    // ---------------------------------------------- condvar bookkeeping

    /// Registers `me` in the condvar's FIFO queue (call before
    /// releasing the paired mutex, so no notify can slip between).
    pub(crate) fn cv_enqueue(&self, me: usize, cv_id: u64) {
        let mut st = self.lock();
        Self::touch_res(&mut st, cv_id);
        st.cv_waiters.entry(cv_id).or_default().push(me);
    }

    /// Removes `me` from the queue (timeout path); false means a notify
    /// already claimed the slot.
    pub(crate) fn cv_dequeue(&self, me: usize, cv_id: u64) -> bool {
        let mut st = self.lock();
        let q = st.cv_waiters.entry(cv_id).or_default();
        match q.iter().position(|&t| t == me) {
            Some(i) => {
                q.remove(i);
                true
            }
            None => false,
        }
    }

    /// Wakes up to `n` waiters in FIFO order; woken threads proceed to
    /// re-acquire their mutex inside the wait loop. Notifying with no
    /// waiters is a no-op — exactly the lost-wakeup semantics whose
    /// consequences (a later waiter blocking forever) the deadlock
    /// detector reports.
    pub(crate) fn cv_notify(&self, cv_id: u64, n: usize) {
        let mut st = self.lock();
        let woken: Vec<usize> = {
            let q = st.cv_waiters.entry(cv_id).or_default();
            let take = n.min(q.len());
            q.drain(..take).collect()
        };
        for t in woken {
            let waiting_here = matches!(
                st.threads[t],
                TState::Blocked { reason: Reason::Condvar(id), .. } if id == cv_id
            );
            if waiting_here {
                st.threads[t] = TState::Runnable;
            }
        }
        self.cv.notify_all();
    }

    // ----------------------------------------------- thread bookkeeping

    /// Registers a new model thread (runnable, not yet scheduled);
    /// returns its id.
    pub(crate) fn register_thread(&self, name: String) -> usize {
        let mut st = self.lock();
        let tid = st.threads.len();
        st.threads.push(TState::Runnable);
        st.names.push(name);
        st.live_os += 1;
        tid
    }

    pub(crate) fn is_finished(&self, tid: usize) -> bool {
        self.lock().threads[tid] == TState::Finished
    }

    fn finish_thread(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me] = TState::Finished;
        Self::wake_where(&mut st, |r| r == Reason::Join(me));
        if !st.aborting {
            self.schedule_other(&mut st);
        } else {
            self.cv.notify_all();
        }
    }

    fn record_panic(&self, msg: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(FailureKind::Panic(msg));
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    fn os_thread_done(&self) {
        let mut st = self.lock();
        st.live_os = st.live_os.saturating_sub(1);
        self.cv.notify_all();
    }
}

// ------------------------------------------------------- thread-local ctx

/// Handle from a model thread back to its scheduler.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) sched: Arc<Sched>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// Whether the calling thread is executing inside a model run. The
/// checked primitives delegate straight to std when this is false.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Entry shim for every model thread (including thread 0): parks until
/// first scheduled, runs `f`, converts panics into model failures and
/// swallows teardown unwinds.
pub(crate) fn run_model_thread<F: FnOnce()>(sched: Arc<Sched>, tid: usize, f: F) {
    set_ctx(Some(Ctx { sched: sched.clone(), tid }));
    let parked = panic::catch_unwind(AssertUnwindSafe(|| {
        let st = sched.lock();
        let st = sched.park_until_scheduled(st, tid);
        drop(st);
    }));
    if parked.is_ok() {
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(()) => sched.finish_thread(tid),
            Err(payload) => {
                if payload.downcast_ref::<Abort>().is_none() {
                    // `&*payload` derefs the Box so the inner payload is
                    // downcast, not the Box itself.
                    sched.record_panic(panic_message(&*payload));
                }
                // Finishing during teardown: bookkeeping only.
                let mut st = sched.lock();
                st.threads[tid] = TState::Finished;
                sched.cv.notify_all();
                drop(st);
            }
        }
    }
    set_ctx(None);
    sched.os_thread_done();
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ------------------------------------------------------------------ driver

struct RunResult {
    trace: Vec<(usize, usize)>,
    failure: Option<FailureKind>,
}

fn run_once(
    cfg: &Config,
    prefix: Vec<usize>,
    strict_replay: bool,
    f: Arc<dyn Fn() + Send + Sync>,
) -> RunResult {
    let sched = Arc::new(Sched::new(cfg, prefix, strict_replay));
    sched.lock().live_os = 1; // thread 0
    let s2 = sched.clone();
    let spawned = std::thread::Builder::new()
        .name("raal-mc-0".to_string())
        .spawn(move || run_model_thread(s2, 0, move || f()));
    let t0 = match spawned {
        Ok(handle) => handle,
        Err(e) => {
            return RunResult {
                trace: Vec::new(),
                failure: Some(FailureKind::Panic(format!("spawn failed: {e}"))),
            }
        }
    };
    // Wait until every model thread finished (or the run aborted) and
    // every OS wrapper exited, so schedules never overlap.
    {
        let mut st = sched.lock();
        loop {
            let all_done = st.threads.iter().all(|t| *t == TState::Finished);
            if (all_done || st.aborting) && st.live_os == 0 {
                break;
            }
            st = sched.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    let _ = t0.join();
    let mut st = sched.lock();
    RunResult {
        trace: std::mem::take(&mut st.trace),
        failure: st.failure.take(),
    }
}

/// The next DFS prefix after `trace`, or `None` when the space is
/// exhausted: backtrack to the deepest decision with an untried
/// alternative.
fn next_prefix(trace: &[(usize, usize)]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        let (chosen, alts) = trace[i];
        if chosen + 1 < alts {
            let mut prefix: Vec<usize> = trace[..i].iter().map(|&(c, _)| c).collect();
            prefix.push(chosen + 1);
            return Some(prefix);
        }
    }
    None
}

/// Explores every schedule of `f` within `cfg`'s bounds. Returns the
/// exploration report, or the first failing schedule with its seed.
pub fn check<F>(cfg: Config, f: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut prefix = Vec::new();
    let mut schedules = 0usize;
    loop {
        let result = run_once(&cfg, prefix.clone(), false, f.clone());
        if let Some(kind) = result.failure {
            let choices: Vec<usize> = result.trace.iter().map(|&(c, _)| c).collect();
            return Err(Failure {
                kind,
                seed: encode_seed(&choices),
                schedule: schedules,
            });
        }
        schedules += 1;
        match next_prefix(&result.trace) {
            Some(p) => prefix = p,
            None => return Ok(Report { schedules, complete: true }),
        }
        if schedules >= cfg.max_schedules {
            return Ok(Report { schedules, complete: false });
        }
    }
}

/// Re-executes exactly the schedule encoded in `seed` (from a
/// [`Failure`]); returns the failure it reproduces, or `Ok(())` if the
/// schedule now passes (e.g. after a fix).
pub fn replay<F>(cfg: Config, seed: &str, f: F) -> Result<(), Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let prefix = decode_seed(seed).map_err(|why| Failure {
        kind: FailureKind::ReplayDiverged(why),
        seed: seed.to_string(),
        schedule: 0,
    })?;
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let result = run_once(&cfg, prefix, true, f);
    match result.failure {
        Some(kind) => Err(Failure { kind, seed: seed.to_string(), schedule: 0 }),
        None => Ok(()),
    }
}

/// Test-harness entry point: explores `f` (or, when `RAAL_MC_SEED` is
/// set, replays that one schedule) and panics with the reproducing seed
/// on any failure. `name` labels the check in messages.
pub fn explore<F>(name: &str, cfg: Config, f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    if let Ok(seed) = std::env::var("RAAL_MC_SEED") {
        if let Err(fail) = replay(cfg, &seed, f) {
            panic!("model check '{name}' (replay): {fail}");
        }
        return;
    }
    match check(cfg, f) {
        Ok(report) => {
            if !report.complete {
                eprintln!(
                    "model check '{name}': schedule cap hit after {} schedules (incomplete)",
                    report.schedules
                );
            }
        }
        Err(fail) => panic!("model check '{name}': {fail}"),
    }
}
