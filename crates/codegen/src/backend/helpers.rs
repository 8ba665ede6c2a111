//! The lane-split helper threads of one executor ([`super::LaneExecutor`]).
//!
//! A split launch hands ranges `1..parts` to helpers and runs range 0 on
//! the calling thread.  Helpers start on their owner's first split launch,
//! park between ranges, and are joined when their owner drops: no launch
//! spawns or joins a thread.  This module is the one place in the backend
//! that does either.
//!
//! The one `unsafe` is the hand-off of a borrowed job: the job's lifetime
//! is erased to cross into a helper, and a drop guard ([`Handoff`]) makes
//! the caller wait — on return and on unwind alike — until every helper it
//! handed a range has finished with the job.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};

use acrobat_tensor::TensorError;

use super::BackendScratch;

/// One split launch, as the helpers see it: runs lane range `part` with
/// the running thread's working memory.
pub(super) type RangeJob<'a> =
    dyn Fn(usize, &mut BackendScratch) -> Result<(), TensorError> + Sync + 'a;

/// What a helper reports for its range: the range's result, or the panic
/// that stopped it.
type Outcome = thread::Result<Result<(), TensorError>>;

/// A helper's protocol state.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const DONE: u8 = 2;
const EXIT: u8 = 3;

/// The job a helper was handed, with the lane range it runs and the thread
/// to wake when it is done.
type Posted = (usize, &'static RangeJob<'static>, Thread);

#[derive(Default)]
struct Mailbox {
    job: Option<Posted>,
    outcome: Option<Outcome>,
}

/// State shared between a helper thread and its owner.
#[derive(Default)]
struct Shared {
    /// `IDLE` → `POSTED` (owner) → `DONE` (helper) → `IDLE` (owner), or
    /// `EXIT` (owner, on drop).
    state: AtomicU8,
    mailbox: Mutex<Mailbox>,
}

struct Helper {
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

/// Parks until `ready` holds.  Any `unpark` (or a spurious wake-up) just
/// re-tests the condition.
fn wait_until(ready: impl Fn() -> bool) {
    while !ready() {
        thread::park();
    }
}

impl Helper {
    fn start() -> Helper {
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("acrobat-lanes".into())
            .spawn(move || serve(&theirs))
            .expect("spawn lane-split helper");
        Helper { shared, thread }
    }

    fn state(&self) -> u8 {
        self.shared.state.load(Ordering::Acquire)
    }

    fn post(&self, job: Posted) {
        debug_assert_ne!(self.state(), POSTED, "helper already busy");
        let mut mailbox = self.shared.mailbox.lock().expect("mailbox");
        mailbox.job = Some(job);
        mailbox.outcome = None;
        drop(mailbox);
        self.shared.state.store(POSTED, Ordering::Release);
    }

    fn wait(&self) {
        wait_until(|| self.state() == DONE);
    }

    /// The finished range's outcome; the helper is idle again.
    fn take(&self) -> Outcome {
        let outcome = self.shared.mailbox.lock().expect("mailbox").outcome.take();
        self.shared.state.store(IDLE, Ordering::Release);
        outcome.expect("a finished helper reports an outcome")
    }
}

/// A helper thread's life: wait for a range, run it with this thread's own
/// working memory (a panic is caught and reported, and the helper serves
/// the next launch), report, repeat until told to exit.
fn serve(shared: &Shared) {
    let mut scratch = BackendScratch::default();
    loop {
        wait_until(|| matches!(shared.state.load(Ordering::Acquire), POSTED | EXIT));
        if shared.state.load(Ordering::Acquire) == EXIT {
            return;
        }
        let caller = {
            let (part, job, caller) =
                shared.mailbox.lock().expect("mailbox").job.take().expect("posted");
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(part, &mut scratch)));
            shared.mailbox.lock().expect("mailbox").outcome = Some(outcome);
            caller
        };
        // The job is not touched past this store: the caller may return,
        // and the job's borrows end, as soon as it observes `DONE`.
        shared.state.store(DONE, Ordering::Release);
        caller.unpark();
    }
}

/// Waits, when dropped, for every helper handed a range so far — on the
/// caller's return and on its unwind — so no helper outlives the borrows
/// of the job it runs.
struct Handoff<'a> {
    helpers: &'a [Helper],
    posted: usize,
}

impl Handoff<'_> {
    fn post(&mut self, part: usize, job: &'static RangeJob<'static>, caller: Thread) {
        let helper = &self.helpers[self.posted];
        helper.post((part, job, caller));
        self.posted += 1;
        helper.thread.thread().unpark();
    }
}

impl Drop for Handoff<'_> {
    fn drop(&mut self) {
        for helper in &self.helpers[..self.posted] {
            helper.wait();
        }
    }
}

/// The helper threads of one executor, started on first use.
#[derive(Default)]
pub(super) struct LaneHelpers {
    helpers: Vec<Helper>,
}

impl std::fmt::Debug for LaneHelpers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneHelpers").field("threads", &self.helpers.len()).finish()
    }
}

impl LaneHelpers {
    /// Runs `job` for every part in `0..parts` (`parts ≥ 2`): part 0 on the
    /// calling thread with `own`, part `p ≥ 1` on helper `p − 1` (started
    /// here if it is not running yet), and returns once every part has
    /// finished.  The lowest part's error wins; a helper's panic is
    /// re-raised here with its own payload, the lowest helper's first.
    pub(super) fn run(
        &mut self,
        parts: usize,
        own: &mut BackendScratch,
        job: &RangeJob<'_>,
    ) -> Result<(), TensorError> {
        debug_assert!(parts >= 2, "a one-range launch needs no helper");
        while self.helpers.len() < parts - 1 {
            self.helpers.push(Helper::start());
        }
        let helpers = &self.helpers[..parts - 1];
        // SAFETY: only the lifetime is erased.  Every helper handed the
        // job is recorded in `handoff` before this frame can unwind past
        // it, and `handoff`'s drop waits until each of them has stored
        // `DONE` — after which no helper touches the job — so the job is
        // used only while its borrows are live.
        let erased: &'static RangeJob<'static> =
            unsafe { std::mem::transmute::<&RangeJob<'_>, &'static RangeJob<'static>>(job) };
        let mut handoff = Handoff { helpers, posted: 0 };
        let caller = thread::current();
        for part in 1..parts {
            handoff.post(part, erased, caller.clone());
        }
        let mut result = job(0, own);
        drop(handoff);
        let mut panicked = None;
        for helper in helpers {
            match helper.take() {
                Ok(r) => result = result.and(r),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        result
    }
}

impl Drop for LaneHelpers {
    fn drop(&mut self) {
        for helper in self.helpers.drain(..) {
            helper.shared.state.store(EXIT, Ordering::Release);
            helper.thread.thread().unpark();
            // A helper catches every panic of the ranges it runs, so its
            // thread only ever ends by returning.
            let _ = helper.thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    use acrobat_tensor::TensorError;

    use super::{BackendScratch, LaneHelpers};

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        text.or_else(|| payload.downcast_ref::<&str>().copied()).unwrap_or_default().to_string()
    }

    /// A range that panics (as a checked-mode divergence does) re-raises on
    /// the caller with its message, after every other range ran; the same
    /// helper thread then serves the next launch.
    #[test]
    fn helper_survives_range_panic() {
        let mut helpers = LaneHelpers::default();
        let mut own = BackendScratch::default();
        let ran = Mutex::new(Vec::new());
        let served_by = Mutex::new(Vec::<ThreadId>::new());
        let diverging = |part: usize, _: &mut BackendScratch| {
            ran.lock().unwrap().push(part);
            if part == 1 {
                served_by.lock().unwrap().push(thread::current().id());
                panic!("specialized backend diverged from reference interpreter (part {part})");
            }
            Ok(())
        };
        let caught = catch_unwind(AssertUnwindSafe(|| helpers.run(3, &mut own, &diverging)));
        let message = panic_message(&*caught.expect_err("the helper's panic reaches the caller"));
        assert_eq!(message, "specialized backend diverged from reference interpreter (part 1)");
        ran.lock().unwrap().sort_unstable();
        assert_eq!(*ran.lock().unwrap(), [0, 1, 2], "every range ran");

        let clean = |part: usize, _: &mut BackendScratch| {
            if part == 1 {
                served_by.lock().unwrap().push(thread::current().id());
            }
            Ok(())
        };
        assert_eq!(helpers.run(3, &mut own, &clean), Ok(()));
        assert_eq!(helpers.helpers.len(), 2, "no helper was replaced");
        let served_by = served_by.lock().unwrap();
        assert_eq!(served_by[0], served_by[1], "the same helper thread served both launches");
        assert_ne!(served_by[0], thread::current().id());
    }

    /// The lowest range's error wins, whatever order the ranges finish in.
    #[test]
    fn lowest_range_error_wins() {
        let mut helpers = LaneHelpers::default();
        let mut own = BackendScratch::default();
        let failing = |part: usize, _: &mut BackendScratch| {
            // The higher range fails first.
            thread::sleep(Duration::from_millis(5 * (4 - part as u64)));
            match part {
                0 => Ok(()),
                p => Err(TensorError::DataLength { got: p, expected: 0 }),
            }
        };
        let want = Err(TensorError::DataLength { got: 1, expected: 0 });
        assert_eq!(helpers.run(4, &mut own, &failing), want);
    }

    /// When the caller's own range unwinds, the hand-off guard still waits
    /// for every helper to finish with the borrowed job before the borrow
    /// ends.
    #[test]
    fn unwind_waits_for_helpers() {
        let mut helpers = LaneHelpers::default();
        let mut own = BackendScratch::default();
        let finished = AtomicBool::new(false);
        let job = |part: usize, _: &mut BackendScratch| {
            if part == 0 {
                panic!("range 0 failed");
            }
            thread::sleep(Duration::from_millis(20));
            finished.store(true, Ordering::SeqCst);
            Ok(())
        };
        assert!(catch_unwind(AssertUnwindSafe(|| helpers.run(2, &mut own, &job))).is_err());
        assert!(finished.load(Ordering::SeqCst), "the helper finished before the caller unwound");
        assert_eq!(helpers.run(2, &mut own, &|_, _| Ok(())), Ok(()));
    }
}
