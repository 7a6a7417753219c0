//! Small future combinators used by the simulation code: racing two
//! futures, timeouts against virtual time, and joining handles.
//!
//! [`Race`] and [`Timeout`] are plain structs that hold their futures
//! inline, pinned structurally: an `async fn` combinator keeps a by-value
//! argument beside the pinned local it is moved into, so every task that
//! awaits one (each KV attempt does) would carry its future twice.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::{Sim, Sleep};

/// Outcome of [`race`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Run two futures concurrently; resolve with whichever finishes first and
/// drop the loser. Ties go to the left future (polled first). Both futures
/// are held inline in the returned [`Race`]: nothing is boxed.
pub fn race<A, B>(a: A, b: B) -> Race<A, B>
where
    A: Future,
    B: Future,
{
    Race { a, b }
}

/// Future returned by [`race`].
#[must_use = "futures do nothing unless polled"]
pub struct Race<A, B> {
    // declaration order is drop order: `a` is dropped first. Dropping a
    // future can wake other tasks, and that order (left, then right) is
    // part of the determinism contract
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of both fields. `Race` never moves
        // them out, has no `Drop` impl, and is `Unpin` only when both
        // are (the auto trait), so neither is moved once pinned.
        let this = unsafe { self.get_unchecked_mut() };
        // SAFETY: see above
        let a = unsafe { Pin::new_unchecked(&mut this.a) };
        if let Poll::Ready(v) = a.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        // SAFETY: see above
        let b = unsafe { Pin::new_unchecked(&mut this.b) };
        if let Poll::Ready(v) = b.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Run `fut` with a virtual-time deadline `limit` from now. Resolves to
/// `None` on timeout (the future is dropped, cancelling whatever it was
/// doing). The deadline's timer is registered here, before `fut` is first
/// polled; a tie goes to `fut`.
pub fn timeout<F: Future>(sim: &Sim, limit: Duration, fut: F) -> Timeout<F> {
    Timeout(race(fut, sim.sleep(limit)))
}

/// Future returned by [`timeout`]: a [`Race`] of the future against its
/// deadline.
#[must_use = "futures do nothing unless polled"]
pub struct Timeout<F>(Race<F, Sleep>);

impl<F: Future> Future for Timeout<F> {
    type Output = Option<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of the one field, which is never
        // moved out (no `Drop` impl, `Unpin` only as the auto trait).
        let race = unsafe { self.map_unchecked_mut(|t| &mut t.0) };
        race.poll(cx).map(|won| match won {
            Either::Left(v) => Some(v),
            Either::Right(()) => None,
        })
    }
}

/// Await every future in `futs`, returning outputs in input order.
///
/// Drives all futures concurrently (each is spawned on `sim`), so total
/// virtual time is the max, not the sum.
pub async fn join_all<F>(sim: &Sim, futs: Vec<F>) -> Vec<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let handles: Vec<_> = futs.into_iter().map(|f| sim.spawn(f)).collect();
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{dur, Time};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn race_picks_earlier_finisher() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let fast = async {
                s.sleep(dur::ms(1)).await;
                "fast"
            };
            let slow = async {
                s.sleep(dur::ms(100)).await;
                "slow"
            };
            race(slow, fast).await
        });
        assert_eq!(out, Either::Right("fast"));
        // loser's 100ms timer was cancelled: clock stops at 1ms
        assert_eq!(sim.now(), Time::from_millis(1));
    }

    #[test]
    fn race_tie_prefers_left() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let a = s.sleep(dur::ms(5));
            let b = s.sleep(dur::ms(5));
            race(a, b).await
        });
        assert_eq!(out, Either::Left(()));
    }

    /// Drops a log entry when dropped.
    struct Guard(&'static str, Rc<RefCell<Vec<&'static str>>>);

    impl Drop for Guard {
        fn drop(&mut self) {
            self.1.borrow_mut().push(self.0);
        }
    }

    #[test]
    fn race_drops_left_then_right() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let (s, l) = (sim.clone(), Rc::clone(&log));
        let out = sim.block_on(async move {
            let left = Guard("left", Rc::clone(&l));
            let right = Guard("right", Rc::clone(&l));
            let slow = async move {
                let _held = left;
                s.sleep(dur::ms(5)).await;
            };
            let fast = async move {
                let _held = right;
                std::future::pending::<()>().await;
            };
            let won = race(slow, fast).await;
            l.borrow_mut().push("resolved");
            won
        });
        assert_eq!(out, Either::Left(()));
        // both are dropped with the race, the loser too, left first
        assert_eq!(*log.borrow(), ["left", "right", "resolved"]);
    }

    #[test]
    fn timeout_tie_goes_to_the_future() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let fut = s.sleep(dur::ms(5));
            timeout(&s, dur::ms(5), fut).await
        });
        // `fut`'s timer was registered first, so it fires first; even
        // polled together, the future is polled before the deadline
        assert_eq!(out, Some(()));
    }

    #[test]
    fn timeout_expires() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            timeout(&s, dur::ms(10), async {
                s.sleep(dur::secs(5)).await;
                1u32
            })
            .await
        });
        assert_eq!(out, None);
        assert_eq!(sim.now(), Time::from_millis(10));
    }

    #[test]
    fn timeout_passes_through_fast_result() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            timeout(&s, dur::secs(10), async {
                s.sleep(dur::ms(1)).await;
                7u32
            })
            .await
        });
        assert_eq!(out, Some(7));
    }

    #[test]
    fn join_all_is_concurrent() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let futs: Vec<_> = (1..=4u64)
                .map(|i| {
                    let s = s.clone();
                    async move {
                        s.sleep(dur::ms(i * 10)).await;
                        i
                    }
                })
                .collect();
            let res = join_all(&s, futs).await;
            (res, s.now())
        });
        // outputs in input order, elapsed = max (40ms) not sum (100ms)
        assert_eq!(out.0, vec![1, 2, 3, 4]);
        assert_eq!(out.1, Time::from_millis(40));
    }

    #[test]
    fn join_all_empty() {
        let sim = Sim::new();
        let s = sim.clone();
        let out =
            sim.block_on(async move { join_all(&s, Vec::<crate::executor::Sleep>::new()).await });
        assert!(out.is_empty());
    }
}
