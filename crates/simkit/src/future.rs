//! Small future combinators used by the simulation code: racing two
//! futures, timeouts against virtual time, and joining handles.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::task::Poll;
use std::time::Duration;

use crate::executor::Sim;

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
/// are pinned in the caller's frame: nothing is boxed.
pub async fn race<A, B>(a: A, b: B) -> Either<A::Output, B::Output>
where
    A: Future,
    B: Future,
{
    // `b` is declared first so that `a` is dropped first: dropping a future
    // can wake other tasks, and that order (left, then right) is part of the
    // determinism contract
    let mut b = pin!(b);
    let mut a = pin!(a);
    poll_fn(|cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

/// Run `fut` with a virtual-time deadline. Returns `None` on timeout (the
/// future is dropped, cancelling whatever it was doing).
pub async fn timeout<F: Future>(sim: &Sim, limit: Duration, fut: F) -> Option<F::Output> {
    match race(fut, sim.sleep(limit)).await {
        Either::Left(v) => Some(v),
        Either::Right(()) => None,
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
