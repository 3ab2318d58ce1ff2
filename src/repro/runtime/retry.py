"""Bounded retry with backoff for fault-tolerant dispatch.

Used by the batch service to retry crashed or timed-out jobs: a few
quick attempts with a pause between them, then give up and let the
caller degrade (record UNKNOWN verdicts) instead of looping forever on a
deterministic failure.

Two pause policies:

* **linear** (the default, unchanged from day one): attempt *k* waits
  ``backoff_seconds * k`` — predictable, fine for a handful of workers
  on one host;
* **exponential with full jitter** (``exponential=True``): attempt *k*
  waits ``uniform(0, min(cap, backoff_seconds * 2**(k-1)))`` — the
  fleet-scale policy that prevents requeue stampedes when many workers
  fail at once (every retrier picking the same pause is how a recovering
  service gets re-flattened).  The jitter draw comes from the caller's
  ``rng`` (a seeded ``random.Random``) so tests stay deterministic.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, TypeVar

__all__ = ["backoff_pause", "run_with_retries"]

T = TypeVar("T")

#: Default ceiling for an exponential pause (seconds).
DEFAULT_BACKOFF_CAP = 2.0


def backoff_pause(
    attempt: int,
    backoff_seconds: float,
    exponential: bool = False,
    backoff_cap: float = DEFAULT_BACKOFF_CAP,
    rng: Optional[random.Random] = None,
) -> float:
    """The pause before re-attempt number ``attempt`` (1-based).

    Linear policy: ``backoff_seconds * attempt``.  Exponential policy:
    full jitter over ``min(backoff_cap, backoff_seconds * 2**(attempt-1))``
    drawn from ``rng`` (an unseeded shared RNG when None).
    """
    attempt = max(1, int(attempt))
    if not exponential:
        return backoff_seconds * attempt
    ceiling = min(backoff_cap, backoff_seconds * (2 ** (attempt - 1)))
    if ceiling <= 0:
        return 0.0
    draw = (rng or random).random()
    return ceiling * draw


def run_with_retries(
    fn: Callable[[], T],
    attempts: int = 2,
    backoff_seconds: float = 0.05,
    deadline: Optional[float] = None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    exponential: bool = False,
    backoff_cap: float = DEFAULT_BACKOFF_CAP,
    rng: Optional[random.Random] = None,
) -> Tuple[Optional[T], Optional[BaseException], int]:
    """Call ``fn`` up to ``attempts`` times; returns (result, error, retries).

    On success the error slot is None; after the final failed attempt the
    result slot is None and the last exception is returned (never raised —
    the caller decides whether a failure is fatal).  ``deadline`` (a
    ``time.monotonic()`` timestamp) stops further attempts once passed.
    ``on_retry(attempt_index, exc)`` is invoked before each re-attempt.
    ``exponential`` switches the pause policy to exponential backoff with
    full jitter, capped at ``backoff_cap`` and drawn from ``rng`` (pass a
    seeded ``random.Random`` for reproducible schedules).
    KeyboardInterrupt is always re-raised.
    """
    attempts = max(1, int(attempts))
    last_error: Optional[BaseException] = None
    retries = 0
    for attempt in range(attempts):
        if attempt > 0:
            if deadline is not None and time.monotonic() >= deadline:
                break
            retries += 1
            if on_retry is not None:
                on_retry(attempt, last_error)  # type: ignore[arg-type]
            pause = backoff_pause(
                attempt,
                backoff_seconds,
                exponential=exponential,
                backoff_cap=backoff_cap,
                rng=rng,
            )
            if pause > 0:
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - time.monotonic()))
                time.sleep(pause)
        try:
            return fn(), None, retries
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            last_error = exc
    return None, last_error, retries
