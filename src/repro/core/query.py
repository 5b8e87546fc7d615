"""Continuous top-k query specification.

A continuous top-k query is the tuple ``⟨n, k, s, F⟩`` from the paper:

* ``n``  — window size (number of objects for count-based windows, or a
  duration in time units for time-based windows);
* ``k``  — number of result objects reported at every slide;
* ``s``  — slide size (number of newly arrived objects, or a time interval);
* ``F``  — preference function mapping a raw record to a numeric score.

``F`` is applied once per object, when the object enters the system
(:class:`~repro.core.object.StreamObject` carries the score): the stream
sources take it as their ``preference=`` (see :mod:`repro.streams`), and
preference subscriptions declare a linear ``F`` as a weight vector
(:meth:`repro.engine.spec.QuerySpec.preferring`).  :class:`TopKQuery`
therefore holds the window shape ``⟨n, k, s⟩`` only.

The query object also exposes the derived quantities the SAP partitioners
need: the suggested number of equal partitions ``m*``, the minimal partition
size ``l_min`` and the maximal partition size ``l_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import InvalidQueryError


@dataclass(frozen=True)
class TopKQuery:
    """Immutable description of a continuous top-k query.

    Parameters
    ----------
    n:
        Window size.  Must be positive and at least ``k`` and at least ``s``.
    k:
        Number of results per slide.  Must be positive.
    s:
        Slide size.  Must be positive and no larger than ``n``.
    time_based:
        ``False`` (default) for count-based windows, ``True`` for time-based
        windows where ``n`` and ``s`` are durations.
    """

    n: int
    k: int
    s: int = 1
    time_based: bool = False

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise InvalidQueryError(f"window size n must be positive, got {self.n}")
        if self.k <= 0:
            raise InvalidQueryError(f"result size k must be positive, got {self.k}")
        if self.s <= 0:
            raise InvalidQueryError(f"slide s must be positive, got {self.s}")
        if self.s > self.n:
            raise InvalidQueryError(
                f"slide s={self.s} cannot exceed the window size n={self.n}"
            )
        if not self.time_based and self.k > self.n:
            raise InvalidQueryError(
                f"k={self.k} cannot exceed the count-based window size n={self.n}"
            )

    # ------------------------------------------------------------------
    # Derived quantities used by the SAP partitioners (Section 4).
    # ------------------------------------------------------------------
    @property
    def slides_per_window(self) -> int:
        """Number of slides that fit in one window (``n / s`` rounded up)."""
        return max(1, math.ceil(self.n / self.s))

    @property
    def m_star(self) -> int:
        """``m* = ⌈√(n / max(s, k))⌉`` — the equal-partition resolution that
        minimises the upper bound of ``|C ∪ M0|`` (Section 4.1)."""
        return max(1, math.ceil(math.sqrt(self.n / max(self.s, self.k))))

    @property
    def l_min(self) -> int:
        """Minimal partition size ``l_min = n / m*`` (Section 4.2).

        The value is rounded up to a whole number of slides and never drops
        below ``max(s, k)`` so that every partition can hold ``P_i^k`` and a
        whole number of simultaneously arriving objects.
        """
        raw = self.n / self.m_star
        floor = max(self.s, self.k, int(math.ceil(raw)))
        return self._round_up_to_slide(floor)

    def l_max(self, eta: float) -> int:
        """Maximal partition size, the solution of ``(n - l_max)/l_max = η``
        (Section 4.2), i.e. ``l_max = n / (1 + η)``, floored to a whole
        number of slides but never below ``l_min``."""
        raw = int(self.n / (1.0 + eta))
        candidate = max(self.l_min, self._round_down_to_slide(raw))
        return candidate

    # ------------------------------------------------------------------
    def _round_up_to_slide(self, value: int) -> int:
        if value % self.s == 0:
            return value
        return (value // self.s + 1) * self.s

    def _round_down_to_slide(self, value: int) -> int:
        if value < self.s:
            return self.s
        return (value // self.s) * self.s

    def describe(self) -> str:
        """Human-readable one-line description of the query."""
        kind = "time-based" if self.time_based else "count-based"
        return f"top-{self.k} over a {kind} window of {self.n} (slide {self.s})"

