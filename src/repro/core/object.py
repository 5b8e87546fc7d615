"""Stream objects and the total order used throughout the library.

The paper reasons about objects ``o`` carrying a preference score ``F(o)``
and an arrival order ``o.t``.  Dominance (Section 2.1) is defined as::

    o' dominates o   iff   F(o) < F(o')  and  o.t <= o'.t

i.e. the dominating object arrived no earlier and scores strictly higher,
therefore it stays in the window at least as long as ``o`` and always beats
it.  Ties on the raw score are possible in real streams, so every algorithm
in this library uses the same deterministic total order: an object ranks
above another when its ``(score, arrival)`` pair is larger.  Newer objects
win score ties, which matches the intuition that the newer object will also
outlive the older one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class StreamObject:
    """A single element of the data stream.

    Attributes
    ----------
    score:
        The preference score ``F(o)`` of the object.  Scores are computed
        once, when the object enters the system, so that every algorithm
        pays ``costF`` exactly once per object.
    t:
        Arrival order.  Must be unique and strictly increasing within a
        stream; it doubles as the tie breaker of the total order.
    payload:
        Optional application data (e.g. the original transaction record).
        It never influences query processing.
    timestamp:
        Wall-clock arrival time, used only by time-based windows.  Several
        objects may share a timestamp (they arrive "simultaneously"); when
        omitted, the arrival order ``t`` is used as the timestamp.
    """

    score: float
    t: int
    payload: Any = field(default=None, compare=False, hash=False)
    timestamp: Optional[int] = None

    @property
    def arrival_time(self) -> int:
        """Timestamp used by time-based windows (defaults to ``t``)."""
        return self.t if self.timestamp is None else self.timestamp

    @property
    def rank_key(self) -> Tuple[float, int]:
        """Total-order key: higher key means better (preferred) object."""
        return (self.score, self.t)

    def beats(self, other: "StreamObject") -> bool:
        """Return True when this object ranks above ``other``."""
        return self.rank_key > other.rank_key

    def dominated_by(self, other: "StreamObject") -> bool:
        """Return True when ``other`` dominates this object.

        Dominance follows the paper's definition with the library-wide tie
        break: the dominator arrived no earlier and has a larger rank key.
        """
        return other.t >= self.t and other.rank_key > self.rank_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamObject(score={self.score!r}, t={self.t!r})"


#: The rank key ``(score, t)`` of an object, read in C: the tuple
#: :attr:`StreamObject.rank_key` returns, without a Python call.
rank_of = attrgetter("score", "t")


def sort_by_rank(objects: Iterable[StreamObject], reverse: bool = True) -> List[StreamObject]:
    """Sort objects by the library-wide total order.

    ``reverse=True`` (default) places the best object first.
    """
    return sorted(objects, key=rank_of, reverse=reverse)


def top_k(objects: Iterable[StreamObject], k: int) -> List[StreamObject]:
    """Return the ``k`` best objects under the library-wide total order.

    The result is sorted best-first.  Fewer than ``k`` objects are returned
    when the input is smaller than ``k``.
    """
    if k <= 0:
        return []
    ranked = sort_by_rank(objects)
    return ranked[:k]


def kth_score(objects: Iterable[StreamObject], k: int) -> float:
    """Score of the k-th best object, or ``-inf`` if fewer than ``k`` exist."""
    best = top_k(objects, k)
    if len(best) < k:
        return float("-inf")
    return best[-1].score
