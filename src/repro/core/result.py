"""Result objects emitted by continuous top-k algorithms."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, List, Sequence, Tuple

from .object import StreamObject, rank_of

_score_of = attrgetter("score")
_t_of = attrgetter("t")


@dataclass(frozen=True)
class TopKResult:
    """The answer reported for one window position.

    Attributes
    ----------
    slide_index:
        Zero-based index of the window position (0 = the first full window).
    window_end:
        Arrival order / timestamp of the most recent object in the window.
    objects:
        The top-k objects, best first, under the library-wide total order.
    """

    slide_index: int
    window_end: int
    objects: Tuple[StreamObject, ...]

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[StreamObject]:
        return iter(self.objects)

    @property
    def scores(self) -> List[float]:
        """Scores of the result objects, best first."""
        return list(map(_score_of, self.objects))

    @property
    def arrival_orders(self) -> List[int]:
        """Arrival orders of the result objects, best first."""
        return list(map(_t_of, self.objects))

    def identity(self) -> Tuple[Tuple[float, int], ...]:
        """Hashable identity of the result used to compare algorithms.

        Two algorithms agree on a window when they return the same ordered
        sequence of ``(score, t)`` pairs.
        """
        return tuple(map(rank_of, self.objects))

    @staticmethod
    def from_objects(
        slide_index: int, window_end: int, objects: Sequence[StreamObject]
    ) -> "TopKResult":
        """Build a result, normalising the object order to best-first."""
        ordered = tuple(sorted(objects, key=rank_of, reverse=True))
        return TopKResult(slide_index=slide_index, window_end=window_end, objects=ordered)


def results_agree(left: Sequence[TopKResult], right: Sequence[TopKResult]) -> bool:
    """True when two result streams are identical window by window."""
    if len(left) != len(right):
        return False
    return all(a.identity() == b.identity() for a, b in zip(left, right))
