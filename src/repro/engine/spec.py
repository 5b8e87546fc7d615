"""The unified, typed query specification: one object, every entry point.

:class:`~repro.core.query.TopKQuery` is the immutable window shape
``⟨n, k, s⟩`` whose constructor validates everything at once (``F`` is
applied where objects enter: the sources score them, and a preference
vector declares a linear ``F``).  :class:`QuerySpec` is the
declaration callers hand to the engines: the window shape *plus* the
execution choices that used to be scattered over three different
subscription signatures — the algorithm and its options, and an optional
linear preference vector::

    spec = (
        QuerySpec()
        .window(5000)          # n: last 5000 objects ...
        .top(10)               # k: ... report the best 10 ...
        .slide(100)            # s: ... every 100 arrivals
        .using("MinTopK")      # algorithm (+ options)
        .preferring((2.0, 1.0))  # optional: rank by w · attributes
    )
    engine.subscribe("alerts", spec)

``QuerySpec(n=5000, k=10, s=100, algorithm="MinTopK")`` works too — every
fluent method has a matching constructor argument.  The same object (via
:meth:`from_dict`) is the single validator behind the REST body of
``POST /v1/subscriptions``, so `StreamEngine.subscribe`,
`ShardedStreamEngine.subscribe`, and the wire all enforce identical
rules: shape problems raise
:class:`~repro.core.exceptions.InvalidQueryError`, preference problems
raise :class:`~repro.streams.preference.PreferenceError`.

The legacy positional form (``subscribe(name, spec, "SAP", **options)``)
still works.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Mapping, Optional, Tuple

from ..core.exceptions import InvalidQueryError
from ..core.query import TopKQuery
from ..registry import create_algorithm


def _integral(value: object, key: str) -> int:
    """``value`` as an int; a boolean, a fraction or a non-number is
    refused rather than truncated (``10.0`` is ten, ``10.9`` is refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidQueryError(f"{key!r} must be an integer, got {value!r}")
    if not isinstance(value, numbers.Integral):
        if not (math.isfinite(value) and float(value).is_integer()):
            raise InvalidQueryError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


class QuerySpec:
    """Typed, validating declaration of one continuous top-k query."""

    def __init__(
        self,
        n: Optional[int] = None,
        k: Optional[int] = None,
        s: int = 1,
        time_based: bool = False,
        algorithm: Optional[str] = None,
        options: Optional[Dict[str, object]] = None,
        vector: Optional[Tuple[float, ...]] = None,
        cluster_id: Optional[int] = None,
        pad_factor: Optional[float] = None,
    ) -> None:
        self._n = n
        self._k = k
        self._s = s
        self._time_based = time_based
        self._algorithm = algorithm
        self._options: Dict[str, object] = dict(options or {})
        self._vector = None if vector is None else tuple(vector)
        self._cluster_id = cluster_id
        self._pad_factor = pad_factor

    # ------------------------------------------------------------------
    # Fluent setters (each returns self so calls chain).
    # ------------------------------------------------------------------
    def window(self, n: int) -> "QuerySpec":
        """Window size: an object count, or a duration when time-based."""
        self._n = n
        return self

    def top(self, k: int) -> "QuerySpec":
        """Number of result objects reported at every slide."""
        self._k = k
        return self

    def slide(self, s: int) -> "QuerySpec":
        """Slide size: an arrival count, or a duration when time-based."""
        self._s = s
        return self

    def over_time(self, time_based: bool = True) -> "QuerySpec":
        """Interpret ``n`` and ``s`` as durations (time-based window)."""
        self._time_based = time_based
        return self

    def over_count(self) -> "QuerySpec":
        """Interpret ``n`` and ``s`` as object counts (the default)."""
        self._time_based = False
        return self

    def using(self, algorithm: str, **options: object) -> "QuerySpec":
        """Algorithm (a :mod:`repro.registry` name) and its options."""
        self._algorithm = algorithm
        self._options.update(options)
        return self

    def preferring(
        self,
        vector,
        *,
        cluster_id: Optional[int] = None,
        pad_factor: Optional[float] = None,
    ) -> "QuerySpec":
        """Rank by the linear preference ``vector · attributes(payload)``.

        The subscription then shares a padded-k cluster plan with
        co-windowed similar vectors (:mod:`repro.core.clustering`);
        ``algorithm`` names the *inner* core the cluster runs.
        """
        self._vector = tuple(vector)
        if cluster_id is not None:
            self._cluster_id = int(cluster_id)
        if pad_factor is not None:
            self._pad_factor = float(pad_factor)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> Optional[str]:
        return self._algorithm

    @property
    def vector(self) -> Optional[Tuple[float, ...]]:
        return self._vector

    @property
    def options(self) -> Dict[str, object]:
        return dict(self._options)

    def carries_execution(self) -> bool:
        """Whether this spec declares how to run, not just what to ask
        (algorithm, options, or a preference vector)."""
        return (
            self._algorithm is not None
            or bool(self._options)
            or self._vector is not None
        )

    # ------------------------------------------------------------------
    # Validation — the single rule set behind every entry point
    # ------------------------------------------------------------------
    def validate(self) -> "QuerySpec":
        """Check the whole declaration; returns self when consistent.

        Window-shape problems raise :class:`InvalidQueryError`;
        preference problems raise
        :class:`~repro.streams.preference.PreferenceError`.
        """
        from ..streams.preference import PreferenceError

        self.build()  # InvalidQueryError on shape problems
        if self._algorithm is not None:
            from ..registry import algorithm_names

            if self._algorithm not in algorithm_names():
                raise InvalidQueryError(
                    f"unknown algorithm {self._algorithm!r}; "
                    f"have {algorithm_names()}"
                )
        if self._vector is not None:
            from ..core.clustering import validate_vector

            try:
                validate_vector(self._vector)
            except InvalidQueryError as exc:
                raise PreferenceError(f"invalid preference vector: {exc}") from None
            if self._pad_factor is not None and not 1.0 <= self._pad_factor < math.inf:
                raise PreferenceError(
                    f"pad_factor must be finite and >= 1, got {self._pad_factor}"
                )
            if self._algorithm == "clustered":
                raise PreferenceError(
                    "'clustered' is the sharing wrapper itself; name the "
                    "inner algorithm in using() (default SAP)"
                )
        elif self._algorithm == "clustered":
            raise PreferenceError(
                "the 'clustered' algorithm needs a preference vector; "
                "declare one with preferring() (and name the inner "
                "algorithm in using())"
            )
        elif self._cluster_id is not None or self._pad_factor is not None:
            raise PreferenceError(
                "cluster_id / pad_factor only apply to preference "
                "subscriptions; declare a vector with preferring()"
            )
        return self

    def execution_plan(self) -> Tuple[str, Dict[str, object]]:
        """The validated ``(algorithm, options)`` pair an engine runs.

        For preference specs the plan is the ``"clustered"`` wrapper
        around the named inner algorithm; ``options["cluster_id"]`` is
        left to the engine when the spec does not pin one (assignment is
        engine-central).
        """
        self.validate()
        algorithm = self._algorithm or "SAP"
        if self._vector is None:
            return algorithm, dict(self._options)
        options = dict(self._options)
        options["vector"] = self._vector
        options["inner"] = algorithm
        if self._cluster_id is not None:
            options["cluster_id"] = int(self._cluster_id)
        if self._pad_factor is not None:
            options["pad_factor"] = float(self._pad_factor)
        return "clustered", options

    # ------------------------------------------------------------------
    def build(self) -> TopKQuery:
        """Validate and freeze the window shape into a :class:`TopKQuery`."""
        if self._n is None:
            raise InvalidQueryError("QuerySpec is missing the window size: call .window(n)")
        if self._k is None:
            raise InvalidQueryError("QuerySpec is missing the result size: call .top(k)")
        return TopKQuery(
            n=self._n,
            k=self._k,
            s=self._s,
            time_based=self._time_based,
        )

    @classmethod
    def from_query(cls, query: TopKQuery) -> "QuerySpec":
        """Builder pre-populated from an existing query."""
        return cls(n=query.n, k=query.k, s=query.s, time_based=query.time_based)

    # ------------------------------------------------------------------
    # Wire form (the REST body of POST /v1/subscriptions)
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, body: Mapping, *, default_algorithm: str = "SAP"
    ) -> "QuerySpec":
        """Validate a wire dict into a spec — the REST body validator.

        Recognised keys: ``n``, ``k``, ``s``, ``time_based``,
        ``algorithm``, ``options``, ``preference`` (a weight vector),
        ``cluster_id``, ``pad_factor``.  ``algorithm: "clustered"``
        alongside a ``preference`` names the default inner core, matching
        the legacy wire behaviour.
        """
        if not isinstance(body, Mapping):
            raise InvalidQueryError("the subscription body must be a JSON object")
        unknown = set(body) - {
            "name", "n", "k", "s", "time_based", "algorithm", "options",
            "preference", "cluster_id", "pad_factor",
        }
        if unknown:
            raise InvalidQueryError(
                f"unknown subscription parameter(s): {sorted(unknown)}"
            )
        missing = [key for key in ("n", "k") if key not in body]
        if missing:
            raise InvalidQueryError(f"missing query parameter {missing[0]!r}")
        n = _integral(body["n"], "n")
        k = _integral(body["k"], "k")
        s = _integral(body.get("s", 1), "s")
        algorithm = body.get("algorithm", default_algorithm)
        if not isinstance(algorithm, str):
            raise InvalidQueryError(
                f"'algorithm' must be a string, got {type(algorithm).__name__}"
            )
        options = body.get("options") or {}
        if not isinstance(options, Mapping):
            raise InvalidQueryError("'options' must be a JSON object")
        preference = body.get("preference")
        vector = None
        if preference is not None:
            if not isinstance(preference, (list, tuple)):
                from ..streams.preference import PreferenceError

                raise PreferenceError(
                    "'preference' must be an array of weights"
                )
            vector = tuple(preference)
            if algorithm == "clustered":
                # "clustered" is the wrapper itself; a preference query's
                # ``algorithm`` names the inner core it shares.
                algorithm = default_algorithm
        time_based = body.get("time_based", False)
        if not isinstance(time_based, bool):
            raise InvalidQueryError(f"'time_based' must be a boolean, got {time_based!r}")
        cluster_id = body.get("cluster_id")
        pad_factor = body.get("pad_factor")
        if cluster_id is not None:
            cluster_id = _integral(cluster_id, "cluster_id")
        try:
            pad_factor = None if pad_factor is None else float(pad_factor)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidQueryError(f"invalid cluster option: {exc}") from None
        spec = cls(
            n=n,
            k=k,
            s=s,
            time_based=time_based,
            algorithm=algorithm,
            options=dict(options),
            vector=vector,
            cluster_id=cluster_id,
            pad_factor=pad_factor,
        )
        return spec.validate()

    def to_dict(self) -> Dict[str, object]:
        """The wire form of this spec (inverse of :meth:`from_dict` for
        JSON-representable options)."""
        payload: Dict[str, object] = {
            "n": self._n,
            "k": self._k,
            "s": self._s,
            "time_based": self._time_based,
        }
        if self._algorithm is not None:
            payload["algorithm"] = self._algorithm
        if self._options:
            payload["options"] = dict(self._options)
        if self._vector is not None:
            payload["preference"] = list(self._vector)
        if self._cluster_id is not None:
            payload["cluster_id"] = self._cluster_id
        if self._pad_factor is not None:
            payload["pad_factor"] = self._pad_factor
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "time-based" if self._time_based else "count-based"
        extra = ""
        if self._algorithm is not None:
            extra += f", algorithm={self._algorithm!r}"
        if self._vector is not None:
            extra += f", vector={self._vector!r}"
        return f"QuerySpec(n={self._n}, k={self._k}, s={self._s}, {kind}{extra})"


class ExecutionPlanner:
    """The one rule turning a subscribe call into what an engine runs.

    :class:`repro.engine.StreamEngine` and
    :class:`repro.cluster.ShardedStreamEngine` both inherit it, so both
    read a spec's ``using(...)`` / ``preferring(...)`` the same way and
    assign preference clusters from a
    :class:`~repro.core.clustering.ClusterSpace` they own.
    """

    _clusters = None

    def cluster_space(self):
        """This engine's preference-cluster assignment state (lazy)."""
        if self._clusters is None:
            from ..core.clustering import ClusterSpace

            self._clusters = ClusterSpace()
        return self._clusters

    def plan(
        self, spec: object, algorithm: object, options: Dict[str, object]
    ) -> Tuple[object, Dict[str, object]]:
        """``(algorithm, options)`` of one subscribe call, as declared.

        A :class:`QuerySpec` that carries execution choices is the whole
        declaration: ``algorithm`` must then stay at its default
        ``"SAP"``, ``options`` empty, and the spec's plan wins.  Planning
        changes nothing: :meth:`cluster_for` is the step that assigns.
        """
        if isinstance(spec, QuerySpec) and spec.carries_execution():
            if algorithm != "SAP" or options:
                raise ValueError(
                    "the spec already declares its execution (using/"
                    "preferring); drop the algorithm/options arguments"
                )
            algorithm, options = spec.execution_plan()
        return algorithm, options

    def cluster_for(
        self, query: TopKQuery, algorithm: object, options: Dict[str, object]
    ) -> Optional[int]:
        """The preference cluster of a ``"clustered"`` plan — the pinned
        one, or one this engine's space assigns — and ``None`` otherwise.

        ``options`` are as declared, without an assigned id: replaying
        them through this method on a space in the same state assigns the
        same id again.  The space assigns only once the member's instance
        builds, so a refused subscription (a bad query, vector or
        ``pad_factor``) leaves the space as it was.
        """
        if algorithm != "clustered" or "vector" not in options:
            return None
        cluster_id = options.get("cluster_id")
        if cluster_id is None:
            create_algorithm(algorithm, query, **options)
            cluster_id = self.cluster_space().assign(options["vector"])
        return int(cluster_id)


def resolve_query(spec: object) -> TopKQuery:
    """Accept a :class:`TopKQuery` or a :class:`QuerySpec` and return a query."""
    if isinstance(spec, TopKQuery):
        return spec
    if isinstance(spec, QuerySpec):
        return spec.build()
    raise TypeError(
        f"expected a TopKQuery or QuerySpec, got {type(spec).__name__}"
    )
