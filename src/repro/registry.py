"""The single algorithm registry of the library.

Every continuous top-k algorithm — the SAP framework with its partitioner
variants and the competitors from the paper's evaluation — is registered
here exactly once, under the name used in the paper's tables.  The CLI
(:data:`repro.cli.CLI_ALGORITHMS`), both engines, the serving layer and the
paper suite in ``benchmarks/`` all resolve algorithm names through this
module, so a new algorithm registered with :func:`register_algorithm` is
immediately addressable everywhere::

    from repro.registry import register_algorithm

    @register_algorithm("my-topk", description="a hand-rolled baseline")
    class MyTopK(ContinuousTopKAlgorithm):
        ...

    # or register a configuration of an existing algorithm:
    @register_algorithm("SAP-eager")
    def _sap_eager(query):
        return SAPTopK(query, meaningful_policy="eager")

A factory is any callable ``factory(query, **options) -> algorithm``; an
algorithm class works directly because its constructor has that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .core.interface import ContinuousTopKAlgorithm
from .core.query import TopKQuery

AlgorithmFactory = Callable[..., ContinuousTopKAlgorithm]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registry entry: the public name, the factory, and a description.

    ``example_options`` carries a minimal set of keyword options that make
    the factory constructible from a query alone — empty for the classic
    score-ordered algorithms, and e.g. ``{"vector": ...}`` for preference
    algorithms whose constructor has required options.  Generic tooling
    (smoke tests, doc generators) uses :meth:`create_example` instead of
    guessing at required arguments.
    """

    name: str
    factory: AlgorithmFactory = field(compare=False)
    description: str = ""
    example_options: Dict[str, object] = field(default_factory=dict, compare=False)

    def create(self, query: TopKQuery, **options: object) -> ContinuousTopKAlgorithm:
        """Instantiate the algorithm for ``query``."""
        return self.factory(query, **options)

    def create_example(self, query: TopKQuery) -> ContinuousTopKAlgorithm:
        """Instantiate with the entry's example options (generic tooling)."""
        return self.factory(query, **self.example_options)


_REGISTRY: Dict[str, AlgorithmInfo] = {}


def register_algorithm(
    name: str,
    *,
    description: str = "",
    replace: bool = False,
    example_options: Optional[Dict[str, object]] = None,
) -> Callable[[AlgorithmFactory], AlgorithmFactory]:
    """Class/function decorator adding a factory to the global registry.

    ``replace=True`` allows overwriting an existing entry (useful in tests
    and for applications that want to re-configure a built-in name).
    """

    def decorator(factory: AlgorithmFactory) -> AlgorithmFactory:
        register_factory(
            name,
            factory,
            description=description,
            replace=replace,
            example_options=example_options,
        )
        return factory

    return decorator


def register_factory(
    name: str,
    factory: AlgorithmFactory,
    *,
    description: str = "",
    replace: bool = False,
    example_options: Optional[Dict[str, object]] = None,
) -> AlgorithmInfo:
    """Non-decorator form of :func:`register_algorithm`."""
    if not name:
        raise ValueError("algorithm name must be a non-empty string")
    if not callable(factory):
        raise TypeError(f"factory for {name!r} must be callable, got {factory!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"algorithm {name!r} is already registered; pass replace=True to overwrite"
        )
    info = AlgorithmInfo(
        name=name,
        factory=factory,
        description=description,
        example_options=dict(example_options or {}),
    )
    _REGISTRY[name] = info
    return info


def unregister_algorithm(name: str) -> None:
    """Remove an entry (primarily for tests); unknown names are ignored."""
    _REGISTRY.pop(name, None)


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up one entry, with a helpful error listing the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def create_algorithm(
    name: str, query: TopKQuery, **options: object
) -> ContinuousTopKAlgorithm:
    """Instantiate a registered algorithm by name."""
    return get_algorithm(name).create(query, **options)


def algorithm_names() -> List[str]:
    """Registered names in registration order (paper order for built-ins)."""
    return list(_REGISTRY)


def algorithm_factories(
    *names: str,
) -> Dict[str, Callable[[TopKQuery], ContinuousTopKAlgorithm]]:
    """Name → factory mapping for the given names (all when none given).

    This is the shape the CLI and the benchmark harness consume.
    """
    selected = names or tuple(_REGISTRY)
    return {name: get_algorithm(name).factory for name in selected}


# ----------------------------------------------------------------------
# Built-in registrations (the algorithms of the paper's evaluation).
# ----------------------------------------------------------------------
def _register_builtins() -> None:
    from .baselines import BruteForceTopK, KSkybandTopK, MinTopK, SMATopK
    from .core.framework import SAPTopK
    from .partitioning import (
        DynamicPartitioner,
        EnhancedDynamicPartitioner,
        EqualPartitioner,
    )

    register_factory(
        "SAP",
        lambda query, **opts: SAPTopK(query, **opts),
        description="SAP framework with its default (enhanced dynamic) partitioner",
    )
    register_factory(
        "SAP-equal",
        lambda query, **opts: SAPTopK(query, partitioner=EqualPartitioner(), **opts),
        description="SAP with the equal partitioner (Section 4.1)",
    )
    register_factory(
        "SAP-dynamic",
        lambda query, **opts: SAPTopK(query, partitioner=DynamicPartitioner(), **opts),
        description="SAP with the dynamic partitioner (Section 4.2)",
    )
    register_factory(
        "SAP-enhanced",
        lambda query, **opts: SAPTopK(
            query, partitioner=EnhancedDynamicPartitioner(), **opts
        ),
        description="SAP with the enhanced dynamic partitioner (Section 4.3)",
    )
    register_factory(
        "MinTopK", MinTopK, description="MinTopK competitor (Yang et al.)"
    )
    register_factory(
        "k-skyband", KSkybandTopK, description="k-skyband competitor (Mouratidis et al.)"
    )
    register_factory("SMA", SMATopK, description="SMA competitor (Mouratidis et al.)")
    register_factory(
        "brute-force",
        BruteForceTopK,
        description="exact oracle recomputing the answer from the whole window",
    )
    register_factory(
        "clustered",
        _make_clustered,
        description=(
            "linear-preference query sharing one padded-k cluster plan "
            "(vector=..., inner=<algorithm name>)"
        ),
        example_options={"vector": (1.0, 1.0, 1.0)},
    )


def _make_clustered(query: TopKQuery, **options: object) -> ContinuousTopKAlgorithm:
    """Factory of the preference-clustering member algorithm.

    Imported lazily: :mod:`repro.core.clustering` resolves its inner
    algorithm through this registry, so a module-level import would cycle.
    """
    from .core.clustering import ClusteredTopK
    from .core.exceptions import InvalidQueryError

    if "vector" not in options:
        raise InvalidQueryError(
            "the 'clustered' algorithm scores by a linear preference: pass "
            "vector=<non-negative weights>, e.g. "
            "create_algorithm('clustered', query, vector=(1.0, 0.5, 0.2))"
        )
    return ClusteredTopK(query, **options)


_register_builtins()
