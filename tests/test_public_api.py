"""Tests of the package-level public API surface."""

import repro
from repro import algorithm_factories
from repro.core.query import TopKQuery


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), name

    def test_algorithm_factories_build_every_algorithm(self):
        from repro.registry import get_algorithm

        query = TopKQuery(n=50, k=3, s=5)
        registry = algorithm_factories()
        assert {"SAP", "MinTopK", "k-skyband", "SMA", "brute-force"} <= set(registry)
        for name, factory in registry.items():
            algorithm = factory(query, **get_algorithm(name).example_options)
            assert algorithm.query is query, name

    def test_registry_algorithms_produce_results(self):
        from repro.registry import get_algorithm
        from repro.streams import UncorrelatedStream

        query = TopKQuery(n=40, k=3, s=10)
        stream = UncorrelatedStream(seed=1).take(120)
        registry = algorithm_factories()
        reference = None
        for name, factory in registry.items():
            if get_algorithm(name).example_options:
                # Preference algorithms replace the stream's score with
                # their own ranking function; their exactness is checked
                # against per-vector references in tests/property/.
                continue
            results = factory(query).run(stream)
            assert len(results) == 1 + (120 - 40) // 10, name
            identities = [result.identity() for result in results]
            if reference is None:
                reference = identities
            else:
                assert identities == reference, name
