"""Stream sources: synthetic equivalents of the paper's datasets.

The paper evaluates on three real datasets (STOCK, TRIP, PLANET) and two
synthetic ones (TIMER, TIMEU).  The real datasets are not redistributable,
so this package provides synthetic generators that reproduce the relevant
property for every algorithm under study: the joint distribution of
*scores* and *arrival order*, not the raw attributes.
"""

from .source import ListSource, StreamSource, materialise
from .io import CSVStream
from .preference import (
    PreferenceError,
    linear_preference,
    stock_preference,
    trip_preference,
    planet_preference,
)
from .synthetic import (
    DriftingStream,
    RandomWalkStream,
    TimeCorrelatedStream,
    UncorrelatedStream,
)
from .stock import StockStream, StockTransaction
from .trip import TripStream, TaxiTrip
from .planet import PlanetStream, Observation
from .registry import DATASETS, make_dataset, dataset_names

__all__ = [
    "StreamSource",
    "ListSource",
    "CSVStream",
    "materialise",
    "PreferenceError",
    "linear_preference",
    "stock_preference",
    "trip_preference",
    "planet_preference",
    "TimeCorrelatedStream",
    "UncorrelatedStream",
    "RandomWalkStream",
    "DriftingStream",
    "StockStream",
    "StockTransaction",
    "TripStream",
    "TaxiTrip",
    "PlanetStream",
    "Observation",
    "DATASETS",
    "make_dataset",
    "dataset_names",
]
