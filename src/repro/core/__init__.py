"""Core of the SAP reproduction: data model, window substrate, framework."""

from .exceptions import (
    AlgorithmStateError,
    InvalidPartitionError,
    InvalidQueryError,
    ReproError,
    StreamExhaustedError,
)
from .object import StreamObject, kth_score, sort_by_rank, top_k
from .query import TopKQuery
from .result import TopKResult, results_agree
from .window import SlideEvent, SlidingWindow, count_based_slides, slides_for_query, time_based_slides
from .interface import ContinuousTopKAlgorithm
from .candidates import CandidateEntry, CandidateSet
from .clustering import (
    ClusterSharedPlan,
    ClusterSpace,
    ClusteredTopK,
    linear_score,
    linear_scores,
    validate_vector,
)
from .partition import Partition, PartitionSpec, UnitSummary, build_partition
from .framework import SAPTopK

__all__ = [
    "ReproError",
    "InvalidQueryError",
    "InvalidPartitionError",
    "StreamExhaustedError",
    "AlgorithmStateError",
    "StreamObject",
    "top_k",
    "kth_score",
    "sort_by_rank",
    "TopKQuery",
    "TopKResult",
    "results_agree",
    "SlideEvent",
    "SlidingWindow",
    "count_based_slides",
    "time_based_slides",
    "slides_for_query",
    "ContinuousTopKAlgorithm",
    "CandidateSet",
    "CandidateEntry",
    "ClusterSpace",
    "ClusterSharedPlan",
    "ClusteredTopK",
    "linear_score",
    "linear_scores",
    "validate_vector",
    "Partition",
    "PartitionSpec",
    "UnitSummary",
    "build_partition",
    "SAPTopK",
]
