"""Similarity measures for categorical and market-basket data.

The ROCK paper uses the Jaccard coefficient between item sets; the library
also provides Dice, overlap (Simple Matching / Hamming-style) and cosine
set similarities so baselines and ablations can state their measure
explicitly.  All measures implement the :class:`SetSimilarity` protocol and
are registered in a small name-based registry.  Measures that can be
evaluated from pair counts alone additionally implement the
:class:`VectorizedSetSimilarity` capability
(``similarity_from_counts``), which is what the exact overlap kernel of
:mod:`repro.core.neighbors.vectorized` keys on.
"""

from repro.similarity.base import (
    SetSimilarity,
    VectorizedSetSimilarity,
    pairwise_similarity_matrix,
    supports_vectorized_counts,
)
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
    jaccard,
)
from repro.similarity.overlap import (
    HammingRecordSimilarity,
    SimpleMatchingSimilarity,
    record_overlap_similarity,
)
from repro.similarity.registry import available_measures, get_measure, register_measure

__all__ = [
    "SetSimilarity",
    "VectorizedSetSimilarity",
    "supports_vectorized_counts",
    "pairwise_similarity_matrix",
    "JaccardSimilarity",
    "DiceSimilarity",
    "OverlapCoefficientSimilarity",
    "SetCosineSimilarity",
    "jaccard",
    "SimpleMatchingSimilarity",
    "HammingRecordSimilarity",
    "record_overlap_similarity",
    "available_measures",
    "get_measure",
    "register_measure",
]
