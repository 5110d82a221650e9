"""The paper's contribution: COD problem, evaluators, LORE, HIMOR, pipelines."""

from repro.core.compressed import CompressedEvaluation, compressed_cod
from repro.core.explain import (
    CODExplanation,
    LoreExplanation,
    explain_evaluation,
    explain_lore,
)
from repro.core.himor import HimorIndex
from repro.core.independent import independent_cod
from repro.core.lore import (
    LoreResult,
    attribute_edge_lca_counts,
    lore_chain,
    reclustering_scores,
)
from repro.core.pipeline import CODL, CODR, CODU, CODLMinus, CODResult
from repro.core.pool import SharedSamplePool
from repro.core.problem import CODQuery

__all__ = [
    "CODQuery",
    "CODResult",
    "compressed_cod",
    "CompressedEvaluation",
    "independent_cod",
    "attribute_edge_lca_counts",
    "lore_chain",
    "reclustering_scores",
    "LoreResult",
    "HimorIndex",
    "CODU",
    "CODR",
    "CODL",
    "CODLMinus",
    "SharedSamplePool",
    "explain_evaluation",
    "explain_lore",
    "CODExplanation",
    "LoreExplanation",
]
