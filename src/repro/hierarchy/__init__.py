"""Community-hierarchy substrate: dendrograms, NN-chain clustering, LCA."""

from repro.hierarchy.balance import collapse_chains, rebalanced_hierarchy
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.lca import LcaIndex
from repro.hierarchy.nnchain import agglomerative_hierarchy

__all__ = [
    "CommunityHierarchy",
    "CommunityChain",
    "LcaIndex",
    "rebalanced_hierarchy",
    "collapse_chains",
    "agglomerative_hierarchy",
]
