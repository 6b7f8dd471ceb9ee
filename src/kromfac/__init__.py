"""KroMFac: overlapping community detection in partially observable
networks via Kronecker-model completion and regularized NMF."""

from .community import (
    Cover,
    DetectConfig,
    agm_log_likelihood,
    commun_det,
    hard_decision,
)
from .completion import RecoveredGraph, as_graph, realize_missing
from .evaluation import SampleSpec, agm_generate, ff_sample, nmi, rn_sample, run_experiment
from .graph import Graph, NodeIdMap, induced_subgraph, load_edge_list, write_edge_list
from .kron import EmConfig, KroneckerModel, NodeMapping, kron_entry, kron_log_likelihood, kronem_fit
from .pipeline import KromfacConfig, SearchTrace, baseline1, baseline2, kromfac, regularized_loss
from .ranking import Ranking, default_epsilon, select_influential

__version__ = "0.1.0"

__all__ = [
    "Cover",
    "DetectConfig",
    "EmConfig",
    "Graph",
    "KromfacConfig",
    "KroneckerModel",
    "NodeIdMap",
    "NodeMapping",
    "Ranking",
    "RecoveredGraph",
    "SampleSpec",
    "SearchTrace",
    "agm_generate",
    "agm_log_likelihood",
    "as_graph",
    "baseline1",
    "baseline2",
    "commun_det",
    "default_epsilon",
    "ff_sample",
    "hard_decision",
    "induced_subgraph",
    "kron_entry",
    "kron_log_likelihood",
    "kronem_fit",
    "kromfac",
    "load_edge_list",
    "nmi",
    "realize_missing",
    "regularized_loss",
    "rn_sample",
    "run_experiment",
    "select_influential",
    "write_edge_list",
]
