"""Entropic uncertainty and irreality measures for bipartite quantum states.

The library builds finite-dimensional bipartite density matrices, applies
dephasing and monitoring channels, evaluates entropic uncertainty and
irreality quantities, and checks the identities and inequalities relating
them, with campaign and slack-minimization tooling on top.
"""

__version__ = "0.1.0"

from .channels import dephase, monitor, monitor_n
from .entropies import (
    cond_entropy,
    dephased_entropy,
    irreality,
    relative_entropy,
    shannon,
    uncertainty,
    vn_entropy,
)
from .errors import (
    BadDimension,
    ConfigError,
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    NotDistribution,
    NotHermitian,
    NotNormalized,
    OutOfRange,
    QirError,
    TheoremViolation,
)
from .explore import (
    CampaignConfig,
    CampaignResult,
    MinimizeResult,
    SweepTrace,
    minimize_slack,
    monitoring_sweep,
    run_campaign_records,
)
from .linalg import EigenDecomposition, herm_eig
from .relations import (
    EntropyBundle,
    IdentityReport,
    InequalityReport,
    RELATIONS,
    entropy_bundle,
    evaluate_relations,
    mu_bound,
    mu_overlap,
)
from .states import (
    BipartiteState,
    ObservableBasis,
    computational_basis,
    fourier_basis,
    haar_random_pure,
    max_entangled,
    max_mixed,
    pure_from_schmidt,
    random_basis,
    random_mixed,
    werner,
)

__all__ = [
    # channels
    "dephase",
    "monitor",
    "monitor_n",
    # entropies
    "cond_entropy",
    "dephased_entropy",
    "irreality",
    "relative_entropy",
    "shannon",
    "uncertainty",
    "vn_entropy",
    # errors
    "BadDimension",
    "ConfigError",
    "DimensionMismatch",
    "InvariantViolation",
    "NoConvergence",
    "NotDistribution",
    "NotHermitian",
    "NotNormalized",
    "OutOfRange",
    "QirError",
    "TheoremViolation",
    # explore
    "CampaignConfig",
    "CampaignResult",
    "MinimizeResult",
    "SweepTrace",
    "minimize_slack",
    "monitoring_sweep",
    "run_campaign_records",
    # linalg
    "EigenDecomposition",
    "herm_eig",
    # relations
    "EntropyBundle",
    "IdentityReport",
    "InequalityReport",
    "RELATIONS",
    "entropy_bundle",
    "evaluate_relations",
    "mu_bound",
    "mu_overlap",
    # states
    "BipartiteState",
    "ObservableBasis",
    "computational_basis",
    "fourier_basis",
    "haar_random_pure",
    "max_entangled",
    "max_mixed",
    "pure_from_schmidt",
    "random_basis",
    "random_mixed",
    "werner",
]
