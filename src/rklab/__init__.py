"""rklab: local-time identity verification lab for rebirthed Markov chains.

Finite symmetric chains with killing, exact potential kernels, one
vectorised path engine with local-time fields (:mod:`rklab.batch`),
Gaussian couplings of the hitting and inverse-local-time identities, and
the statistical harnesses that compare the two sides.
"""

from .chains import (
    ChainSpec,
    HittingProfile,
    Kind,
    PotentialMatrix,
    RebirthMeasure,
    SymmetricChain,
    birth_death_chain,
    build_chain,
    hitting_profile,
    killed_at_zero_potential,
    path_chain,
    potential_matrix,
    rebirthed_potential,
)
from .gaussfield import FieldFactor, factor_covariance
from .harnesses import REGISTRY, TestPlan
from .stats import ComparisonReport, StatRow

__version__ = "0.1.0"
