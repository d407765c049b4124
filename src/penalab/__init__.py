"""penalab: Monte Carlo laboratory for the sigma-finite bridge/Bessel path
measure, its Feynman-Kac penalisations and its translation identities."""

from .config import RunConfig
from .estimator import EstimatorResult, IdentityCheck
from .integrands import Integrand, MeasureSpec
from .paths import SamplePath, TimeGrid, WeightedPath, last_exit_time, make_grid
from .samplers import (WProposal, sample_bessel3, sample_bm, sample_bridge,
                       sample_symmetrized_bessel, sample_W, substream)
from .sturm import PhiSolution, atomic_phi_oracle, scale_gamma, solve_phi

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "EstimatorResult", "IdentityCheck", "Integrand", "MeasureSpec",
    "SamplePath", "TimeGrid", "WeightedPath", "last_exit_time", "make_grid",
    "WProposal", "sample_bessel3", "sample_bm", "sample_bridge",
    "sample_symmetrized_bessel", "sample_W", "substream",
    "PhiSolution", "atomic_phi_oracle", "scale_gamma", "solve_phi",
]
