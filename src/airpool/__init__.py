"""Over-the-air multi-view feature pooling.

A simulation and optimization toolkit for pooling distributed sensor
features directly through a multi-access channel: the protocol itself
(`pooling`), feature-distribution moments (`features`), the one noise
power and the latency models (`channel`), error
bounds and accuracy translation (`analysis`), configuration-parameter
selection (`optimizer`), a synthetic end-to-end recognition task
(`sensing`), special functions (`specfun`), and batch experiment drivers
(`experiments`, `cli`).
"""

from ._mc import MonteCarloEstimate
from .features import FeatureModel, MomentSet
from .pooling import AirPoolConfig, PoolingMode

__all__ = [
    "AirPoolConfig",
    "FeatureModel",
    "MomentSet",
    "MonteCarloEstimate",
    "PoolingMode",
]

__version__ = "0.1.0"
