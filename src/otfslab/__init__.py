"""otfslab: link-level OTFS/OFDM laboratory over Nakagami-m fading.

Waveform simulation with exhaustive ML detection, closed-form BER analysis
(Craig/MGF-form single-user error rates and moment-matched multi-user SINR
statistics), Monte Carlo sweeps with deterministic counter-based randomness,
and diversity-slope estimation.
"""

__version__ = "0.1.0"

from . import analytic, diversity, engine, fading, kernels, modem, specfun
from .engine import BerCurve, BerPoint, SweepConfig, run_sweep, wilson_interval
from .errors import CapacityError, ConfigError, DomainError, NumericError
from .fading import PathSpec, make_stream
from .modem import Constellation, DdFrame, OtfsGrid, make_constellation

__all__ = [
    "__version__", "analytic", "diversity", "engine", "fading", "kernels",
    "modem", "specfun", "BerCurve", "BerPoint", "SweepConfig", "run_sweep",
    "wilson_interval", "CapacityError", "ConfigError",
    "DomainError", "NumericError",
    "PathSpec", "make_stream", "Constellation",
    "DdFrame", "OtfsGrid", "make_constellation",
]
