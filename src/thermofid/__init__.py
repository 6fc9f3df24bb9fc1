"""Thermal-state fidelity and phase-diagram toolkit for exactly solvable spin models.

Computes temperature and field fidelities of thermal states, the classical
response functions they mirror (specific heat, susceptibility), lam-T phase
diagrams for a small catalog of solvable models, and a dense-matrix reference
pipeline that keeps the fast log-partition-function path honest.

The package namespace holds the documented API: the README quick start, the
catalog models and the two error types callers catch. Everything else is
imported from its submodule (core, scan, models, lmg, exact, errors).
"""

from .core import ThermoPoint, fidelity_beta, specific_heat
from .errors import DomainError, ThermofidError
from .lmg import Lmg
from .models import Dicke, Ising2D, Tim1D, TwoLevel, TwoLevelField
from .scan import ScanGrid, locate_minima, sweep

__version__ = "0.1.0"
