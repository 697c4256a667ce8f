"""Spin-1/2 Landau-type problem with Dunkl derivatives: exact operator
algebra, parity-sector spectra, a finite-difference eigenvalue oracle, and
canonical thermodynamics.

The pure-Python layers are imported with the package.  The names of
``radial_oracle`` (numpy, scipy) and ``thermo`` resolve on each access (PEP
562); neither numpy nor scipy is loaded by ``import dunkl_pauli``.
"""

import importlib

from .algebra import (BivarPoly, WignerParams, commutator_xD, dunkl_derive,
                      dunkl_laplacian, reflect)
from .angular import (AngularEigenpair, TrigPoly, angular_eigenpair,
                      angular_eigenpairs, apply_B, apply_G, jacobi, lambda_value)
from .spectrum import (OscillatorScale, SectorState, energy,
                       energy_over_omega_c, eta, hyp1f1, radial_wavefunction,
                       radical_identity_check, rho)

__version__ = "0.1.0"

# name -> defining module, for the names resolved on access.  Nothing is
# cached in the package namespace: each access reads the module's current
# binding, so a function patched there (and later restored) is seen as such.
_LAZY = {
    **dict.fromkeys(("RadialProblem", "build_tridiagonal",
                     "lowest_eigenvalues", "validate_sector"),
                    "radial_oracle"),
    **dict.fromkeys(("ThermoCurve", "ThermoInputs", "direct_sum_partition",
                     "entropy", "heat_capacity", "helmholtz",
                     "internal_energy", "partition", "sweep", "sweeps"),
                    "thermo"),
}

__all__ = [
    "AngularEigenpair", "BivarPoly", "OscillatorScale", "RadialProblem",
    "SectorState", "ThermoCurve", "ThermoInputs", "TrigPoly", "WignerParams",
    "angular_eigenpair", "angular_eigenpairs", "apply_B", "apply_G",
    "build_tridiagonal", "commutator_xD", "direct_sum_partition",
    "dunkl_derive", "dunkl_laplacian", "energy", "energy_over_omega_c",
    "entropy", "eta", "heat_capacity", "helmholtz", "hyp1f1",
    "internal_energy", "jacobi", "lambda_value", "lowest_eigenvalues",
    "partition", "radial_wavefunction", "radical_identity_check", "reflect",
    "rho", "sweep", "sweeps", "validate_sector",
]


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})
