"""Exact integral cohomology of the modular group and of the genus-one
moduli space, computed from first principles with verification suites.

The core pipeline takes the mapping cone of the periodic resolutions of
the cyclic pieces of the amalgam decomposition, with its identity blocks
cancelled: the period-2 resolution of ranks r, 2r, 2r, 2r.  It certifies
d o d = 0 once by the relations S^4 = 1 and S^2 = U^3 of the coefficient
module, reduces it on its unit pivots, reads each H^p from integer ranks
and elementary divisors, and assembles the page bookkeeping for the moduli
space on top.  Independent oracles (a truncated bar complex, a
brute-force cocycle solver, sparse and determinantal elementary-divisor
routines) cross-check every layer.
"""

from .amalgam import sl2z_cohomology, sl2z_cohomology_module
from .cyclic import CyclicAction, cyclic_cohomology
from .exact_linalg import (CochainComplex, FgAbelianGroup, IntegerMatrix,
                           cohomology_at, smith_normal_form)
from .moduli import (complement_group, e2_entry, e2_page, half_inverted_group,
                     m11_group, mod2_consistency, p_torsion_scan)
from .torsor import build_canonical_torsor, h1_one_cocycles

__version__ = "0.1.0"

__all__ = [
    "CochainComplex",
    "CyclicAction",
    "FgAbelianGroup",
    "IntegerMatrix",
    "build_canonical_torsor",
    "cohomology_at",
    "complement_group",
    "cyclic_cohomology",
    "e2_entry",
    "e2_page",
    "h1_one_cocycles",
    "half_inverted_group",
    "m11_group",
    "mod2_consistency",
    "p_torsion_scan",
    "sl2z_cohomology",
    "sl2z_cohomology_module",
    "smith_normal_form",
    "__version__",
]
