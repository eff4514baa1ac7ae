"""brightlab: projection functions and curvature identities of convex bodies.

Submodules
----------
multilinear   exterior powers, Bianchi polarization, alternating square form
body          support-function families with analytic jets and validation
weingarten    reverse Weingarten maps, wedge identities, umbilic search
tomography    projections onto subspaces and intrinsic-volume quadrature
lemma_lab     polynomial subset-sum relations, candidate enumeration, audits
sampling      seeded Haar directions, hemisphere grids, the median of a sample
cli           scenario runner producing JSON/CSV verification reports
"""

__version__ = "0.1.0"

from . import body, lemma_lab, multilinear, tomography, weingarten  # noqa: E402,F401
from .errors import InternalInconsistencyError, PreconditionError  # noqa: F401
