"""Jensen divergences of order alpha, their metric geometry, and
distance bounds, for finite probability distributions and quantum states.

Everything here is a pure function of immutable values; concurrent use
is safe. The one value that memoizes is a ``DistanceMatrix``: it keeps
its centred eigenpairs, checks them against its entries before each
use, and two threads that both write them store the same result.
Results are deterministic for a given input and numpy build, and each
entry of a divergence matrix equals the scalar call on its pair. Each
state has one spectrum, the ascending eigenvalues of the ``eigvalsh``
call that validated it, which a ``DensityMatrix`` keeps. The kernel and
``alpha_entropy_q`` both sum it in that ascending order, so
``alpha_entropy_q`` can differ by an ulp or two from a sum in
descending order. The kernel evaluates order 2 in closed form, as
sum_j w_j ||x_j - mixture||^2, without spectra. So a value can differ
in its last bits from a spectral evaluation of the same formula (on
random states, by up to about 1e-14 at order 1 and 1e-15 at order 2).

The package exports the ``__all__`` of each of its modules.
"""

from . import classical, quantum, jensen, geometry, bounds
from .classical import *
from .quantum import *
from .jensen import *
from .geometry import *
from .bounds import *

__all__ = [
    name
    for module in (classical, quantum, jensen, geometry, bounds)
    for name in module.__all__
]

__version__ = "0.1.0"
