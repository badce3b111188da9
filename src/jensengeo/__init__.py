"""Jensen divergences of order alpha, their metric geometry, and
distance bounds, for finite probability distributions and quantum states.

Everything here is a pure function of immutable values; concurrent use
is safe. The one value that memoizes is a ``DistanceMatrix``: it keeps
its centred eigenpairs, checks them against its entries before each
use, and two threads that both write them store the same result.
Results are deterministic for a given input and numpy build, and each
entry of a divergence matrix equals the scalar call on its pair, except
a pair of pure states in a set of d >= 3 that holds other states too:
its entry reads the eigensolver's noise that the closed form of the pair
call does not, within (d - 1)(4 d eps)^a / (1 - a) below order 1
(README, "Known limits of the bounds"). Each state has one spectrum, the
ascending eigenvalues of the ``eigvalsh`` call that validated it, which
a ``DensityMatrix`` keeps; one whose d - 1 smallest eigenvalues lie
within 4 d eps of 0 keeps (0, ..., 0, 1) instead, so a pure state's
entropies are exactly 0. The kernel and ``alpha_entropy_q`` both sum a
spectrum in ascending order, so ``alpha_entropy_q`` can differ by an ulp
or two from a sum in descending order. The kernel evaluates order 2 in
closed form, as sum_j w_j ||x_j - mixture||^2, without spectra, and the
two nonzero eigenvalues of mixtures of qubits or of two pure states in
closed form from the same distances, when every mixture of a call is
one. So a value can differ in its last bits from a spectral evaluation
of the same formula (on random states, by up to about 1e-14 at order 1
and 1e-15 at order 2; on random qubit pairs by up to about 1e-15 from an
``eigvalsh`` of the mixture, each within about 2e-15 of a 50-digit
evaluation).

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
