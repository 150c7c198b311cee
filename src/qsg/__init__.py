"""Chart-level tensor calculus with exact polynomial jets, conjugate
connection transforms, and residual-based verification of the coupling
identities between torsion-bearing connections, almost complex structures,
and Hermitian or Norden metrics.

Code imports from the modules (``from qsg.model import ModelAt``); the
package only defines ``__version__`` and pins numpy's BLAS to one thread.
"""

__version__ = "0.1.0"

import numpy

from .blas import pin_one_thread

pin_one_thread(numpy)
