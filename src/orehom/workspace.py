"""One algebra's complexes, shared across degree windows.

A ``Workspace`` holds, for A = K[x, alpha]/(f) and one bimodule M, the
small complex C^S, the normalized complex, the bar resolution and the
comparison maps between the two complexes, each built on first use and
kept (``memo``).  C^S is the one complex grown in place, to the largest
degree asked for; the bar side takes no window: each of its levels is
built the first time a map or a reader asks for it, and a bar-side map
builds each column the first time it is read.  Every quotient
M/[M,K]_{alpha^j} they read is the one ``commutator_quotient`` keeps on M,
one per class of alpha^j; for M = A it is assembled from the
K/[K,K]_{alpha^(j+p)}, p < n, that ``k_quotient`` keeps on the algebra.
"""

from __future__ import annotations

from .algebra import memo
from .bar import BarComplex, BarResolution, InducedComparison
from .small_complex import build_cs


class Workspace:
    def __init__(self, mono, M):
        self.mono = mono
        self.M = M
        self._cs = None

    def cs(self, max_degree):
        if self._cs is None:
            self._cs = build_cs(self.mono, self.M, max_degree)
        self._cs.grow(max_degree)
        return self._cs

    @memo
    def bar(self):
        return BarComplex(self.mono, self.M)

    @memo
    def barres(self):
        return BarResolution(self.mono)

    @memo
    def comparison(self):
        """phi/psi/omega between C^S and the bar complex."""
        return InducedComparison(self.bar(), self.barres())
