"""One algebra's complexes, shared across degree windows.

A ``Workspace`` holds, for A = K[x, alpha]/(f) and one bimodule M, the
small complex C^S, the normalized complex, the bar resolution and the
comparison maps between the two complexes.  Each is built on first use
and grown in place to the largest level asked for, with its maps kept; a
bar-side map builds each column the first time it is read, so growing to
a level builds its spaces and no map columns.  Every quotient
M/[M,K]_{alpha^j} they read is the one ``commutator_quotient`` keeps on M,
one per class of alpha^j; for M = A it is assembled from the
K/[K,K]_{alpha^(j+p)}, p < n, that ``k_quotient`` keeps on the algebra.
"""

from __future__ import annotations

from .bar import BarComplex, BarResolution, InducedComparison
from .small_complex import build_cs


class Workspace:
    def __init__(self, mono, M):
        self.mono = mono
        self.M = M
        self._cs = self._bar = self._barres = self._cmp = None

    def cs(self, max_degree):
        if self._cs is None:
            self._cs = build_cs(self.mono, self.M, max_degree)
        self._cs.grow(max_degree)
        return self._cs

    def bar(self, max_r):
        if self._bar is None:
            self._bar = BarComplex(self.mono, self.M, max_r)
        self._bar.grow(max_r)
        return self._bar

    def barres(self, max_r):
        if self._barres is None:
            self._barres = BarResolution(self.mono, max_r)
        self._barres.grow(max_r)
        return self._barres

    def comparison(self, max_r):
        """phi/psi/omega, with C^S, the bar complex and the resolution grown to max_r."""
        cs, bar, barres = self.cs(max_r), self.bar(max_r), self.barres(max_r)
        if self._cmp is None:
            self._cmp = InducedComparison(bar, cs, barres)
        return self._cmp
