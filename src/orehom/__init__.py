"""Exact Hochschild and cyclic homology of monogenic Ore quotients.

A = K[x, alpha] / (f) for a finite-dimensional algebra K over Q or a
cyclotomic field, an algebra endomorphism alpha, and a monic f whose
coefficients satisfy the twisting conditions.  The package builds the
small complex computing the Hochschild homology of A relative to K, the
mixed complex carrying its cyclic homology, and checks everything against
a brute-force normalized-complex oracle in exact arithmetic.
"""

__version__ = "0.1.0"
