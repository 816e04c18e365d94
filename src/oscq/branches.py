"""Branch-cut-safe elementary maps shared by the equilibrium and
parametrix layers.

Conventions: (z^2-1)^(1/2) is analytic off [-1,1], behaves like z at
infinity and is positive for real z > 1; (1-z^2)^(1/2) is the principal
branch, positive on (-1,1); ((z-1)/(z+1))^(1/4), analytic off [-1,1], is
positive for z > 1 (exterior_beta).  The inverse cosine, fixed by
exp(i*arccos z) = z + i (1-z^2)^(1/2), is formed from a root the caller
holds (equilibrium.phase_terms).
"""

from __future__ import annotations

from mpmath import mp, mpc


def sqrt_offcut(z):
    """(z^2-1)^(1/2), analytic in C \\ [-1,1], ~ z at infinity."""
    z = mpc(z)
    return z * mp.sqrt(1 - 1 / (z * z))


def sqrt_onecut(z):
    """(1-z^2)^(1/2), principal branch, positive on (-1,1)."""
    z = mpc(z)
    return mp.sqrt(1 - z * z)


def exterior_beta(phi):
    """((z-1)/(z+1))^(1/4) at the z with z + (z^2-1)^(1/2) = phi, |phi| > 1:
    the principal ((phi-1)/(phi+1))^(1/2).  (z-1)/(z+1) is its square, and
    Re (phi-1)/(phi+1) > 0, so the two principal roots agree."""
    return mp.sqrt((phi - 1) / (phi + 1))
