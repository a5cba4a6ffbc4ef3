"""Clustered (negative binomial) yield via gamma mixing.

The negative binomial yield model is a Poisson model whose fault density
λ is itself gamma-distributed — the gamma spread captures fault
clustering.  The paper (Section 5) averages the *expected YAT* across the
mixing function rather than the yield alone (EQ 2), which this module
supports by exposing the quadrature directly: ``GammaMixing.expect(f)``
computes E[f(λ)] for any per-λ function, e.g. expected chip throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def negbin_yield(area: float, density: float, alpha: float = 2.0) -> float:
    """Closed-form negative binomial yield: (1 + A·D/α)^-α."""
    if area < 0 or density < 0:
        raise ValueError("area and density must be non-negative")
    return float((1.0 + area * density / alpha) ** (-alpha))


@dataclass(frozen=True)
class GammaMixing:
    """Gauss-Laguerre quadrature over the gamma mixing distribution.

    λ ~ Gamma(shape=α, scale=D/α) so that E[λ] = D and
    E[e^{-λA}] = (1 + A·D/α)^{-α} (the negative binomial yield).
    """

    density: float
    alpha: float = 2.0
    n_points: int = 48

    def nodes_weights(self):
        """(λ values, probability weights) of the quadrature.

        Generalized Gauss-Laguerre with weight x^{α-1} e^{-x} integrates
        the gamma density exactly for polynomial integrands and remains
        accurate for α < 1, where the density is singular at zero.
        """
        import math

        theta = self.density / self.alpha
        norm = math.gamma(self.alpha)
        try:
            from scipy.special import roots_genlaguerre

            x, w = roots_genlaguerre(self.n_points, self.alpha - 1.0)
            weights = w / norm
        except ImportError:  # pragma: no cover - scipy is installed here
            x, w = np.polynomial.laguerre.laggauss(self.n_points)
            weights = w * x ** (self.alpha - 1.0) / norm
        lam = theta * x
        return lam, weights

    def expect(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """E[f(λ)] over the mixing distribution.

        ``f`` receives the λ quadrature points as an array and must return
        the per-λ values (vectorized or via np.vectorize).
        """
        if self.density == 0.0:
            return float(f(np.zeros(1))[0])
        lam, w = self.nodes_weights()
        vals = np.asarray(f(lam), dtype=float)
        return float(np.dot(w, vals))
