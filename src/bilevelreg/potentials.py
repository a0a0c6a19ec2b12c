"""Scalar sparsity potentials and their derivative bounds."""

from __future__ import annotations

import numpy as np

from .errors import UnboundedError

# sup over t of 3|t| / (t^2+1)^{5/2}; the hyperbolic potential's third
# derivative is this constant / eps^2 after the substitution z = eps*t.
# Located by grid search near the analytic critical point t = 1/2.
_t = np.linspace(0.0, 4.0, 400001)
_HYPERBOLA_D3_SUP = float(np.max(3.0 * _t / (_t**2 + 1.0) ** 2.5))
del _t


class CornerRounded1Norm:
    """Smooth 1-norm surrogate phi(z) = sqrt(z^2 + eps^2).

    The graph is a hyperbola approaching |z| for large |z|; eps controls the
    rounding of the corner at zero.  First derivative lies in (-1, 1), second
    derivative in (0, 1/eps].
    """

    def __init__(self, epsilon: float = 0.01):
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)

    def phi(self, z):
        return np.sqrt(np.square(z) + self.epsilon**2)

    def dphi(self, z):
        return np.asarray(z) / self.phi(z)

    def ddphi(self, z):
        return self.epsilon**2 / self.phi(z) ** 3

    def derivatives(self, z):
        """(phi, phi', phi'') evaluated elementwise at z."""
        root = self.phi(z)
        return root, np.asarray(z) / root, self.epsilon**2 / root**3

    def gradient_bound(self) -> float:
        """sup |phi'|."""
        return 1.0

    def curvature_bound(self) -> float:
        """sup phi'' (the Lipschitz constant of phi')."""
        return 1.0 / self.epsilon

    def curvature_lipschitz(self) -> float:
        """sup |phi'''| (the Lipschitz constant of phi'')."""
        return _HYPERBOLA_D3_SUP / self.epsilon**2

    def bounds(self) -> tuple[float, float]:
        """(sup |phi'|, sup phi''); raises UnboundedError when a sup is infinite."""
        return self.gradient_bound(), self.curvature_bound()

    def __repr__(self):
        return f"CornerRounded1Norm(epsilon={self.epsilon})"


class Quadratic:
    """phi(z) = z^2 / 2; testing oracle with affine gradient."""

    def phi(self, z):
        return 0.5 * np.square(z)

    def dphi(self, z):
        return np.asarray(z, dtype=np.float64) + 0.0

    def ddphi(self, z):
        return np.ones_like(np.asarray(z, dtype=np.float64))

    def derivatives(self, z):
        return self.phi(z), self.dphi(z), self.ddphi(z)

    def gradient_bound(self) -> float:
        raise UnboundedError("quadratic potential has unbounded derivative")

    def curvature_bound(self) -> float:
        return 1.0

    def curvature_lipschitz(self) -> float:
        return 0.0

    def bounds(self) -> tuple[float, float]:
        return self.gradient_bound(), self.curvature_bound()

    def __repr__(self):
        return "Quadratic()"


Potential = CornerRounded1Norm | Quadratic
