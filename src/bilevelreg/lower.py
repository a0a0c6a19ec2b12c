"""Lower-level reconstruction cost, its derivatives, and regularity constants.

The cost is

    Phi(x; theta, y) = 0.5 ||A x - y||^2
                       + e^{b0} sum_k e^{bk} sum_i phi((c_k * x)_i),

with log tuning weights b0, b1..bK and circular filters c_k.  The learnable
parameter vector packs [b0 (optional), b1..bK, c_1 taps, ..., c_K taps] in
row-major tap order; the layout is frozen and tagged so parameter files stay
forward-compatible.  ``_join`` and ``_split`` are the only code that knows it.

Derivative conventions (validated against finite differences; see README):

    grad_x Phi = A'(Ax - y) + sum_k w_k c~_k * phi'.(z_k)
    hess(x) v  = A'(Av) + sum_k w_k c~_k * (phi''.(z_k) .* (c_k * v))
    d(grad_x Phi)/d b_k     = w_k c~_k * phi'.(z_k)
    d(grad_x Phi)/d c_{k,s} = w_k [circshift(phi'.(z_k), -s)
                                   + c~_k * (phi''.(z_k) .* circshift(x, s))]

where z_k = c_k * x and w_k = e^{b0 + b_k}.  ``Linearization(problem, x)``
evaluates the last three at one x, building z_k, phi' and phi'' once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError
from .forward import ForwardModel
from .potentials import Potential
from .signals import (
    as_filter,
    centred_rows,
    circ_conv,
    circ_conv_adjoint,
    filter_power,
    pair_index,
    shifted,
)

THETA_LAYOUT = "b0?:betas:taps-rowmajor:v1"


@dataclass
class HyperParams:
    """Regularizer hyperparameters: log tuning weights and filters."""

    beta0: float
    betas: np.ndarray
    filters: list[np.ndarray]
    potential: Potential
    learn_beta0: bool = False

    def __post_init__(self):
        self.beta0 = float(self.beta0)
        self.betas = np.asarray(self.betas, dtype=np.float64).reshape(-1)
        self.filters = [as_filter(c) for c in self.filters]
        if len(self.filters) != self.betas.size:
            raise ValueError(
                f"{len(self.filters)} filters but {self.betas.size} tuning weights"
            )
        if not np.isfinite(self.beta0) or not np.all(np.isfinite(self.betas)):
            raise ValueError("tuning parameters must be finite")

    @property
    def n_filters(self) -> int:
        return len(self.filters)

    def theta_size(self) -> int:
        taps = sum(c.size for c in self.filters)
        return taps + self.n_filters + (1 if self.learn_beta0 else 0)


def _join(hp: HyperParams, b0, betas, taps) -> np.ndarray:
    """Concatenate theta-shaped parts in layout order along axis 0.

    ``b0`` is a one-entry part, dropped unless ``hp`` learns b0; ``betas``
    has one entry per filter and ``taps`` one run per filter.  Parts may
    carry trailing grid axes.
    """
    head = [b0] if hp.learn_beta0 else []
    return np.concatenate([*head, betas, *taps])


def _split(hp: HyperParams, theta: np.ndarray):
    """Inverse of ``_join``: the b0 entry (None unless learnable), the betas
    and one run of taps per filter, as views along axis 0 of ``theta``."""
    if len(theta) != hp.theta_size():
        raise ValueError(
            f"theta length {len(theta)} does not match layout size {hp.theta_size()}"
        )
    b0 = theta[0] if hp.learn_beta0 else None
    pos = (1 if hp.learn_beta0 else 0) + hp.n_filters
    betas = theta[pos - hp.n_filters : pos]
    taps = []
    for c in hp.filters:
        taps.append(theta[pos : pos + c.size])
        pos += c.size
    return b0, betas, taps


def pack_theta(hp: HyperParams) -> np.ndarray:
    return _join(hp, [hp.beta0], hp.betas, [c.ravel() for c in hp.filters])


def unpack_theta(hp: HyperParams, theta: np.ndarray) -> HyperParams:
    """Rebuild HyperParams from a flat vector using ``hp`` as the template."""
    b0, betas, taps = _split(hp, np.asarray(theta, dtype=np.float64).reshape(-1))
    return replace(
        hp,
        beta0=hp.beta0 if b0 is None else float(b0),
        betas=betas.copy(),
        filters=[run.reshape(c.shape).copy() for run, c in zip(taps, hp.filters)],
    )


def theta_mask(
    hp: HyperParams,
    beta0: bool = True,
    betas: bool = True,
    taps: bool = True,
) -> np.ndarray:
    """0/1 mask over the flat theta layout, selecting coordinate groups.

    Used by the upper-level drivers to freeze coordinates (e.g. train tuning
    weights with fixed filters, or filters with fixed weights).
    """
    return _join(
        hp,
        [1.0 if beta0 else 0.0],
        np.full(hp.n_filters, 1.0 if betas else 0.0),
        [np.full(c.size, 1.0 if taps else 0.0) for c in hp.filters],
    )


@dataclass
class LowerProblem:
    """One reconstruction instance: operator, data, and hyperparameters.

    ``y`` is one signal on the grid, or a stack of S signals shaped
    ``(S, *grid)`` that share ``A`` and ``theta``.  ``grad_x`` and a
    ``Linearization`` accept a stack and act on every row bit for bit as the
    unstacked problem of that row would; ``cost`` and ``regularity_report``
    take one signal.  ``row_beta0`` gives each row of a stacked ``y`` its own
    b0 in place of ``theta.beta0``; only ``grad_x``, ``lipschitz_grad`` and
    ``majorizer`` serve such a problem, and the other methods and a
    linearization raise.
    """

    A: ForwardModel
    y: np.ndarray
    theta: HyperParams
    row_beta0: np.ndarray | None = None

    def __post_init__(self):
        stacked = self.A.grid.is_stack(self.y)
        b0 = self.theta.beta0
        if self.row_beta0 is not None:
            b0 = self.row_beta0 = np.asarray(self.row_beta0, dtype=np.float64)
            if not stacked or b0.shape != (len(self.y),):
                raise ValueError(
                    f"row_beta0 of shape {b0.shape} needs one entry per row of "
                    f"a stacked y, got y of shape {self.y.shape}"
                )
            if not np.all(np.isfinite(b0)):
                raise ValueError("tuning parameters must be finite")
        # w_k = e^{b0 + b_k} per filter: a scalar, or a column scaling each row
        with np.errstate(over="ignore"):
            logw = np.add.outer(self.theta.betas, b0)
            w = np.exp(logw)
        if not np.all(np.isfinite(w)):
            # name the lowest row with a non-finite weight, and its lowest filter
            row, k = np.argwhere(~np.isfinite(w.reshape(len(w), -1).T))[0]
            raise DivergenceError(
                f"tuning weight exp(b0 + b_k) of filter {k} is not finite "
                f"(b0 + b_k = {logw.reshape(len(w), -1)[k, row]:.6g})",
                row=int(row) if self.row_beta0 is not None else None,
            )
        self._weights = [self.A.grid.per_row(wk) for wk in w]
        self._plan = None  # see _stencil_plan

    def _rows(self, keep) -> "LowerProblem":
        """The problem of the stack's rows ``keep``, in that order: one
        signal for an index, a stack for a list (which ``row_beta0`` needs).
        A shallow copy that slices ``y``, ``row_beta0`` and the weights and
        shares the stencil plan, so it checks and computes nothing."""
        rows = copy.copy(self)
        rows.y = self.y[keep]
        if self.row_beta0 is not None:
            rows.row_beta0 = self.row_beta0[keep]
            rows._weights = [w[keep] for w in self._weights]
        return rows

    def _shared_beta0(self, what: str) -> None:
        if self.row_beta0 is not None:
            raise ValueError(f"{what} needs one b0 for every row; this problem "
                             "gives each row its own")

    def cost(self, x: np.ndarray) -> float:
        self._shared_beta0("cost")
        r = self.A.apply(x) - self.y
        total = 0.5 * float(np.vdot(r, r))
        pot = self.theta.potential
        for w, c in zip(self._weights, self.theta.filters):
            total += w * float(np.sum(pot.phi(circ_conv(x, c))))
        return total

    def grad_x(self, x: np.ndarray) -> np.ndarray:
        g = self.A.adjoint(self.A.apply(x) - self.y)
        pot = self.theta.potential
        lift = self.A.grid.lift
        for w, c in zip(self._weights, self.theta.filters):
            c = lift(x, c)
            g += w * circ_conv_adjoint(pot.dphi(circ_conv(x, c)), c)
        return g

    def _stencil_plan(self):
        """What the Hessian stencils of all linearizations of this problem
        share: the half-widths h of the offset box -h..h, A'A on that box
        shaped (offsets, 1, N or 1), and the tap-pair weights
        w_k c_{k,s} c_{k,s-d} shaped (offsets, taps) with the filters side
        by side along s (None without filters)."""
        if self._plan is None:
            rank = self.A.grid.rank
            gram = self.A.gram_stencil()
            filters = self.theta.filters
            extents = [gram.shape[:rank]] + [[2 * n - 1 for n in c.shape] for c in filters]
            half = tuple(max(e) // 2 for e in zip(*extents))
            base = np.zeros(tuple(2 * h + 1 for h in half) + gram.shape[rank:])
            base[tuple(slice(h - g // 2, h + g // 2 + 1) for h, g in zip(half, gram.shape))] = gram
            pairs = [
                (w * c.reshape(-1)) * np.append(c, 0.0)[pair_index(c.shape, half)]
                for w, c in zip(self._weights, filters)
            ]
            self._plan = (
                half,
                base.reshape(-1, 1, int(np.prod(gram.shape[rank:]))),
                np.concatenate(pairs, axis=1) if pairs else None,
            )
        return self._plan

    def lipschitz_grad(self) -> float | np.ndarray:
        """L, the largest value of the majorizer's symbol P: as P >= H(x)
        at every x (see ``majorizer``), grad_x is L-Lipschitz.

        One float, or one L per row, shaped ``(S,)``, for ``row_beta0``.
        """
        p = self.majorizer()
        if np.ndim(p) > self.A.grid.rank:  # one symbol per row
            return np.max(p.reshape(len(p), -1), axis=1)
        return float(np.max(p))

    def majorizer(self):
        """P = |A^|^2 + L_phi' sum_k w_k |C_k^|^2, the DFT symbol of a
        circulant bound on the Hessian, on the rfft grid (see
        ``Grid.fourier_multiply``).

        ``phi'' <= L_phi'`` and ``A'A <= |A^|^2`` (``gram_symbol``) give
        ``H(x) <= P`` at every x.  Shaped ``(S, *rfft grid)``, one symbol
        per row, for ``row_beta0`` with filters; a constant for ``Identity``
        or ``Mask`` without filters.
        """
        l_dphi = self.theta.potential.curvature_bound()
        total = self.A.gram_symbol()
        for w, c in zip(self._weights, self.theta.filters):
            total = total + w * l_dphi * filter_power(c, self.A.grid)
        return total

    def regularity_report(self, x_norm_bound: float) -> dict:
        """Named regularity constants for the current hyperparameters:
        ``mu = sigmaN^2(A)``, 0 where A has a null direction, ``L_grad_x =
        lipschitz_grad()``, and constants from each filter's
        ``s_k^2 = max |C_k^|^2``.  ``L_hess_x = sum_k w_k L_phi'' s_k^3``
        bounds ||H(x) - H(x')|| / ||x - x'||: the Hessians differ by
        ``sum_k w_k C_k' diag(phi''(C_k x) - phi''(C_k x')) C_k``, and each
        entry of that diagonal by at most ``L_phi'' s_k ||x - x'||``."""
        self._shared_beta0("regularity_report")
        mu = float(self.A.spectral_bounds()[1])
        l_dphi = self.theta.potential.curvature_bound()
        l_ddphi = self.theta.potential.curvature_lipschitz()
        pairs = [(w, float(np.max(filter_power(c, self.A.grid))))  # (w_k, s_k^2)
                 for w, c in zip(self._weights, self.theta.filters)]
        return {
            "mu": mu,
            "strongly_convex": mu > 0.0,
            "L_grad_x": self.lipschitz_grad(),
            "L_hess_x": float(sum(w * l_ddphi * p * np.sqrt(p) for w, p in pairs)),
            "L_mixed_beta": [float(w * l_dphi * p) for w, p in pairs],
            "L_mixed_tap": [
                float(w * (2.0 * l_dphi * np.sqrt(p) + p * l_ddphi * x_norm_bound))
                for w, p in pairs
            ],
        }


@dataclass
class _FilterTerm:
    """One filter's share of a linearization: w_k, c_k and what x fixes."""

    weight: float
    taps: np.ndarray
    slope: np.ndarray  # phi'.(c_k * x)
    curv: np.ndarray  # phi''.(c_k * x)
    x_shifts: np.ndarray  # circshift(x, s) for every tap s of c_k
    adj_slope: np.ndarray  # c~_k * phi'.(c_k * x)

    def rows(self, keep, stacked: bool) -> "_FilterTerm":
        """This term of a stacked x at rows ``keep``, as views of its arrays;
        ``stacked`` False drops the taps' stack axis for one signal."""
        return _FilterTerm(
            self.weight, self.taps if stacked else self.taps[0], self.slope[keep],
            self.curv[keep], self.x_shifts[:, keep], self.adj_slope[keep],
        )


class Linearization:
    """Hessian and mixed Jacobian of the lower cost at a fixed ``x``.

    Builds z_k = c_k * x, phi'.(z_k), phi''.(z_k), the tap shifts of x and
    c~_k * phi'.(z_k) once, so every product a CG solve or an unrolled step
    takes at this x reuses them.  ``x`` is copied; later changes to the
    caller's array do not reach the linearization.  ``x`` may be a stack
    ``(S, *grid)`` of one iterate per row of a stacked problem: every product
    then acts on each row, bit for bit as that row's own linearization would.

    ``hess_vec`` applies the Hessian as a position-dependent stencil over
    centred offsets d,

        (hess(x) v)_i = sum_d M[d, i] v_{i+d},
        M[d, i] = G_A[d, i] + sum_k w_k sum_{s - t = d} c_{k,s} c_{k,t} phi''.(z_k)_{i+s},

    with G_A the stencil of A'A.  The first product assembles M, and every
    product applies it: one gather of v at all offsets, one multiply and one
    reduce in offset order.  Products equal the formula above up to rounding
    (the sums are grouped by offset, not by filter), and repeated ones give
    the same bytes.  M takes offsets x size x 8 bytes.

    A linearization at a stack of iterates serves each iterate through a row
    view (``_rows``), which slices its arrays and assembles its own M: the
    unrolled reverse engine linearizes its whole trajectory at once this way.
    """

    def __init__(self, problem: LowerProblem, x: np.ndarray, _terms=None):
        problem._shared_beta0("a linearization")
        self.problem = problem
        self._grid = problem.A.grid
        # a row view (``_rows``) passes views of its parent's x and terms
        self.x = np.array(x, dtype=np.float64) if _terms is None else x
        self._stacked = self._grid.is_stack(self.x)
        self._terms = self._filter_terms() if _terms is None else _terms
        self._stencil = None  # (half-widths, M), from the first product

    def _filter_terms(self) -> list[_FilterTerm]:
        pot = self.problem.theta.potential
        terms = []
        for w, c in zip(self.problem._weights, self.problem.theta.filters):
            c = self._grid.lift(self.x, c)
            _, slope, curv = pot.derivatives(circ_conv(self.x, c))
            terms.append(_FilterTerm(w, c, slope, curv, shifted(self.x, c.shape, 1),
                                     circ_conv_adjoint(slope, c)))
        return terms

    def _rows(self, keep) -> "Linearization":
        """The linearization at rows ``keep`` of this stacked x: one signal
        for an index, a stack for a slice.  It views this one's arrays and
        recomputes nothing, so its products equal those of a linearization
        built at ``x[keep]`` bit for bit."""
        x = self.x[keep]
        stacked = self._grid.is_stack(x)
        return Linearization(
            self.problem, x, [t.rows(keep, stacked) for t in self._terms]
        )

    def hess_vec(self, v: np.ndarray) -> np.ndarray:
        """hess(x) v = A'(Av) + sum_k w_k c~_k * (phi''.(z_k) .* (c_k * v)),
        by the stencil M assembled at the first call (see the class docstring).
        """
        if self._stencil is None:
            self._stencil = self._assemble()
        half, m = self._stencil
        terms = centred_rows(v, half)
        terms *= m
        return np.add.reduce(terms, axis=0).reshape(v.shape)

    def _assemble(self):
        """The half-widths of the offset box and M shaped (offsets, x.size)."""
        half, base, pairs = self.problem._stencil_plan()
        rows = len(self.x) if self._stacked else 1
        if pairs is None:
            m = np.broadcast_to(base, (len(base), rows, self.x.size // rows))
            return half, m.reshape(len(base), -1)
        # curv[s] = phi''.(z_k)_{i+s}, the filters side by side along s
        curv = np.concatenate([
            shifted(t.curv, t.taps.shape, -1).reshape(t.taps.size, rows, -1)
            for t in self._terms
        ])
        # one matrix product per row, so a stack's rows equal their own
        m = np.matmul(pairs, curv.transpose(1, 0, 2))
        m += base.reshape(len(base), -1)
        return half, m.transpose(1, 0, 2).reshape(len(base), -1)

    def jac_adjoint_apply(self, u: np.ndarray) -> np.ndarray:
        """(d(grad_x Phi)/d theta)' u as a flat theta-shaped vector.

        For a stack, ``u`` has one row per row of x and the result is
        ``(S, P)``, one theta vector per row.
        """
        dots = self._grid.dots
        betas, taps = [], []
        for t in self._terms:
            curv_cu = t.curv * circ_conv(u, t.taps)
            betas.append(t.weight * dots(t.adj_slope, u))
            # <circshift(slope,-s), u> = <slope, circshift(u,s)>;
            # <c~*(curv.*circshift(x,s)), u> = <circshift(x,s), curv.*(c*u)>
            taps.append(t.weight * (
                dots(shifted(u, t.taps.shape, 1), t.slope) + dots(t.x_shifts, curv_cu)
            ))
        # w_k = e^{b0 + b_k}, so the b0 entry sums the beta entries in order
        out = _join(self.problem.theta, [sum(betas, 0.0)], betas, taps)
        return np.ascontiguousarray(out.T) if self._stacked else out

    def jac_columns(self) -> np.ndarray:
        """All columns of d(grad_x Phi)/d theta, shaped (P, *x.shape).

        For a stack that is ``(P, S, *grid)``: ``[:, j]`` is row j's column
        set, and column p of every row is one stack, as ``hess_vec`` takes it.
        """
        hp = self.problem.theta
        cols = np.zeros((hp.theta_size(),) + self.x.shape)
        b0_col, beta_cols, tap_cols = _split(hp, cols)
        for t, beta_col, run in zip(self._terms, beta_cols, tap_cols):
            beta_col[:] = t.weight * t.adj_slope
            for col, slope_s, x_s in zip(
                run, shifted(t.slope, t.taps.shape, -1), t.x_shifts
            ):
                col[:] = t.weight * (slope_s + circ_conv_adjoint(t.curv * x_s, t.taps))
        if b0_col is not None:
            b0_col[:] = sum(beta_cols, 0.0)
        return cols
