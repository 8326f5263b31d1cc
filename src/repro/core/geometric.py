"""The geometric-repair baseline of Del Barrio, Gordaliza & Loubes.

Reference [10] of the paper (ICML 2019), generalising the 1-D repair of
Feldman et al. [4].  Given empirical measures ``µ_0, µ_1`` of the two
protected subgroups and their optimal plan ``π*``, each *on-sample* point is
moved along the plan toward the ``t``-barycentre (paper Eqs. 8-9):

    x'_{0,i} = (1 - t) x_{0,i} + n_0 t   Σ_j π*_{ij} x_{1,j}
    x'_{1,j} = n_1 (1 - t) Σ_i π*_{ij} x_{0,i} + t x_{1,j}

The transport is designed point-wise on the research observations, so the
method cannot repair off-sample points — the limitation that motivates the
paper's distributional repair.  We implement it as the experimental
baseline: per-feature (1-D, exact monotone plans — the configuration used
in the paper's tables) and optionally multivariate via the transportation
simplex.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_rng, check_probability
from ..data.dataset import FairnessDataset
from ..exceptions import ValidationError
from ..ot.cost import squared_euclidean_cost
from ..ot.network_simplex import transport_simplex
from ..ot.onedim import solve_1d

__all__ = ["geometric_repair_1d", "geometric_repair_multivariate",
           "GeometricRepairer"]


def geometric_repair_1d(samples0, samples1,
                        t: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Eqs. 8-9 for one feature: repair both subgroup samples in place.

    Returns the repaired values in the original orders of ``samples0`` and
    ``samples1``.
    """
    t = check_probability(t, name="t")
    xs0 = np.asarray(samples0, dtype=float).ravel()
    xs1 = np.asarray(samples1, dtype=float).ravel()
    if xs0.size == 0 or xs1.size == 0:
        raise ValidationError("both subgroups need at least one sample")
    n0, n1 = xs0.size, xs1.size
    mu = np.full(n0, 1.0 / n0)
    nu = np.full(n1, 1.0 / n1)
    plan = solve_1d(xs0, mu, xs1, nu, p=2).matrix
    # Eq. 8: x'_0 = (1 - t) x_0 + n_0 t Σ_j π_ij x_1j
    repaired0 = (1.0 - t) * xs0 + n0 * t * (plan @ xs1)
    # Eq. 9: x'_1 = n_1 (1 - t) Σ_i π_ij x_0i + t x_1
    repaired1 = n1 * (1.0 - t) * (plan.T @ xs0) + t * xs1
    return repaired0, repaired1


def geometric_repair_multivariate(samples0, samples1, t: float = 0.5
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eqs. 8-9 on full feature vectors (squared-Euclidean plan).

    Couples the two empirical measures exactly with the network simplex
    over all ``n_0 · n_1`` sample pairs, so time and memory grow at
    least with that product; intended for modest research sets.
    """
    t = check_probability(t, name="t")
    xs0 = np.asarray(samples0, dtype=float)
    xs1 = np.asarray(samples1, dtype=float)
    if xs0.ndim == 1:
        xs0 = xs0.reshape(-1, 1)
    if xs1.ndim == 1:
        xs1 = xs1.reshape(-1, 1)
    if xs0.size == 0 or xs1.size == 0:
        raise ValidationError("both subgroups need at least one sample")
    n0, n1 = xs0.shape[0], xs1.shape[0]
    cost = squared_euclidean_cost(xs0, xs1)
    plan = transport_simplex(cost, np.full(n0, 1.0 / n0),
                             np.full(n1, 1.0 / n1))
    repaired0 = (1.0 - t) * xs0 + n0 * t * (plan @ xs1)
    repaired1 = n1 * (1.0 - t) * (plan.T @ xs0) + t * xs1
    return repaired0, repaired1


class GeometricRepairer:
    """On-sample geometric repair, stratified by ``u`` (and ``k``).

    Parameters
    ----------
    t:
        Barycentric interpolation parameter (``0.5`` = fair midpoint; the
        partial-repair knob of [10]).
    mode:
        ``"per-feature"`` (paper configuration: independent 1-D repairs per
        feature, exact monotone plans) or ``"multivariate"`` (joint repair
        of the full vector via the transportation simplex).

    Notes
    -----
    There is deliberately no ``transform`` for unseen data: the plan's
    domain is exactly the design sample (Section III-B), which is the
    baseline's structural limitation versus the distributional repair.
    """

    def __init__(self, t: float = 0.5, *, mode: str = "per-feature") -> None:
        self.t = check_probability(t, name="t")
        if mode not in ("per-feature", "multivariate"):
            raise ValidationError(
                f"unknown mode {mode!r}; expected 'per-feature' or "
                "'multivariate'")
        self.mode = mode

    def fit_transform(self, dataset: FairnessDataset) -> FairnessDataset:
        """Design and apply the repair on the same (research) data."""
        repaired = dataset.features.copy()
        for u in dataset.u_values:
            mask0 = dataset.group_mask(int(u), 0)
            mask1 = dataset.group_mask(int(u), 1)
            if not mask0.any() or not mask1.any():
                raise ValidationError(
                    f"group u={int(u)} lacks one protected class; geometric "
                    "repair needs both")
            if self.mode == "per-feature":
                for k in range(dataset.n_features):
                    rep0, rep1 = geometric_repair_1d(
                        dataset.features[mask0, k],
                        dataset.features[mask1, k], self.t)
                    repaired[mask0, k] = rep0
                    repaired[mask1, k] = rep1
            else:
                rep0, rep1 = geometric_repair_multivariate(
                    dataset.features[mask0], dataset.features[mask1], self.t)
                repaired[mask0] = rep0
                repaired[mask1] = rep1
        return dataset.with_features(repaired)
