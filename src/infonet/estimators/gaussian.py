"""Closed-form linear-Gaussian MI and CMI with local values.

All values are in bits. Covariances use centered data and 1/(n-1); there is
no ridge repair, because silently regularizing would distort greedy
comparisons. Determinants come from Cholesky factors, which double as the
singularity check: a block is singular when its factorization fails or when
one of its columns keeps less than ``_PIVOT_SHARE`` of its variance after
regression on the columns before it.

One rule covers singular blocks, for single values and batches alike: a
singular conditioning block (z) raises ``SingularCovarianceError``; a
singular (x, z) or (y, z) block means that side is a linear function of z,
so the value is exactly 0; a singular full joint with healthy sides means x
and y are collinear given z and raises ``SingularCovarianceError``. A
constant column is the common case of the second kind and gets 0 bits.

Both entry points reduce to a stack of joint covariances of (x, y, z) and
share one kernel: the batched form evaluates one conditional mutual
information for a stack of replacement first-argument columns, which is what
the permutation tests need; a single value is a stack of one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from ..errors import EstimatorError, InsufficientSamplesError, SingularCovarianceError
from .base import Estimator, InfoValue, as_columns

_LN2 = math.log(2.0)
_NEGATIVE_SLACK = -1e-9
# Rounding leaves pivots of order d * 1e-16 of the column variance on exactly
# collinear data; genuine data would need a squared multiple correlation
# above 1 - 1e-10 to fall below this share.
_PIVOT_SHARE = 1e-10


def _factorize(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky factors, log-determinants and singular flags of an (m, d, d) stack.

    The stack is factorized in one call. Only when that call fails is each
    member factorized alone, so that one singular member does not hide the
    others; a member that fails has a NaN factor.
    """
    if stack.shape[1] == 0:
        return stack, np.zeros(len(stack)), np.zeros(len(stack), dtype=bool)
    try:
        factors = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        factors = np.full_like(stack, np.nan)
        for i, matrix in enumerate(stack):
            try:
                factors[i] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                pass
    diags = factors.diagonal(0, 1, 2)
    # Written so that a NaN factor counts as singular.
    singular = ~(diags * diags > _PIVOT_SHARE * stack.diagonal(0, 1, 2)).all(axis=1)
    return factors, 2.0 * np.log(diags).sum(axis=1), singular


def _cmi_stack(joint: np.ndarray, dx: int, dy: int):
    """CMI(x_i; y | z) in bits for each (m, d, d) joint covariance of (x_i, y, z).

    Members differ only in their x rows and columns; the (y, z) block is
    shared. Applies the module's degeneracy rule to each member. Returns the
    values, a mask of the members that are 0 by that rule, and the
    (factors, log-determinants) of the (x,z), (y,z), z and full blocks, or
    None for the blocks when y is a linear function of z.
    """
    m, d, _ = joint.shape
    s_ff = joint[0, dx:, dx:]
    f_z, ld_z, singular_z = _factorize(s_ff[np.newaxis, dy:, dy:])
    if singular_z[0]:
        raise SingularCovarianceError(
            f"conditioning covariance of dimension {d - dx - dy} is singular"
        )
    f_yz, ld_yz, singular_yz = _factorize(s_ff[np.newaxis])
    if singular_yz[0]:
        return np.zeros(m), np.ones(m, dtype=bool), None
    ixz = np.array([*range(dx), *range(dx + dy, d)])
    f_xz, ld_xz, zero = _factorize(joint[:, ixz[:, np.newaxis], ixz])
    f_xyz, ld_xyz, singular = _factorize(joint)
    if (singular & ~zero).any():
        raise SingularCovarianceError(
            "joint covariance is singular while (x, z) and (y, z) are not: "
            "x and y are collinear given z"
        )
    value = 0.5 * (ld_xz + ld_yz - ld_z - ld_xyz) / _LN2
    value[zero] = 0.0
    if value.min() < _NEGATIVE_SLACK:
        raise EstimatorError(
            f"information value {value.min()} below numerical slack; data ill-conditioned"
        )
    return value, zero, ((f_xz, ld_xz), (f_yz, ld_yz), (f_z, ld_z), (f_xyz, ld_xyz))


def _quadratic_forms(factor: np.ndarray, centered: np.ndarray) -> np.ndarray:
    """Per-row u' Sigma^{-1} u via the Cholesky factor."""
    if centered.shape[1] == 0:
        return np.zeros(centered.shape[0])
    half = solve_triangular(factor, centered.T, lower=True)
    return np.einsum("dn,dn->n", half, half)


def _check_samples(n: int, d: int) -> None:
    if n < d + 2:
        raise InsufficientSamplesError(f"need at least {d + 2} observations, got {n}")


def gaussian_cmi(x, y, z=None, with_local: bool = True) -> InfoValue:
    """Conditional mutual information under a joint-Gaussian model.

    CMI = 1/2 log2( det S_xz det S_yz / (det S_z det S_xyz) ); with an empty
    conditioning set this reduces exactly to the mutual information. Local
    values are the per-observation Gaussian log-density ratios, whose mean
    recovers the determinant form identically; a value that is 0 by the
    degeneracy rule (see the module docstring) has all-zero locals.
    """
    x = as_columns(x)
    y = as_columns(y)
    z = as_columns(z) if z is not None and np.size(z) else np.empty((x.shape[0], 0))
    n = x.shape[0]
    if y.shape[0] != n or z.shape[0] != n:
        raise EstimatorError("x, y, z must share the observation axis")
    # The measure is symmetric in (x, y); fixing a canonical internal order
    # makes the float result exactly symmetric too.
    if (y.shape[1], y.tobytes()) < (x.shape[1], x.tobytes()):
        x, y = y, x
    dx, dy, dz = x.shape[1], y.shape[1], z.shape[1]
    _check_samples(n, dx + dy + dz)
    data = np.concatenate([x, y, z], axis=1)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (n - 1)

    values, zero, blocks = _cmi_stack(cov[np.newaxis], dx, dy)
    value = float(values[0])
    if not with_local:
        return InfoValue(value=value)
    if zero[0]:
        return InfoValue(value=value, local=np.zeros(n))
    (f_xz, ld_xz), (f_yz, ld_yz), (f_z, ld_z), (f_xyz, ld_xyz) = (
        (factors[0], logdets[0]) for factors, logdets in blocks
    )
    q_xz = _quadratic_forms(f_xz, centered[:, [*range(dx), *range(dx + dy, dx + dy + dz)]])
    q_yz = _quadratic_forms(f_yz, centered[:, dx:])
    q_z = _quadratic_forms(f_z, centered[:, dx + dy :])
    q_xyz = _quadratic_forms(f_xyz, centered)
    local = (ld_xz + ld_yz - ld_z - ld_xyz + q_xz + q_yz - q_z - q_xyz) / (2.0 * _LN2)
    return InfoValue(value=value, local=local)


def gaussian_mi(x, y, with_local: bool = True) -> InfoValue:
    """Linear-Gaussian mutual information; univariate case is -1/2 log2(1-r^2)."""
    return gaussian_cmi(x, y, None, with_local=with_local)


def gaussian_cmi_batch(x_batch: np.ndarray, y, z=None) -> np.ndarray:
    """CMI(x_i; y | z) for each replacement block x_i in an (m, n, dx) stack.

    The (y, z) covariance is computed once; each batch member contributes
    only its own variance and cross-covariance. Members follow the same
    degeneracy rule as :func:`gaussian_cmi`, so a constant member gets 0.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.ndim == 2:
        x_batch = x_batch[:, :, np.newaxis]
    m, n, dx = x_batch.shape
    y = as_columns(y)
    z = as_columns(z) if z is not None and np.size(z) else np.empty((n, 0))
    d = dx + y.shape[1] + z.shape[1]
    _check_samples(n, d)
    fixed = np.concatenate([y, z], axis=1)
    fixed_c = fixed - fixed.mean(axis=0)
    xc = x_batch - x_batch.mean(axis=1, keepdims=True)
    s_xf = np.einsum("mnd,nf->mdf", xc, fixed_c) / (n - 1)
    joint = np.empty((m, d, d))
    joint[:, :dx, :dx] = np.einsum("mnd,mne->mde", xc, xc) / (n - 1)
    joint[:, :dx, dx:] = s_xf
    joint[:, dx:, :dx] = np.transpose(s_xf, (0, 2, 1))
    joint[:, dx:, dx:] = fixed_c.T @ fixed_c / (n - 1)
    return _cmi_stack(joint, dx, y.shape[1])[0]


class GaussianEstimator(Estimator):
    """Adapter exposing the linear-Gaussian estimator behind the common API."""

    name = "gaussian"

    def cmi(self, x, y, z=None) -> InfoValue:
        return gaussian_cmi(x, y, z, with_local=True)

    def cmi_value(self, x, y, z=None) -> float:
        return gaussian_cmi(x, y, z, with_local=False).value

    def cmi_surrogate_batch(self, x_batch, y, z=None) -> np.ndarray:
        return gaussian_cmi_batch(x_batch, y, z)

    def candidates_cmi(self, columns, y, z=None) -> np.ndarray:
        columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
        if columns.shape[1] == 0:
            return np.zeros(0)
        return gaussian_cmi_batch(columns.T[:, :, np.newaxis], y, z)
