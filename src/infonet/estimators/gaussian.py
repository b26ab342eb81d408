"""Closed-form linear-Gaussian MI and CMI with local values.

All values are in bits. Covariances use centered data and 1/(n-1); there is
no ridge repair, because silently regularizing would distort greedy
comparisons. Determinants come from Cholesky factors, which double as the
singularity check: a block is singular when its factorization fails or when
one of its columns keeps less than ``_PIVOT_SHARE`` of its variance after
regression on the columns before it.

One rule covers degenerate input, for single values and batches alike. A
NaN or infinite value raises ``InvalidValueError`` before any covariance is
formed (see :func:`~infonet.estimators.base.as_xyz`); it would otherwise
give a NaN factor, count as singular and score 0. For singular blocks: a
singular conditioning block (z) raises ``SingularCovarianceError``; a
singular (x, z) or (y, z) block means that side is a linear function of z,
so the value is exactly 0; a singular full joint with healthy sides means x
and y are collinear given z and raises ``SingularCovarianceError``. A
constant column is the common case of the second kind and gets 0 bits.

Every entry point reduces to a stack of joint covariances of (x, y, z) and
shares one kernel: the batched form evaluates one conditional mutual
information for a stack of replacement first-argument columns; the surrogate
form does the same for the draws of a permutation test, which share each
candidate's moments and differ only in their cross-covariance with (y, z);
it computes those without gathering rows, for every candidate of a max test
in one call, so the test centers and factorizes its (y, z) block once; the
group form gives each member its own (y, z) block, which is what the
replication exchange of a group comparison needs; a single value is a stack
of one. Second moments suffice because Gaussian transfer entropy is Granger
causality (Barnett, Barrett & Seth 2009).

Values need only numpy. Local values also take one triangular solve per
block, and scipy, which provides it, is imported on the first such call.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, EstimatorError, InsufficientSamplesError, SingularCovarianceError
from .base import CIRCULAR_SHIFT, Estimator, InfoValue, SurrogateBatch, as_columns, as_xyz, as_yz

_LN2 = math.log(2.0)
_NEGATIVE_SLACK = -1e-9
# Rounding leaves pivots of order d * 1e-16 of the column variance on exactly
# collinear data; genuine data would need a squared multiple correlation
# above 1 - 1e-10 to fall below this share.
_PIVOT_SHARE = 1e-10
# See _column_means; far above the rounding error of any mean.
_MEAN_ROUNDING = 1e-9
# Lags (block length x candidate columns x (y, z) columns) of one chunk of
# _shifted_cross, 8 MiB of float64; the largest call of the gauss_net
# benchmark workload reaches 148 005, so ordinary pools take one chunk.
_CROSS_CELLS = 1 << 20


def _factorize(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky factors, log-determinants and singular flags of an (m, d, d) stack.

    A member whose factorization fails has a NaN factor; see :func:`_cholesky`.
    """
    if stack.shape[1] == 0:
        return stack, np.zeros(len(stack)), np.zeros(len(stack), dtype=bool)
    factors = _cholesky(stack)
    diags = factors.diagonal(0, 1, 2)
    # Written so that a NaN factor counts as singular.
    singular = ~(diags * diags > _PIVOT_SHARE * stack.diagonal(0, 1, 2)).all(axis=1)
    return factors, 2.0 * np.log(diags).sum(axis=1), singular


def _cholesky(stack: np.ndarray) -> np.ndarray:
    """Cholesky factors of an (m, d, d) stack, NaN for each member that fails.

    Each pivot is a diagonal entry minus a sum of squares, so a member with a
    diagonal entry that is not positive (a constant column) fails and is not
    tried. The rest are factorized in one call. Only when that call fails are
    its two halves retried, so that one singular member neither hides the
    others nor sends a whole max-test stack member by member. When both
    halves fail as well, failures are dense and the members are tried one at
    a time, at one call each. Each member's factor is the one it gets alone.
    """
    tried = (stack.diagonal(0, 1, 2) > 0).all(axis=1)
    if not tried.all():
        factors = np.full_like(stack, np.nan)
        factors[tried] = _cholesky(stack[tried])
        return factors
    factors = _try_cholesky(stack)
    return _failed_cholesky(stack) if factors is None else factors


def _try_cholesky(stack: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return None


def _failed_cholesky(stack: np.ndarray) -> np.ndarray:
    """Factors of a stack whose one-call factorization failed; see :func:`_cholesky`."""
    if len(stack) == 1:
        return np.full_like(stack, np.nan)
    parts = np.split(stack, [len(stack) // 2])
    factors = [_try_cholesky(part) for part in parts]
    if factors[0] is None and factors[1] is None:
        parts = np.split(stack, len(stack))
        factors = [_try_cholesky(part) for part in parts]
    return np.concatenate(
        [_failed_cholesky(part) if f is None else f for f, part in zip(factors, parts)]
    )


def _column_means(data: np.ndarray) -> np.ndarray:
    """Means over the row axis of an (..., n, d) array, shaped (..., 1, d).

    An exactly constant column gets its own value as mean, so that it centers
    to exact zeros: the rounded mean of n copies of c need not equal c, and
    the residue would leave a variance of order eps^2 that can pass the
    pivot test and give a nonzero value. That rounded mean lies within about
    log2(n) * eps * |c| of c, so only columns whose first value is that close
    to the mean are checked row by row.
    """
    mean = data.mean(axis=-2, keepdims=True)
    first = data[..., :1, :]
    suspect = np.abs(mean - first) <= _MEAN_ROUNDING * np.abs(first)
    if suspect.any():
        constant = suspect & (data == first).all(axis=-2, keepdims=True)
        mean = np.where(constant, first, mean)
    return mean


def _cmi_stack(s_xx: np.ndarray, s_xf: np.ndarray, s_ff: np.ndarray, dy: int):
    """CMI(x_i; y_i | z_i) in bits for each member of a stack of joint covariances.

    ``s_xf`` is the (m, dx, dy+dz) stack of cross-covariances of x with
    (y, z). ``s_xx`` and the (y, z) covariance ``s_ff`` are each either a
    matching 3-D stack, one block per member, or one 2-D block shared by all
    members; a shared (y, z) block is factorized once. Applies the module's
    degeneracy rule to each member. Returns the values, a mask of the members
    that are 0 by that rule, and the (factors, log-determinants) of the
    (x,z), (y,z), z and full blocks, or None for the blocks when y is a
    linear function of z in every member.
    """
    m, dx, df = s_xf.shape
    d = dx + df
    joint = np.empty((m, d, d))
    joint[:, :dx, :dx] = s_xx
    joint[:, :dx, dx:] = s_xf
    joint[:, dx:, :dx] = np.transpose(s_xf, (0, 2, 1))
    joint[:, dx:, dx:] = s_ff
    s_ff = s_ff.reshape(-1, df, df)  # a shared block becomes a stack of one
    f_z, ld_z, singular_z = _factorize(s_ff[:, dy:, dy:])
    if singular_z.any():
        raise SingularCovarianceError(
            f"conditioning covariance of dimension {df - dy} is singular"
        )
    f_yz, ld_yz, singular_yz = _factorize(s_ff)
    if singular_yz.all():
        return np.zeros(m), np.ones(m, dtype=bool), None
    ixz = np.array([*range(dx), *range(dx + dy, d)])
    f_xz, ld_xz, singular_xz = _factorize(joint[:, ixz[:, np.newaxis], ixz])
    zero = singular_xz | singular_yz
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
    from scipy.linalg import solve_triangular

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
    x, y, z = as_xyz(x, y, z)
    n = x.shape[0]
    # The measure is symmetric in (x, y); fixing a canonical internal order
    # makes the float result exactly symmetric too.
    if (y.shape[1], y.tobytes()) < (x.shape[1], x.tobytes()):
        x, y = y, x
    dx, dy, dz = x.shape[1], y.shape[1], z.shape[1]
    _check_samples(n, dx + dy + dz)
    data = np.concatenate([x, y, z], axis=1)
    centered = data - _column_means(data)
    cov = centered.T @ centered / (n - 1)

    values, zero, blocks = _cmi_stack(
        cov[:dx, :dx], cov[np.newaxis, :dx, dx:], cov[dx:, dx:], dy
    )
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


def _as_batch(x_batch) -> np.ndarray:
    """An (m, n, dx) stack of finite floats; an (m, n) stack has one column per member."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.ndim not in (2, 3):
        raise DataError(f"expected an (m, n) or (m, n, dx) stack, got shape {x_batch.shape}")
    as_columns(x_batch.ravel())  # raises on a NaN or infinite value
    return x_batch[:, :, np.newaxis] if x_batch.ndim == 2 else x_batch


def _centered_fixed(y, z, n: int, dx: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The centered (y, z) columns shared by a batch, their covariance and the width of y."""
    y, z = as_yz(y, z, n)
    _check_samples(n, dx + y.shape[1] + z.shape[1])
    fixed = np.concatenate([y, z], axis=1)
    fixed_c = fixed - _column_means(fixed)
    return fixed_c, fixed_c.T @ fixed_c / (n - 1), y.shape[1]


def gaussian_cmi_batch(x_batch: np.ndarray, y, z=None) -> np.ndarray:
    """CMI(x_i; y | z) for each replacement block x_i in an (m, n, dx) stack.

    The (y, z) covariance is computed once; each batch member contributes
    only its own variance and cross-covariance. Members follow the same
    degeneracy rule as :func:`gaussian_cmi`, so a constant member gets 0.
    """
    x_batch = _as_batch(x_batch)
    m, n, dx = x_batch.shape
    fixed_c, s_ff, dy = _centered_fixed(y, z, n, dx)
    xc = x_batch - _column_means(x_batch)
    s_xf = np.einsum("mnd,nf->mdf", xc, fixed_c) / (n - 1)
    s_xx = np.einsum("mnd,mne->mde", xc, xc) / (n - 1)
    return _cmi_stack(s_xx, s_xf, s_ff, dy)[0]


def _shifted_cross(xc, fixed_c, blocks, rotations) -> np.ndarray:
    """Cross-products x'F of every circular-shift draw, shaped (draws, dx, df).

    A block rotated right by r pairs x row j with F row (j + r) mod length, so
    the block's cross-product at every r is the circular cross-correlation
    irfft(conj(rfft(x)) rfft(F)); each draw sums its blocks' values at their
    rotations. The x columns go through the inverse transform in chunks of
    at most ``_CROSS_CELLS`` lags, which bounds memory at large n and many
    candidates without changing any value.
    """
    df = fixed_c.shape[1]
    out = np.zeros((len(rotations), xc.shape[1], df))
    for b, (start, stop) in enumerate(blocks):
        length = stop - start
        spec_x = np.fft.rfft(xc[start:stop], axis=0).conj()
        spec_f = np.fft.rfft(fixed_c[start:stop], axis=0)
        step = max(_CROSS_CELLS // (length * df), 1)
        for c in range(0, xc.shape[1], step):
            lags = np.fft.irfft(
                spec_x[:, c : c + step, np.newaxis] * spec_f[:, np.newaxis, :], n=length, axis=0
            )
            out[:, c : c + step] += lags[rotations[:, b]]
    return out


def _shuffled_cross(xc, fixed_c, n_blocks: int, orders) -> np.ndarray:
    """Cross-products x'F of every replication-shuffle draw, shaped (draws, dx, df).

    A draw puts x block orders[b] against F block b. For each target block b
    one product gives the inner products of every x block with F_b, so the
    (blocks, blocks, dx, df) tensor of all pairs is never held at once.
    """
    dx, df = xc.shape[1], fixed_c.shape[1]
    x_rows = xc.reshape(n_blocks, -1, dx).transpose(0, 2, 1).reshape(n_blocks * dx, -1)
    f_blocks = fixed_c.reshape(n_blocks, -1, df)
    out = np.zeros((len(orders), dx, df))
    for b in range(n_blocks):
        out += (x_rows @ f_blocks[b]).reshape(n_blocks, dx, df)[orders[:, b]]
    return out


class GaussianEstimator(Estimator):
    """Adapter exposing the linear-Gaussian estimator behind the common API."""

    def cmi(self, x, y, z=None) -> InfoValue:
        return gaussian_cmi(x, y, z, with_local=True)

    def cmi_value(self, x, y, z=None) -> float:
        return gaussian_cmi(x, y, z, with_local=False).value

    def cmi_surrogate_batch(self, x_batch: SurrogateBatch, y, z=None) -> np.ndarray:
        """Surrogate CMIs from cross-covariances alone, with no gathered rows.

        Every draw is a row permutation of the column block, so all draws of
        a candidate share its mean and covariance and differ only in their
        cross-covariance with (y, z): circular shifts take it from one FFT
        cross-correlation per replication block, replication shuffles from
        inner products of whole blocks, for every candidate's columns at
        once. One kernel call covers every member, with each candidate's
        own covariance and the shared (y, z) block, factorized once. Values
        match :func:`gaussian_cmi_batch` on the gathered members to rounding.
        """
        columns = x_batch.columns
        n, width = columns.shape[0], x_batch.width
        draws, candidates = x_batch.n_draws, x_batch.n_candidates
        fixed_c, s_ff, dy = _centered_fixed(y, z, n, width)
        xc = columns - _column_means(columns)
        if x_batch.method == CIRCULAR_SHIFT:
            s_xf = _shifted_cross(xc, fixed_c, x_batch.blocks, x_batch.draws)
        else:
            s_xf = _shuffled_cross(xc, fixed_c, len(x_batch.blocks), x_batch.draws)
        # (draws, candidates * width, df) to candidate-major members.
        s_xf = s_xf.reshape(draws, candidates, width, -1).swapaxes(0, 1)
        per_candidate = xc.reshape(n, candidates, width)
        s_xx = np.einsum("ncd,nce->cde", per_candidate, per_candidate)
        return _cmi_stack(
            np.repeat(s_xx / (n - 1), draws, axis=0),
            s_xf.reshape(candidates * draws, width, -1) / (n - 1),
            s_ff,
            dy,
        )[0]

    def candidates_cmi(self, columns, y, z=None) -> np.ndarray:
        columns = as_columns(columns)
        if columns.shape[1] == 0:
            return np.zeros(0)
        return gaussian_cmi_batch(columns.T[:, :, np.newaxis], y, z)

    def group_cmis(self, blocks, groups) -> np.ndarray:
        """Group CMIs from per-block moments, every group in one kernel call.

        All blocks are centered once on their pooled mean and reduced to a
        row count, column sums and a cross-product. The covariance of any
        union of blocks follows exactly from the sums of its members' moments
        (Chan, Golub & LeVeque 1983), so one product with a 0/1 membership
        matrix gives every group's covariance. Values match the
        concatenating default to rounding; the order of a group's blocks
        does not matter here. A column that is constant across a group's
        blocks gets exact zero moments in that group, as the default's
        centering gives it, so the degeneracy rule applies to it too.
        """
        parts = [as_xyz(*block) for block in blocks]
        dx, dy = parts[0][0].shape[1], parts[0][1].shape[1]
        rows = np.concatenate([np.concatenate(block, axis=1) for block in parts])
        centered = rows - _column_means(rows)
        d = centered.shape[1]
        starts = np.concatenate([[0], np.cumsum([len(block[0]) for block in parts])[:-1]])
        moments = np.stack(
            [
                np.concatenate([[len(c)], c.sum(axis=0), (c.T @ c).ravel()])
                for c in np.split(centered, starts[1:])
            ]
        )
        n_groups, n_blocks = len(groups), len(blocks)
        cells = np.repeat(np.arange(n_groups) * n_blocks, [len(g) for g in groups])
        cells += np.concatenate(groups).astype(np.intp)
        membership = np.bincount(cells, minlength=n_groups * n_blocks).reshape(n_groups, -1)
        grouped = membership.astype(np.float64) @ moments
        n = grouped[:, 0]
        short = n < d + 2
        if short.any():
            _check_samples(int(n[short.argmax()]), d)
        count = n[:, np.newaxis, np.newaxis]
        sums = grouped[:, 1 : d + 1, np.newaxis]
        products = grouped[:, d + 1 :].reshape(-1, d, d)
        cov = (products - sums * sums.transpose(0, 2, 1) / count) / (count - 1)
        low, high = np.minimum.reduceat(rows, starts), np.maximum.reduceat(rows, starts)
        if (low == high).any():
            member = membership[:, :, np.newaxis] > 0
            low = np.where(member, low, np.inf).min(axis=1)
            constant = low == np.where(member, high, -np.inf).max(axis=1)
            cov[constant] = 0.0
            cov.transpose(0, 2, 1)[constant] = 0.0
        return _cmi_stack(cov[:, :dx, :dx], cov[:, :dx, dx:], cov[:, dx:, dx:], dy)[0]
