"""Closed-form linear-Gaussian MI and CMI with local values.

All values are in bits. Covariances use centered data and 1/(n-1); there is
no ridge repair, because silently regularizing would distort greedy
comparisons. Second moments suffice because Gaussian transfer entropy is
Granger causality (Barnett, Barrett & Seth 2009): CMI(x; y | z) is half the
log-ratio of x's residual covariance given z to its residual covariance
given (y, z).

Every entry point reduces to one kernel in that regression form. Each member
of a stack has its own x moments and its cross-covariance ``s_fx`` with the
fixed block f = (z, y), in that order. The f covariance is factorized once
per distinct block, L L' = S_ff: once for a block shared by the whole stack,
in one stacked pass for per-member blocks. One product with the inverted
factor gives every member's rows W = L^-1 s_fx, and the residual blocks are
Schur complements, R_xz = S_xx - W_z'W_z and R_xyz = R_xz - W_y'W_y. The
value is half the log-determinant ratio of the two. For a one-column x that
is log2(R_xz / R_xyz) with no factorization per member, and since R_xyz is
R_xz less a square it cannot be negative; a wider x factorizes only its
dx x dx residual blocks. This replaced two joint-covariance factorizations
per member, one LAPACK call per matrix: on a 2-vCPU host they took about
half of a one-thread Gaussian network profile, and two threads factorizing
one 7 000 x 6 x 6 stack each ran no faster than one.

Factorizations run column by column over a whole stack at once, in numpy,
so a singular member never raises inside them. Pivot j is the variance that
column j keeps after regression on the columns before it, and a column is
degenerate when it keeps no more than ``_PIVOT_SHARE`` of its own variance.

One rule covers degenerate input, for single values and batches alike. A
NaN or infinite value raises ``InvalidValueError`` before any covariance is
formed (see :func:`~infonet.estimators.base.as_xyz`). A degenerate z column
(a leading pivot of f) raises ``SingularCovarianceError``. A degenerate y
column (y a linear function of z) or x column (given z and the x columns
before it) means that side carries nothing beyond z, so the value is exactly
0; a constant column is the common case. A degenerate column of R_xyz with
both sides healthy means x and y are collinear given z and raises
``SingularCovarianceError``.

The batched form evaluates one conditional mutual information for a stack
of replacement first-argument columns; the surrogate form does the same for
the draws of a permutation test, which share each candidate's moments and
differ only in their cross-covariance with f; it computes those without
gathering rows, for every candidate of a max test in one call, so the test
centers and factorizes its f block once; the group form gives each member
its own f block, which is what the replication exchange of a group
comparison needs; a single value is a stack of one.

Local values come from the same regression residuals e_z and e_f of x given
z and given f, and need only numpy, so Gaussian analyses never load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, EstimatorError, InsufficientSamplesError, SingularCovarianceError
from .base import (
    CIRCULAR_SHIFT, Estimator, InfoValue, SurrogateBatch, as_columns, as_xyz, as_yz, check_blocks,
    check_groups,
)

_LN2 = math.log(2.0)
_NEGATIVE_SLACK = -1e-9
# Rounding leaves pivots of order d * 1e-16 of the column variance on exactly
# collinear data; genuine data would need a squared multiple correlation
# above 1 - 1e-10 to fall below this share.
_PIVOT_SHARE = 1e-10
# See _column_means; far above the rounding error of any mean.
_MEAN_ROUNDING = 1e-9
# Lags (block length x candidate columns x (z, y) columns) of one chunk of
# _shifted_cross, 8 MiB of float64; the largest call of the gauss_net
# benchmark workload reaches 148 005, so ordinary pools take one chunk.
_CROSS_CELLS = 1 << 20


def _cholesky(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and pivots of an (m, d, d) stack, one column at a time.

    Each step serves every member at once. Pivot j is entry (j, j) less the
    squares of row j's earlier factor entries. A member with a pivot that is
    not positive gets NaN or infinite factor entries from that column on,
    never an exception; callers judge each member by its pivots.
    """
    m, d, _ = stack.shape
    factor = np.zeros((m, d, d))
    pivots = np.empty((m, d))
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(d):
            row = factor[:, j, :j]
            pivots[:, j] = stack[:, j, j] - np.einsum("mk,mk->m", row, row)
            root = np.sqrt(pivots[:, j])
            factor[:, j, j] = root
            below = stack[:, j + 1 :, j] - np.einsum("mik,mk->mi", factor[:, j + 1 :, :j], row)
            factor[:, j + 1 :, j] = below / root[:, np.newaxis]
    return factor, pivots


def _kept(pivots: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Whether each column keeps more than ``_PIVOT_SHARE`` of its variance; NaN does not."""
    return pivots > _PIVOT_SHARE * variances


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


def _cmi_stack(s_xx: np.ndarray, s_xf: np.ndarray, s_ff: np.ndarray, dz: int):
    """CMI(x_i; y_i | z_i) in bits for each member of a stack of covariances.

    ``s_xf`` is the (m, dx, dz+dy) stack of cross-covariances of x with
    f = (z, y), in that column order. ``s_xx`` and the f covariance ``s_ff``
    are each either a matching 3-D stack, one block per member, or one 2-D
    block shared by all members; a shared f block is factorized once.
    Applies the module's degeneracy rule to each member. Returns the values,
    a mask of the members that are 0 by that rule, and the inverted f
    factors, the rows W and the residual blocks R_xz and R_xyz, or None for
    these when y is a linear function of z in every member.
    """
    m, dx, df = s_xf.shape
    s_ff = s_ff.reshape(-1, df, df)  # a shared block becomes a stack of one
    factor, pivots = _cholesky(s_ff)
    kept = _kept(pivots, s_ff.diagonal(0, 1, 2))
    if not kept[:, :dz].all():
        raise SingularCovarianceError(f"conditioning covariance of dimension {dz} is singular")
    zero_y = ~kept[:, dz:].all(axis=1)
    if zero_y.all():
        return np.zeros(m), np.ones(m, dtype=bool), None
    factor[zero_y] = np.eye(df)  # those members are 0; any invertible factor serves
    inverse = np.linalg.inv(factor)
    if len(inverse) == 1:
        w = (s_xf.reshape(-1, df) @ inverse[0].T).reshape(m, dx, df)
    else:
        w = np.einsum("mak,mjk->maj", s_xf, inverse)
    r_xz = s_xx - np.einsum("maj,mbj->mab", w[..., :dz], w[..., :dz])
    r_xyz = r_xz - np.einsum("maj,mbj->mab", w[..., dz:], w[..., dz:])
    if dx == 1:  # a 1 x 1 block is its own pivot
        p_xz, p_xyz = r_xz[:, 0], r_xyz[:, 0]
    else:
        p_xz, p_xyz = _cholesky(r_xz)[1], _cholesky(r_xyz)[1]
    variances = s_xx.diagonal(0, -2, -1)
    zero = zero_y | ~_kept(p_xz, variances).all(axis=1)
    if (~_kept(p_xyz, variances).all(axis=1) & ~zero).any():
        raise SingularCovarianceError(
            "x keeps no variance given (y, z) while x and y each keep some given z: "
            "x and y are collinear given z"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        value = 0.5 * np.log(p_xz / p_xyz).sum(axis=1) / _LN2
    value[zero] = 0.0
    if value.min() < _NEGATIVE_SLACK:
        raise EstimatorError(
            f"information value {value.min()} below numerical slack; data ill-conditioned"
        )
    return value, zero, (inverse, w, r_xz, r_xyz)


def _check_samples(n: int, d: int) -> None:
    if n < d + 2:
        raise InsufficientSamplesError(f"need at least {d + 2} observations, got {n}")


def _quadratic_forms(residuals: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-row e' R^-1 e of (n, dx) residuals."""
    return np.einsum("na,an->n", residuals, np.linalg.solve(r, residuals.T))


def gaussian_cmi(x, y, z=None, with_local: bool = True) -> InfoValue:
    """Conditional mutual information under a joint-Gaussian model.

    CMI = 1/2 log2( det R_xz / det R_xyz ), x's residual covariances given z
    and given (y, z); with an empty conditioning set this is exactly the
    mutual information. Local values are the per-observation Gaussian
    log-density ratios, value + (e_z' R_xz^-1 e_z - e_f' R_xyz^-1 e_f) / (2 ln 2)
    for x's residuals e_z given z and e_f given (z, y), whose mean recovers
    the value identically; a value that is 0 by the degeneracy rule (see the
    module docstring) has all-zero locals.
    """
    x, y, z = as_xyz(x, y, z)
    n = x.shape[0]
    # The measure is symmetric in (x, y); fixing a canonical internal order
    # makes the float result exactly symmetric too.
    if (y.shape[1], y.tobytes()) < (x.shape[1], x.tobytes()):
        x, y = y, x
    dx, dz = x.shape[1], z.shape[1]
    _check_samples(n, dx + y.shape[1] + dz)
    data = np.concatenate([x, z, y], axis=1)
    centered = data - _column_means(data)
    cov = centered.T @ centered / (n - 1)

    values, zero, parts = _cmi_stack(cov[:dx, :dx], cov[np.newaxis, :dx, dx:], cov[dx:, dx:], dz)
    value = float(values[0])
    if not with_local:
        return InfoValue(value=value)
    if zero[0]:
        return InfoValue(value=value, local=np.zeros(n))
    inverse, w, r_xz, r_xyz = (part[0] for part in parts)
    whitened = centered[:, dx:] @ inverse.T
    e_z = centered[:, :dx] - whitened[:, :dz] @ w[:, :dz].T
    e_f = centered[:, :dx] - whitened @ w.T
    spread = _quadratic_forms(e_z, r_xz) - _quadratic_forms(e_f, r_xyz)
    return InfoValue(value=value, local=value + spread / (2.0 * _LN2))


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
    """The centered f = (z, y) columns shared by a batch, their covariance and the width of z."""
    y, z = as_yz(y, z, n)
    _check_samples(n, dx + y.shape[1] + z.shape[1])
    fixed = np.concatenate([z, y], axis=1)
    fixed_c = fixed - _column_means(fixed)
    return fixed_c, fixed_c.T @ fixed_c / (n - 1), z.shape[1]


def gaussian_cmi_batch(x_batch: np.ndarray, y, z=None) -> np.ndarray:
    """CMI(x_i; y | z) for each replacement block x_i in an (m, n, dx) stack.

    The (z, y) covariance is computed and factorized once; each batch
    member contributes only its own variance and cross-covariance. Members
    follow the same degeneracy rule as :func:`gaussian_cmi`, so a constant
    member gets 0; an empty stack gets no values.
    """
    x_batch = _as_batch(x_batch)
    m, n, dx = x_batch.shape
    if m == 0:
        return np.zeros(0)
    fixed_c, s_ff, dz = _centered_fixed(y, z, n, dx)
    xc = x_batch - _column_means(x_batch)
    s_xf = np.einsum("mnd,nf->mdf", xc, fixed_c) / (n - 1)
    s_xx = np.einsum("mnd,mne->mde", xc, xc) / (n - 1)
    return _cmi_stack(s_xx, s_xf, s_ff, dz)[0]


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
        spec_x = np.fft.rfft(xc[start:stop], axis=0)
        np.conjugate(spec_x, out=spec_x)
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
        cross-covariance with (z, y): circular shifts take it from one FFT
        cross-correlation per replication block, replication shuffles from
        inner products of whole blocks, for every candidate's columns at
        once. One kernel call covers every member, with each candidate's
        own covariance and the shared (z, y) block, factorized once. Values
        match :func:`gaussian_cmi_batch` on the gathered members to rounding.
        """
        columns = x_batch.columns
        n, width = columns.shape[0], x_batch.width
        draws, candidates = x_batch.n_draws, x_batch.n_candidates
        fixed_c, s_ff, dz = _centered_fixed(y, z, n, width)
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
            dz,
        )[0]

    def candidates_cmi(self, columns, y, z=None) -> np.ndarray:
        return gaussian_cmi_batch(as_columns(columns).T[:, :, np.newaxis], y, z)

    def group_cmis(self, x, y, z, blocks, groups) -> np.ndarray:
        """Group CMIs from per-block moments, every group in one kernel call.

        The table is centered once on its mean, and each block is reduced to
        a row count, column sums and a cross-product. The covariance of any
        union of blocks follows exactly from the sums of its members' moments
        (Chan, Golub & LeVeque 1983), so one product with a 0/1 membership
        matrix gives every group's covariance. Values match the
        concatenating default to rounding; the order of a group's blocks
        does not matter here. A column that is constant across a group's
        blocks gets exact zero moments in that group, as the default's
        centering gives it, so the degeneracy rule applies to it too.
        """
        x, y, z = as_xyz(x, y, z)
        blocks = check_blocks(blocks, len(x))
        check_groups(groups, len(blocks))
        if not len(groups):
            return np.zeros(0)
        dx, dz = x.shape[1], z.shape[1]
        rows = np.concatenate([x, z, y], axis=1)
        centered = rows - _column_means(rows)
        d = centered.shape[1]
        starts = np.array([start for start, _ in blocks])
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
        return _cmi_stack(cov[:, :dx, :dx], cov[:, :dx, dx:], cov[:, dx:, dx:], dz)[0]
