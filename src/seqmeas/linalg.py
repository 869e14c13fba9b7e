"""Dense complex linear algebra primitives, and the one home of the
tolerances the other modules share.

All operators are numpy arrays of dtype complex128.  Matrices are small
(dimension a few dozen at most), so everything here is plain dense algebra;
no attempt is made to exploit sparsity.

Constructions (square roots, range factors, dilations, instruments) read
the constants below directly and take no tolerance argument; only
predicates, which their callers hold to different accuracies, take a
`tol`, defaulting to one of these constants.  They chain: a joint witness
solved to `WITNESS_TOL` keeps the closed-form B' of `modified_observable`
inside `CHECK_TOL`, at which `verify_sequential` accepts the recovered
observable.  The spectral helpers work on stacks of matrices, checking
each matrix on its own.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "RANK_TOL",
    "RANK_RCOND",
    "CERTIFICATE_SLACK",
    "CHECK_TOL",
    "WITNESS_TOL",
    "NECESSARY_TOL",
    "MARGINAL_TOL",
    "STATE_TOL",
    "QUBIT_TOL",
    "RECOVERY_FLOOR",
    "BOUNDARY_SLACK",
    "as_complex",
    "dagger",
    "frob",
    "herm_eig",
    "sqrt_psd",
    "is_psd",
    "range_factors",
]

# Hermiticity, positivity and rank cuts on single matrices
HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9
RANK_TOL = 1e-9
# singular values below this fraction of the largest count as zero when a
# span or a pseudo-inverse is formed
RANK_RCOND = 1e-10
# roundoff allowance for a Farkas certificate y of an infeasible system
# L x = b over a cone: its gap -<y, b> must exceed this fraction of
# |y| |b| before the certificate counts as a proof (a check that rebuilds
# L*y independently may also let its eigenvalues dip this fraction of
# its norm below zero)
CERTIFICATE_SLACK = 1e-12
# the accuracy a yes-answer is held to: the solver's stopping residual and
# the default of every check that accepts a constructed object
CHECK_TOL = 1e-8
# the tight joint solve whose witness feeds `modified_observable`
WITNESS_TOL = 1e-10
# cheap necessary conditions are checked to this absolute scale
NECESSARY_TOL = 1e-7
# how far a joint's leading marginal may sit from the target observable
# before the sequential construction refuses it
MARGINAL_TOL = 1e-6
# states are validated on entry this loosely; numerically produced density
# matrices routinely carry 1e-12 dirt
STATE_TOL = 1e-8
# how far a qubit binary may sit from (1/2)(I +- t n.sigma) with |n| = 1
QUBIT_TOL = 1e-9
# a recovered observable is checked no tighter than this, because a solver
# witness meets its constraints only to its residual
RECOVERY_FLOOR = 1e-6
# roundoff allowance on the closed-form boundary s^2 + t^2 <= 1
BOUNDARY_SLACK = 1e-12


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def frob(m: np.ndarray) -> float:
    """Frobenius norm, as a float."""
    return float(np.linalg.norm(m))


def as_complex(m) -> np.ndarray:
    """Coerce to a complex128 array without copying when already one."""
    return np.asarray(m, dtype=np.complex128)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    # unit columns, so the anchor entry is never zero
    anchors = np.abs(vecs).argmax(axis=-2)
    lead = np.take_along_axis(vecs, anchors[..., None, :], axis=-2)
    return vecs * (np.abs(lead) / lead)


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix, or of each of a
    stack (..., d, d) of them, like ``np.linalg.eigh``, after a check of
    each matrix's Hermiticity to `HERMITICITY_TOL`.

    The eigenvalues are real and ascending; column k of the eigenvectors is
    the unit eigenvector for eigenvalue k, with its largest-magnitude entry
    rotated to the positive real axis so repeated runs give identical bases.
    """
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if (np.linalg.norm(m - dagger(m), axis=(-2, -1)) > HERMITICITY_TOL).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh((m + dagger(m)) / 2)
    return vals, _fix_phases(vecs)


def _checked_eig(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """`herm_eig`, refusing a matrix with an eigenvalue below -tol."""
    vals, vecs = herm_eig(m)
    if (vals[..., 0] < -tol).any():
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {vals[..., 0].min():.3e}")
    return vals, vecs


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix, or of each
    of a stack (..., d, d) of them.

    Eigenvalues in [-PSD_TOL, PSD_TOL] are treated as exact zeros, because
    the root of roundoff on the kernel is far larger than the roundoff
    itself (1e-16 would give 1e-8); anything below -PSD_TOL raises.
    """
    vals, vecs = _checked_eig(m, PSD_TOL)
    roots = np.sqrt(np.where(vals > PSD_TOL, vals, 0.0))
    out = (vecs * roots[..., None, :]) @ dagger(vecs)
    return (out + dagger(out)) / 2


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Whether ``m``, or every matrix of a stack ``m``, is Hermitian and
    positive semidefinite within ``tol``."""
    m = as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        return False
    if (np.linalg.norm(m - dagger(m), axis=(-2, -1)) > tol).any():
        return False
    vals = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return bool((vals[..., 0] >= -tol).all())


def range_factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factors W_i = diag(sqrt(lambda)) V^dag, with W_i^dag W_i = A_i, of
    each PSD matrix A_i of a stack (n, d, d), from one `herm_eig` call.

    Only eigenvalues above `RANK_TOL` give a row, in descending order, so
    W_i has rank(A_i) orthogonal rows, W_i W_i^dag = diag(lambda) and
    W_i^+ = W_i^dag diag(1/lambda).  Returns the rows of all factors
    stacked, shape (sum of ranks, d), and the index i owning each row; an
    eigenvalue below -`RANK_TOL` raises.
    """
    vals, vecs = _checked_eig(m, RANK_TOL)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    keep = vals > RANK_TOL
    rows = np.sqrt(vals[keep])[:, None] * dagger(vecs)[keep]
    return rows, np.nonzero(keep)[0]
