"""Convex feasibility engine for measurement compatibility questions.

Every decision here is one kind of search: positive semidefinite blocks
on a product grid whose sums over some grid axes, read through a
channel's dual X -> sum_k K^dag X K (or through nothing), equal fixed
targets.  Each such family of constraints is one affine set,
`_Marginals`, and every question is a list of families:

* the joint observable of two or three given ones
  (`find_joint_observable`): one family per observable, keeping its own
  grid axis;
* a Heisenberg preimage, an observable F on a channel's output whose
  dual images c*(F_y) are fixed effects B_y: the blocks sum to the
  identity, and each block maps to its target through the channel.
  Asked of the channel it decides whether some later observable
  reproduces B (`conjugate_is_b_channel`, `recover_b_prime`); asked of
  the conjugate channel it decides whether the channel splits into
  branches measuring B (`is_a_channel`), because those branches are
  exactly the observables on the Stinespring environment.

The solver is Dykstra's alternating projection method, which converges
to a point of the intersection whenever one exists.  Only the cone
projection carries a Dykstra correction: on an affine set or a subspace
the correction is normal to the set, so the next projection onto it
discards it.  The method carries no separating certificate, so
infeasibility is heuristic: when the residual stalls far above
tolerance the run is declared infeasible and the stalled residual is
reported as a floor.  An honest "undecided" is a possible answer.

Rank-deficient targets pin every solution to a face of the cone, where
plain alternating projections slow to a crawl.  A block read through a
family's map sits below each target it sums into, so it must vanish on
the Kraus image of that target's kernel; each solve projects onto these
supports too.  They are necessary conditions computed from the inputs
alone, so they never change the set being searched; they only keep the
iteration away from the tangent directions.

The cone projection runs last in every sweep, so each logged iterate is
exactly positive and the residual is purely the affine defect; support
projections are excluded from the residual.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, conjugate, heisenberg_apply
from .linalg import DEFAULT, RANK_RCOND, dagger, frob
from .povm import SIGMA_X, SIGMA_Z, Label, Povm

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "UNDECIDED",
    "SolverOptions",
    "DEFAULT_OPTIONS",
    "FeasibilityOutcome",
    "NecessaryConditionError",
    "FeasibilityError",
    "is_a_channel",
    "conjugate_is_b_channel",
    "recover_b_prime",
    "find_joint_observable",
    "witness_povm",
    "busch_value",
    "busch_criterion",
    "orthogonal_joint_observable",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"

# cheap necessary conditions are checked to this absolute scale
NECESSARY_TOL = 1e-7


class NecessaryConditionError(ValueError):
    """A cheap necessary condition rules the problem out before solving."""


class FeasibilityError(RuntimeError):
    """An operation needed a feasibility result it could not establish."""


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the alternating-projection solver.

    A run stops feasible as soon as the residual reaches `tol`.  It
    stops infeasible when the best residual has not improved by more
    than `stall_delta` for `stall_window` consecutive sweeps while
    still above `infeasible_ratio * tol`.  Otherwise it runs out of
    `max_iters` and reports undecided.
    """

    tol: float = 1e-8
    max_iters: int = 50_000
    stall_window: int = 500
    stall_delta: float = 1e-12
    infeasible_ratio: float = 10.0


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class FeasibilityOutcome:
    """Result of one solver run.

    `witness` is populated only for feasible outcomes, in which case the
    blocks are exactly positive and meet every affine constraint within
    `residual`.  `infeasibility_floor` is the stalled residual backing a
    heuristic infeasible verdict.  `residual_history` records the best
    residual seen up to each sweep and is non-increasing.
    """

    status: str
    residual: float
    iterations: int
    witness: tuple[np.ndarray, ...] | None = None
    witness_labels: tuple[Label, ...] | None = None
    infeasibility_floor: float | None = None
    residual_history: tuple[float, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


# --- projections ----------------------------------------------------------

_EYE2 = np.eye(2)


def _project_psd(blocks: np.ndarray) -> np.ndarray:
    """Project every block onto the positive semidefinite cone."""
    h = (blocks + np.conj(np.swapaxes(blocks, -1, -2))) / 2
    if h.shape[-1] == 2:
        # closed form from the two eigenvalues mid +- r
        a = h[..., 0, 0].real
        d = h[..., 1, 1].real
        b = h[..., 0, 1]
        mid = (a + d) / 2
        r = np.sqrt(((a - d) / 2) ** 2 + b.real**2 + b.imag**2)
        lo = mid - r
        hi = mid + r
        gap = np.where(hi > lo, hi - lo, 1.0)
        keep = (hi / gap)[..., None, None]
        out = keep * (h - lo[..., None, None] * _EYE2)
        out = np.where((lo >= 0.0)[..., None, None], h, out)
        return np.where((hi <= 0.0)[..., None, None], 0.0, out)
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


class _Marginals:
    """Affine set: the block sums over the grid axes outside `keep`, read
    through X -> sum_k K^dag X K (the identity when `kraus` is None),
    equal `targets`, one per cell of the kept axes in row-major order.
    """

    def __init__(
        self,
        grid: tuple[int, ...],
        keep: tuple[int, ...],
        targets: Sequence[np.ndarray],
        kraus: Sequence[np.ndarray] | None = None,
    ):
        self.grid = grid
        self.keep = keep
        self.kraus = kraus
        self.sum_axes = tuple(i for i in range(len(grid)) if i not in keep)
        self.scale = math.prod(grid[i] for i in self.sum_axes)
        self.lift = tuple(n if i in keep else 1 for i, n in enumerate(grid))
        self.targets = np.asarray(targets, dtype=complex)
        self.flat_targets = self.targets.reshape(len(self.targets), -1)
        self.smat = None
        if kraus is not None:
            k = np.stack(kraus)
            n_k, d_out, d_in = k.shape
            # row-major vec(K^dag X K) = kron(K^dag, K^T) vec(X), summed over K
            kt = np.conj(k).transpose(2, 1, 0).reshape(d_in * d_out, n_k)
            smat = kt @ k.transpose(0, 2, 1).reshape(n_k, d_in * d_out)
            smat = smat.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3)
            self.smat = smat.reshape(d_in * d_in, d_out * d_out)
            # smat smat^dag is X -> sum_kl G X G^dag over G = K_k^dag K_l
            g = (np.conj(np.swapaxes(k, 1, 2))[:, None] @ k).reshape(-1, d_in * d_in)
            gram = (g.T @ g.conj()).reshape(d_in, d_in, d_in, d_in)
            gram = gram.transpose(0, 2, 1, 3).reshape(d_in * d_in, d_in * d_in)
            # the Gram matrix is PSD, so its pseudo-inverse comes from eigh
            w, v = np.linalg.eigh(gram)
            big = w > RANK_RCOND * w[-1]
            self.ginv = (v[:, big] / w[big]) @ dagger(v[:, big])

    def _defect(self, x: np.ndarray) -> np.ndarray:
        g = x.reshape(self.grid + (-1,)).sum(axis=self.sum_axes)
        flat = g.reshape(len(self.targets), -1)
        if self.smat is not None:
            flat = flat @ self.smat.T
        return self.flat_targets - flat

    def project(self, x: np.ndarray) -> np.ndarray:
        step = self._defect(x)
        if self.smat is not None:
            step = step @ self.ginv.T @ self.smat.conj()
        g = x.reshape(self.grid + (-1,)) + (step / self.scale).reshape(self.lift + (-1,))
        return g.reshape(x.shape)

    def violation(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self._defect(x)))


def _kernel_cols(ms: np.ndarray, rank_tol: float = DEFAULT.rank) -> list[np.ndarray]:
    """Orthonormal bases of the (toleranced) kernels of stacked Hermitian matrices."""
    w, v = np.linalg.eigh((ms + np.conj(np.swapaxes(ms, -1, -2))) / 2)
    cut = rank_tol * np.maximum(1.0, np.abs(w).max(axis=-1))
    return [vi[:, np.abs(wi) <= ci] for wi, vi, ci in zip(w, v, cut)]


def _complement_projector(cols: np.ndarray, dim: int) -> np.ndarray:
    """Projector onto the orthogonal complement of the given column span."""
    if cols.size == 0:
        return np.eye(dim, dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    u = u[:, s > RANK_RCOND * s[0]]
    return np.eye(dim, dtype=complex) - u @ dagger(u)


def _support_pins(sets: Sequence[_Marginals], dim: int) -> np.ndarray | None:
    """Projectors onto the supports the constraints force on each block.

    Every block, read through a family's map, sits below each target it
    sums into, so it must vanish on the Kraus image of that target's
    kernel.  None when no block is pinned.
    """
    kernels = [_kernel_cols(s.targets) for s in sets]
    if not any(v.shape[1] for kerns in kernels for v in kerns):
        return None
    images = [
        kerns if s.kraus is None else [np.hstack([k @ v for k in s.kraus]) for v in kerns]
        for s, kerns in zip(sets, kernels)
    ]
    grid = sets[0].grid
    pins = []
    for cell in itertools.product(*(range(n) for n in grid)):
        cols = []
        for s, kerns in zip(sets, images):
            pos = 0
            for i in s.keep:
                pos = pos * grid[i] + cell[i]
            cols.append(kerns[pos])
        pins.append(_complement_projector(np.hstack(cols), dim))
    return np.stack(pins)


# --- solver ---------------------------------------------------------------

def _run_dykstra(x0: np.ndarray, pins, sets, opts: SolverOptions):
    # on a subspace or an affine set the Dykstra correction is normal to
    # the set and so lost in the next projection; only the cone needs one
    x = np.array(x0, dtype=complex)
    correction = np.zeros_like(x)
    best = math.inf
    best_x = x.copy()
    history: list[float] = []
    stall = 0
    for sweep in range(1, opts.max_iters + 1):
        if pins is not None:
            x = np.einsum("nab,nbc,ncd->nad", pins, x, pins)
        for cset in sets:
            x = cset.project(x)
        shifted = x + correction
        x = _project_psd(shifted)
        correction = shifted - x
        res = math.sqrt(sum(cset.violation(x) ** 2 for cset in sets))
        if res < best - opts.stall_delta:
            stall = 0
        else:
            stall += 1
        if res < best:
            best = res
            best_x = x.copy()
        history.append(best)
        if best <= opts.tol:
            return FEASIBLE, best_x, best, sweep, history
        if stall >= opts.stall_window and best > opts.infeasible_ratio * opts.tol:
            return INFEASIBLE, best_x, best, sweep, history
    return UNDECIDED, best_x, best, opts.max_iters, history


def _solve(
    grid: tuple[int, ...], dim: int, families, opts: SolverOptions, labels
) -> FeasibilityOutcome:
    """Search for PSD `dim`-blocks on `grid` meeting every `(keep, targets,
    kraus)` family of marginal constraints (see `_Marginals`)."""
    sets = [_Marginals(grid, *family) for family in families]
    pins = _support_pins(sets, dim)
    x0 = np.zeros((math.prod(grid), dim, dim), dtype=complex)
    status, x, res, iters, history = _run_dykstra(x0, pins, sets, opts)
    return FeasibilityOutcome(
        status=status,
        residual=res,
        iterations=iters,
        witness=tuple(x) if status == FEASIBLE else None,
        witness_labels=labels if status == FEASIBLE else None,
        infeasibility_floor=res if status == INFEASIBLE else None,
        residual_history=tuple(history),
    )


# --- channel questions -----------------------------------------------------

def _heisenberg_preimage(
    c: KrausChannel, b: Povm, opts: SolverOptions
) -> FeasibilityOutcome:
    """Search for an observable F on the output of `c` with c*(F_y) = B_y.

    A feasible witness is the list of effects F_y in the label order of
    `b` (see `witness_povm`).
    """
    eye = np.eye(c.dim_out, dtype=complex)
    gap = frob(sum(b.effects) - heisenberg_apply(c, eye))
    if gap > NECESSARY_TOL * math.sqrt(c.dim_in):
        raise NecessaryConditionError(
            f"effects do not sum to the dual image of the identity (defect {gap:.3e})"
        )
    families = [((), [eye], None), ((0,), b.effects, c.kraus)]
    return _solve((len(b),), c.dim_out, families, opts, b.labels)


def is_a_channel(
    c: KrausChannel, a: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> FeasibilityOutcome:
    """Decide whether the channel splits into branches measuring `a`.

    The branches of `c` are exactly the observables on its Stinespring
    environment read through the conjugate channel, so a feasible
    witness is such an observable.  When the channel already carries a
    branch partition consistent with `a`, the indicators of its branches
    are returned as the witness without running the solver.
    """
    if a.dim != c.dim_in:
        raise ValueError("observable must live on the channel input space")
    env = conjugate(c)
    if c.partition is not None and c.labels == a.labels:
        marks = tuple(
            np.diag([complex(k in c.partition[lbl]) for k in range(len(c.kraus))])
            for lbl in a.labels
        )
        gap = math.sqrt(sum(
            frob(heisenberg_apply(env, f) - eff) ** 2
            for f, eff in zip(marks, a.effects)
        ))
        if gap <= opts.tol:
            return FeasibilityOutcome(
                status=FEASIBLE,
                residual=gap,
                iterations=0,
                witness=marks,
                witness_labels=a.labels,
            )
    return _heisenberg_preimage(env, a, opts)


def conjugate_is_b_channel(
    c: KrausChannel, b: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> FeasibilityOutcome:
    """Decide whether the leaked side of the channel can measure `b`.

    Feasibility here is exactly the condition for some later observable
    on the channel output to reproduce `b` on the input, and a feasible
    witness is that observable's effects.
    """
    if b.dim != c.dim_in:
        raise ValueError("observable must live on the channel input space")
    return _heisenberg_preimage(c, b, opts)


def recover_b_prime(
    c: KrausChannel, b: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> Povm:
    """Find an observable on the channel output that reproduces `b`.

    Returns the witness of the conjugate-channel test and raises when
    that test does not come back feasible; the returned observable
    passes `verify_sequential(c, result, b)` at the solver tolerance.
    """
    out = conjugate_is_b_channel(c, b, opts)
    if out.status != FEASIBLE:
        raise FeasibilityError(
            f"no compensating observable: conjugate-channel test was {out.status} "
            f"(residual {out.residual:.3e})"
        )
    return witness_povm(out)


def find_joint_observable(
    *observables: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> FeasibilityOutcome:
    """Search for one observable whose marginals are all the given ones.

    Two observables is the standard compatibility question; three are
    accepted at small dimension for triple-wise tests.  A feasible
    witness is the list of joint effects in lexicographic product-label
    order (see `witness_povm`).
    """
    if len(observables) < 2:
        raise ValueError("need at least two observables")
    if len(observables) > 3:
        raise ValueError("at most three observables are supported")
    dim = observables[0].dim
    if any(o.dim != dim for o in observables):
        raise ValueError("observables must share one dimension")
    if len(observables) == 3 and dim > 4:
        raise ValueError("three-observable searches are limited to dimension four")
    first_sum = sum(e for e in observables[0].effects)
    for o in observables[1:]:
        gap = frob(sum(e for e in o.effects) - first_sum)
        if gap > NECESSARY_TOL * math.sqrt(dim):
            raise NecessaryConditionError(
                f"observable effect sums disagree (defect {gap:.3e})"
            )
    grid = tuple(len(o) for o in observables)
    labels = tuple(
        sum(combo, ()) for combo in itertools.product(*(o.labels for o in observables))
    )
    families = [((i,), o.effects, None) for i, o in enumerate(observables)]
    return _solve(grid, dim, families, opts, labels)


def witness_povm(outcome: FeasibilityOutcome) -> Povm:
    """Package a feasible joint-search witness as an observable."""
    if outcome.witness is None or outcome.witness_labels is None:
        raise ValueError("outcome carries no labeled witness")
    dim = outcome.witness[0].shape[0]
    return Povm(dim, tuple(zip(outcome.witness_labels, outcome.witness)))


# --- exact qubit criterion --------------------------------------------------

def _check_strength(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1]")


def busch_value(s: float, t: float, theta: float) -> float:
    """Value whose comparison with one decides qubit pair compatibility."""
    _check_strength("s", s)
    _check_strength("t", t)
    if not 0.0 <= theta <= math.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    c = math.cos(theta)
    return s * s + t * t - c * c * s * s * t * t


def busch_criterion(s: float, t: float, theta: float) -> bool:
    """Exact compatibility test for two unbiased qubit binaries.

    The observables are strength-`s` and strength-`t` binaries whose
    Bloch axes meet at angle `theta`.
    """
    return busch_value(s, t, theta) <= 1.0


def orthogonal_joint_observable(s: float, t: float) -> Povm:
    """Closed-form joint observable for transverse unbiased qubit binaries.

    Marginals are the strength-`s` binary along z and the strength-`t`
    binary along x; it exists exactly when s**2 + t**2 <= 1.
    """
    _check_strength("s", s)
    _check_strength("t", t)
    if s * s + t * t > 1.0 + 1e-12:
        raise ValueError("no transverse joint observable: s^2 + t^2 exceeds one")
    eye = np.eye(2, dtype=complex)
    outcomes = []
    for i in (1, -1):
        for j in (1, -1):
            outcomes.append(((i, j), (eye + i * s * SIGMA_Z + j * t * SIGMA_X) / 4))
    return Povm(2, tuple(outcomes))
