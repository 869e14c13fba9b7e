"""Convex feasibility engine for measurement compatibility questions.

Every decision here is a search for an observable, a family of positive
semidefinite blocks, under linear constraints of one of two kinds:

* fixed marginals: the joint observable of two or three given ones
  (`find_joint_observable`);
* a Heisenberg preimage: an observable F on a channel's output whose
  dual images c*(F_y) are fixed effects B_y.  Asked of the channel it
  decides whether some later observable reproduces B
  (`conjugate_is_b_channel`, `recover_b_prime`); asked of the
  conjugate channel it decides whether the channel splits into
  branches measuring B (`is_a_channel`), because those branches are
  exactly the observables on the Stinespring environment.

The solver is Dykstra's alternating projection method, which converges
to a point of the intersection whenever one exists.  It carries no
separating certificate, so infeasibility is heuristic: when the
residual stalls far above tolerance the run is declared infeasible and
the stalled residual is reported as a floor.  An honest "undecided" is
a possible answer.

Rank-deficient constraint data pins every solution to a face of the
cone, where plain alternating projections slow to a crawl.  Each solve
therefore also projects onto the support subspaces that the constraints
force on the blocks.  These are necessary conditions computed from the
inputs alone, so they never change the set being searched; they only
keep the iteration away from the tangent directions.

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
from .linalg import as_complex, dagger, frob
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
# singular values below this fraction of the largest count as zero when
# a span or a pseudo-inverse is formed
RANK_RCOND = 1e-10


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


class _SumToTotal:
    """Affine set: the blocks sum to a fixed matrix."""

    def __init__(self, total: np.ndarray, count: int):
        self.total = total
        self.count = count

    def project(self, x: np.ndarray) -> np.ndarray:
        return x + (self.total - x.sum(axis=0)) / self.count

    def violation(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x.sum(axis=0) - self.total))


class _MarginalFamily:
    """Affine set: one coordinate's marginal of a product-labeled grid is fixed."""

    def __init__(self, grid: tuple[int, ...], axis: int, targets: np.ndarray):
        self.grid = grid
        self.axis = axis
        self.targets = targets
        self.sum_axes = tuple(i for i in range(len(grid)) if i != axis)
        self.scale = math.prod(grid[i] for i in self.sum_axes)
        lift = [1] * len(grid)
        lift[axis] = grid[axis]
        self.lift_shape = tuple(lift) + targets.shape[1:]

    def _marginal(self, x: np.ndarray) -> np.ndarray:
        g = x.reshape(self.grid + x.shape[1:])
        return g.sum(axis=self.sum_axes)

    def project(self, x: np.ndarray) -> np.ndarray:
        defect = (self.targets - self._marginal(x)) / self.scale
        g = x.reshape(self.grid + x.shape[1:]) + defect.reshape(self.lift_shape)
        return g.reshape(x.shape)

    def violation(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self._marginal(x) - self.targets))


class _SupportPin:
    """Subspace set: each block is compressed onto a fixed support.

    Used for necessary support conditions, so it does not count toward
    the feasibility residual.
    """

    scored = False

    def __init__(self, projectors: np.ndarray):
        self.projectors = projectors

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("nab,nbc,ncd->nad", self.projectors, x, self.projectors)

    def violation(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x - self.project(x)))


def _kernel_cols(m: np.ndarray, rank_tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the (toleranced) kernel of a Hermitian matrix."""
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    return v[:, np.abs(w) <= rank_tol * max(1.0, float(np.abs(w).max(initial=0.0)))]


def _complement_projector(cols: np.ndarray, dim: int) -> np.ndarray:
    """Projector onto the orthogonal complement of the given column span."""
    if cols.size == 0:
        return np.eye(dim, dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    u = u[:, s > RANK_RCOND * s[0]]
    return np.eye(dim, dtype=complex) - u @ dagger(u)


class _HeisenbergImages:
    """Affine set: each block maps to a fixed matrix under the channel's dual."""

    def __init__(self, kraus: Sequence[np.ndarray], rhs: Sequence[np.ndarray]):
        k = np.stack(kraus)
        d_out, d_in = k.shape[1:]
        # row-major vec(K^dag F K) = kron(K^dag, K^T) vec(F), summed over K
        smat = np.einsum("kai,kbj->ijab", k.conj(), k, optimize=True)
        self.smat = smat.reshape(d_in * d_in, d_out * d_out)
        # smat smat^dag is X -> sum_kl G X G^dag over G = K_k^dag K_l
        g = (np.conj(np.swapaxes(k, 1, 2))[:, None] @ k).reshape(-1, d_in, d_in)
        gram = np.einsum("gac,gbd->abcd", g, g.conj()).reshape(d_in * d_in, d_in * d_in)
        self.ginv = np.linalg.pinv(gram, rcond=RANK_RCOND, hermitian=True)
        self.rhs = np.stack([as_complex(m).reshape(-1) for m in rhs])

    def _images(self, flat: np.ndarray) -> np.ndarray:
        return flat @ self.smat.T

    def project(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        defect = self._images(flat) - self.rhs
        return (flat - defect @ self.ginv.T @ self.smat.conj()).reshape(x.shape)

    def violation(self, x: np.ndarray) -> float:
        flat = x.reshape(x.shape[0], -1)
        return float(np.linalg.norm(self._images(flat) - self.rhs))


# --- solver ---------------------------------------------------------------

def _run_dykstra(x0: np.ndarray, affine_sets, opts: SolverOptions):
    x = np.array(x0, dtype=complex)
    corrections = [np.zeros_like(x) for _ in range(len(affine_sets) + 1)]
    scored = [s for s in affine_sets if getattr(s, "scored", True)]
    best = math.inf
    best_x = x.copy()
    history: list[float] = []
    stall = 0
    for sweep in range(1, opts.max_iters + 1):
        for i, cset in enumerate(affine_sets):
            shifted = x + corrections[i]
            x = cset.project(shifted)
            corrections[i] = shifted - x
        shifted = x + corrections[-1]
        x = _project_psd(shifted)
        corrections[-1] = shifted - x
        res = math.sqrt(sum(cset.violation(x) ** 2 for cset in scored))
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


def _outcome(status, x, res, iters, history, labels=None) -> FeasibilityOutcome:
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
    x0 = np.zeros((len(b), c.dim_out, c.dim_out), dtype=complex)
    sets: list = [
        _SumToTotal(eye, len(b)),
        _HeisenbergImages(c.kraus, b.effects),
    ]
    # each positive branch image sits below its target, so the solution
    # must kill every Kraus image of the target's kernel
    pins = []
    pinned = False
    for eff in b.effects:
        kern = _kernel_cols(eff)
        if kern.shape[1]:
            pinned = True
            span = np.hstack([k @ kern for k in c.kraus])
            pins.append(_complement_projector(span, c.dim_out))
        else:
            pins.append(eye)
    if pinned:
        sets.insert(0, _SupportPin(np.stack(pins)))
    status, x, res, iters, history = _run_dykstra(x0, sets, opts)
    return _outcome(status, x, res, iters, history, b.labels)


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
    x0 = np.zeros((math.prod(grid), dim, dim), dtype=complex)
    sets: list = [
        _MarginalFamily(grid, i, np.stack(o.effects))
        for i, o in enumerate(observables)
    ]
    # every joint effect sits below each of its marginal targets, so it
    # must vanish on the kernel of every effect it marginalises into
    kerns = [[_kernel_cols(e) for e in o.effects] for o in observables]
    if any(kb.shape[1] for row in kerns for kb in row):
        pins = []
        for combo in itertools.product(*(range(n) for n in grid)):
            cols = np.hstack([kerns[i][j] for i, j in enumerate(combo)])
            pins.append(_complement_projector(cols, dim))
        sets.insert(0, _SupportPin(np.stack(pins)))
    status, x, res, iters, history = _run_dykstra(x0, sets, opts)
    return _outcome(status, x, res, iters, history, labels)


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
