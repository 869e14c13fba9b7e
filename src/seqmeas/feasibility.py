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

Every question is one `_solve`, with no shortcut around it, and its one
necessary condition is checked there (see `_solve`).

The solver runs alternating projections: one sweep T(x) projects
through every affine set in turn and then onto the cone, and its
iterates converge to a point of the intersection whenever one exists.
A feasibility question needs any such point, not the nearest one, so no
Dykstra correction is kept.  The channel questions start from zero; the
joint search starts from the Jordan product of its observables, which
already meets every marginal and is the joint itself for commuting
ones, so a compatible pair near that product ends in few sweeps (see
`find_joint_observable`).  Plain sweeps creep towards a boundary point
of the cone, by a fixed factor per sweep or sublinearly on degenerate
faces, so each sweep's input is extrapolated by type-II Anderson
acceleration (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; Zhang,
O'Donoghue & Boyd, SIAM J. Optim. 30, 2020).  From the last few inputs
x_k and steps g_k = T(x_k) - x_k, with their differences dX and dG, the
next input is T(x_k) - (dX + dG) gamma, where gamma solves dG gamma = g_k
in least squares over real coefficients (so blocks stay Hermitian).  The
memory is cleared whenever the residual rises, and the first
extrapolation comes after the second sweep.

Rank-deficient targets pin every solution to a face of the cone, where
plain alternating projections slow to a crawl.  A block read through a
family's map sits below each target it sums into, so it must vanish on
the Kraus image of that target's kernel.  The cone step therefore
projects onto the face {x >= 0, x = P x P} these supports cut out, as
the PSD projection of P x P.  The supports are necessary conditions
computed from the inputs alone, so they never change the set being
searched; they only keep the iteration away from the tangent directions.
Most solves end in their first sweep, which needs no face, so the face
is built only when the first sweep falls short of `tol`, and that
sweep's cone step is then redone on it.

An infeasible verdict rests on a Farkas certificate: multipliers y, one
matrix per constraint, whose dual operator L*y is positive on the face
while <y, b> < 0, so that no face point x can meet L x = b.  Every affine
projection hands out its multiplier, and with y minus their sum, L*y is
the step from the sweep's affine point back to the input it started
from, whatever that input was; the part of a target its map cannot
reach adds to y with L*y = 0.
A shift by the identity on the first identity-map family makes L*y
positive on the face, and -<y, b> / |y| is then a true lower bound on
the residual over the face.  It proves infeasibility only above
roundoff and above the reach of the supports: their rank tolerance
counts tiny target eigenvalues as kernel, so a true solution may lie
just off the face, and the face point nearest it keeps a residual
bounded from the eigenvalues cut.
Certificates are tried at sweeps 1, 2, 4, 8, ..., and a run stops
infeasible once the bound comes within `infeasible_ratio` of the best
residual.  A run that stalls without a certificate is undecided.  Only
`tol` and `max_iters` are options; the stall and certificate settings
are constants of `SolverOptions`, and other tolerances come from `linalg`.

The cone projection runs last in every sweep, so each logged iterate is
exactly positive and the residual is purely the affine defect.  A solve
decided in its first sweep never builds the face: its witness is
positive and within `tol`, but may lie off the face.  Every later
iterate, and the best point of every outcome that is not feasible,
lies on it.  An extrapolated input may leave the cone, but only cone
outputs are ever logged or returned.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channels import KrausChannel, _dual, conjugate
from .linalg import (
    BOUNDARY_SLACK, CERTIFICATE_SLACK, CHECK_TOL, NECESSARY_TOL, RANK_RCOND, RANK_TOL,
    dagger,
)
from .povm import SIGMA_X, SIGMA_Z, Label, Povm, bloch_vector

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
    "qubit_pair_value",
    "orthogonal_joint_observable",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDECIDED = "undecided"


class NecessaryConditionError(ValueError):
    """A cheap necessary condition rules the problem out before solving."""


class FeasibilityError(RuntimeError):
    """An operation needed a feasibility result it could not establish."""


@dataclass(frozen=True)
class SolverOptions:
    """Options of the alternating-projection solver: `tol` and `max_iters`.

    A run stops feasible as soon as the residual reaches `tol`.  It
    stops infeasible when a Farkas certificate proves a lower bound on
    the residual of at least the best residual over `infeasible_ratio`.
    It stops undecided when the best residual has not improved by more
    than `stall_delta` for `stall_window` consecutive sweeps, or when it
    runs out of `max_iters`.  The last three are fixed class constants,
    readable on every instance.  Construction refuses a `tol` that is
    negative, infinite or NaN and a `max_iters` below 1, with which a run
    would report a residual it never reached.
    """

    tol: float = CHECK_TOL
    max_iters: int = 50_000
    stall_window: ClassVar[int] = 500
    stall_delta: ClassVar[float] = 1e-12
    infeasible_ratio: ClassVar[float] = 10.0

    def __post_init__(self):
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class FeasibilityOutcome:
    """Result of one solver run.

    `reason` says why the run stopped: "tol" (the residual reached the
    tolerance), "certificate" (a Farkas certificate verified), "stall"
    or "budget" (neither, after the stall window or `max_iters`).
    `witness` is populated only for feasible outcomes, in which case the
    blocks are exactly positive and meet every affine constraint within
    `residual`, the best residual seen.  Infeasible outcomes carry the
    `certificate`, one multiplier array per constraint family shaped like
    its targets, and `infeasibility_floor`, the lower bound it proves on
    the residual of any point of the face.  `residual_history` records
    the best residual seen up to each sweep and is non-increasing.
    """

    status: str
    residual: float
    iterations: int
    reason: str
    witness: tuple[np.ndarray, ...] | None = None
    witness_labels: tuple[Label, ...] | None = None
    infeasibility_floor: float | None = None
    certificate: tuple[np.ndarray, ...] | None = None
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
    through X -> sum_k K^dag X K over the (n, d_out, d_in) array `kraus`
    (the identity when `kraus` is None), equal `targets`, one per cell of
    the kept axes in row-major order.

    The map and its adjoint Y -> sum_k K Y K^dag are stacked Kraus products
    (`channels._dual`).  Their composite, the Gram operator X -> sum_kl
    G X G^dag over G = K_k^dag K_l on row-major vec, is inverted as
    V diag(1/w) V^dag on `span`, its eigenvectors V above `RANK_RCOND` relative.
    """

    def __init__(
        self,
        grid: tuple[int, ...],
        keep: tuple[int, ...],
        targets: np.ndarray,
        kraus: np.ndarray | None = None,
    ):
        self.grid = grid
        self.keep = keep
        self.kraus = kraus
        self.sum_axes = tuple(i for i in range(len(grid)) if i not in keep)
        self.scale = math.prod(grid[i] for i in self.sum_axes)
        self.lift = tuple(n if i in keep else 1 for i, n in enumerate(grid))
        self.targets = np.asarray(targets, dtype=complex)
        self.flat_targets = self.targets.reshape(len(self.targets), -1)
        # squared operator norm of the map a block is read through
        self.gain = 1.0
        self.lifted = self.lift + self.targets.shape[1:]
        if kraus is not None:
            d_out, d_in = kraus.shape[1:]
            self.lifted = self.lift + (d_out, d_out)
            self.kraus_dag = np.ascontiguousarray(dagger(kraus))
            g = (self.kraus_dag[:, None] @ kraus).reshape(-1, d_in * d_in)
            gram = (g.T @ g.conj()).reshape(d_in, d_in, d_in, d_in)
            gram = gram.transpose(0, 2, 1, 3).reshape(d_in * d_in, d_in * d_in)
            w, v = np.linalg.eigh(gram)
            self.gain = float(w[-1])
            big = w > RANK_RCOND * w[-1]
            self.span = v[:, big]
            self.coords = self.span.conj() / w[big]

    @functools.cached_property
    def off_range(self) -> np.ndarray | float:
        """The part of the targets outside the range of the map, which no
        blocks reach (zero without a map); only certificates need it."""
        if self.kraus is None:
            return 0.0
        return self.flat_targets - (self.flat_targets @ self.span.conj()) @ self.span.T

    def _defect(self, x: np.ndarray) -> np.ndarray:
        g = x.reshape(self.grid + x.shape[1:]).sum(axis=self.sum_axes)
        g = g.reshape((len(self.targets),) + x.shape[1:])
        if self.kraus is not None:
            g = _dual(self.kraus, g)
        return self.flat_targets - g.reshape(len(self.targets), -1)

    def project(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The projection of x, and the multiplier z (one flattened matrix
        per target) with project(x) = x + adjoint(z)."""
        z = self._defect(x) / self.scale
        if self.kraus is not None:
            z = (z @ self.coords) @ self.span.T
        g = x.reshape(self.grid + x.shape[1:]) + self.adjoint(z)
        return g.reshape(x.shape), z

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """L*z: each target's multiplier read back through Y -> sum_k K Y K^dag,
        on the grid with the summed axes of length one, so that it
        broadcasts onto every block that sums into the target."""
        if self.kraus is not None:
            z = _dual(self.kraus_dag, z.reshape(self.targets.shape))
        return z.reshape(self.lifted)

    def violation(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self._defect(x)))


def _support_pins(sets: Sequence[_Marginals], dim: int) -> tuple[np.ndarray | None, float]:
    """Projectors onto the supports the constraints force on each block.

    Every block, read through a family's map, sits below each target it
    sums into, so it must vanish on the Kraus image of that target's
    kernel.  Each family's kernels come from one `eigh` of its targets:
    the eigenvectors whose eigenvalues fall within `RANK_TOL` relative of
    zero, with every other column zeroed and the columns no target uses
    dropped.  A map reads them as stacked Kraus images K_k v.  Lifted onto
    the grid (`_Marginals.lift`) and joined, they give each cell the
    columns C of all targets it sums into, and one batched SVD gives
    every pin P = 1 - U U^dag over the left singular vectors U above
    `RANK_RCOND` relative.  The projectors are None when no target has a
    kernel.

    Also returns the reach: how far, in residual, a true solution x may
    lie from the face.  The rank tolerance counts eigenvalues up to
    `cut` as kernel, so a solution may weigh a cell's kernel images
    C with tr(C C^dag x) <= cut, hence tr(Q x Q) <= q = cut /
    s_min(C)^2 for the projector Q = 1 - P.  The part x - P x P off the
    face then has squared norm at most 2 tr(x) q + q^2, where tr(x) is
    at most the trace of any identity-map target x sums into, and L
    scales it by at most |L|.

    `_solve` calls this at most once, after a first sweep whose residual
    falls short of `tol`; a solve decided in its first sweep never does.
    """
    spectra = []
    for s in sets:
        w, v = np.linalg.eigh((s.targets + dagger(s.targets)) / 2)
        mag = np.abs(w)
        kernel = mag <= RANK_TOL * np.maximum(1.0, mag.max(axis=-1, keepdims=True))
        spectra.append((mag, v, kernel))
    if not any(kernel.any() for _, _, kernel in spectra):
        return None, 0.0
    grid = sets[0].grid
    cols, cut, trace = [], np.zeros(grid), np.full(grid, math.inf)
    for s, (mag, v, kernel) in zip(sets, spectra):
        used = kernel.any(axis=0)
        c = v[..., used] * kernel[:, None, used]
        if s.kraus is None:
            tr = np.trace(s.targets, axis1=1, axis2=2).real
            np.minimum(trace, tr.reshape(s.lift), out=trace)
        else:
            c = (s.kraus @ c[:, None]).swapaxes(1, 2).reshape(len(c), dim, -1)
        cols.append(np.broadcast_to(c.reshape(s.lift + c.shape[1:]), grid + c.shape[1:]))
        cut += (mag * kernel).sum(axis=-1).reshape(s.lift)
    joined = np.concatenate(cols, axis=-1)
    u, sv, _ = np.linalg.svd(joined.reshape((-1,) + joined.shape[-2:]), full_matrices=False)
    kept = sv > RANK_RCOND * sv[:, :1]
    u = u * kept[:, None, :]
    q = cut.ravel() / np.where(kept, sv, math.inf).min(axis=-1) ** 2
    drift = np.sum(q * (2.0 * trace.ravel() + q))
    gain = sum(s.scale * s.gain for s in sets)
    return np.eye(dim) - u @ dagger(u), math.sqrt(gain * drift)


# --- solver ---------------------------------------------------------------

# how many past steps each Anderson extrapolation combines
ANDERSON_MEMORY = 5


def _pin(pins: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """P x P for every block; one einsum beats two stacked matmuls on small blocks."""
    return np.einsum("nab,nbc,ncd->nad", pins, blocks, pins)


def _certify(sets, zs, pins, reach: float):
    """A Farkas certificate from one sweep's multipliers, or None.

    Returns the multipliers y, one flattened matrix per target of each
    set, and the lower bound -<y, b> / |y| they prove on the residual of
    every point of the face.  The bound must exceed both the roundoff
    allowance and `reach`, the residual of the face point nearest a true
    solution (see `_support_pins`): only then does no solution exist.
    """
    ys = [-z - cset.off_range for cset, z in zip(sets, zs)]
    dual = sum(cset.adjoint(y) for cset, y in zip(sets, ys))
    dual = dual.reshape((-1,) + dual.shape[-2:])
    if pins is not None:
        dual = _pin(pins, dual)
    low = float(np.linalg.eigvalsh(dual)[:, 0].min())
    if low < 0.0:
        # the first identity-map family reaches every block once, so
        # raising its multipliers by |low| I raises L*y by |low| I
        first = next(i for i, cset in enumerate(sets) if cset.kraus is None)
        side = sets[first].targets.shape[-1]
        ys[first][:, :: side + 1] -= low
    gap = -sum(np.vdot(y, cset.flat_targets).real for cset, y in zip(sets, ys))
    norm = math.sqrt(sum(np.vdot(y, y).real for y in ys))
    scale = math.sqrt(sum(np.vdot(c.flat_targets, c.flat_targets).real for c in sets))
    if not gap > norm * max(CERTIFICATE_SLACK * scale, reach):
        return None
    return ys, float(gap / norm)


def _solve(
    grid: tuple[int, ...], dim: int, families, opts: SolverOptions, labels, start=None
) -> FeasibilityOutcome:
    """Search for PSD `dim`-blocks on `grid` meeting every `(keep, targets,
    kraus)` family of marginal constraints (see `_Marginals`), from the
    first sweep's input `start` (zero blocks by default).

    Raises `NecessaryConditionError` unless every family's targets sum to
    its map's image of the total the first identity-map family fixes (to
    the total itself for a family without a map): all blocks together
    sum to that total, whatever axes a family keeps.
    """
    sets = [_Marginals(grid, *family) for family in families]
    total = next(s for s in sets if s.kraus is None).targets.sum(axis=0)
    for cset in sets:
        image = total if cset.kraus is None else _dual(cset.kraus, total)
        gap = float(np.linalg.norm(cset.targets.sum(axis=0) - image))
        if not gap <= NECESSARY_TOL * math.sqrt(cset.targets.shape[-1]):
            raise NecessaryConditionError(
                f"target sums disagree with the image of the total (defect {gap:.3e})"
            )
    pins, reach = None, 0.0
    x_in = np.zeros((math.prod(grid), dim, dim), dtype=complex) if start is None else start
    best = math.inf
    best_x = x_in
    history: list[float] = []

    def outcome(status: str, reason: str, sweeps: int, cert=None) -> FeasibilityOutcome:
        feasible = status == FEASIBLE
        return FeasibilityOutcome(
            status=status,
            residual=best,
            iterations=sweeps,
            reason=reason,
            witness=tuple(best_x) if feasible else None,
            witness_labels=labels if feasible else None,
            infeasibility_floor=None if cert is None else cert[1],
            certificate=None if cert is None else tuple(
                y.reshape(cset.targets.shape) for cset, y in zip(sets, cert[0])
            ),
            residual_history=tuple(history),
        )

    def cone(affine: np.ndarray) -> tuple[np.ndarray, float]:
        x = _project_psd(affine if pins is None else _pin(pins, affine))
        return x, math.sqrt(sum(cset.violation(x) ** 2 for cset in sets))

    stall = 0
    last = math.inf
    # Anderson memory, as real vectors: the differences of successive
    # outputs T(x_k), which are dX + dG, and of successive steps g_k
    prev = None
    d_outs: deque[np.ndarray] = deque(maxlen=ANDERSON_MEMORY)
    d_steps: deque[np.ndarray] = deque(maxlen=ANDERSON_MEMORY)
    for sweep in range(1, opts.max_iters + 1):
        affine, zs = x_in, []
        for cset in sets:
            affine, z = cset.project(affine)
            zs.append(z)
        x, res = cone(affine)
        if sweep == 1 and not res <= opts.tol:
            # a first sweep that falls short builds the face and redoes
            # its cone step on it; the multipliers zs stay as they are
            pins, reach = _support_pins(sets, dim)
            if pins is not None:
                x, res = cone(affine)
        if res < best - opts.stall_delta:
            stall = 0
        else:
            stall += 1
        if res < best:
            best = res
            best_x = x
        history.append(best)
        if best <= opts.tol:
            return outcome(FEASIBLE, "tol", sweep)
        if sweep & (sweep - 1) == 0:
            cert = _certify(sets, zs, pins, reach)
            if cert is not None and cert[1] * opts.infeasible_ratio >= best:
                return outcome(INFEASIBLE, "certificate", sweep, cert)
        if stall >= opts.stall_window:
            return outcome(UNDECIDED, "stall", sweep)
        out = x.view(float).ravel()
        step = out - x_in.view(float).ravel()
        if res > last:
            # the extrapolation overshot: restart from plain sweeps
            d_outs.clear()
            d_steps.clear()
        elif prev is not None:
            d_outs.append(out - prev[0])
            d_steps.append(step - prev[1])
        prev, last, x_in = (out, step), res, x
        if d_steps:
            gamma = np.linalg.lstsq(np.stack(d_steps, axis=1), step, rcond=None)[0]
            x_in = x - (np.stack(d_outs, axis=1) @ gamma).view(complex).reshape(x.shape)
    return outcome(UNDECIDED, "budget", opts.max_iters)


# --- channel questions -----------------------------------------------------

def is_a_channel(
    c: KrausChannel, a: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> FeasibilityOutcome:
    """Decide whether the channel splits into branches measuring `a`.

    The branches of `c` are exactly the observables on its Stinespring
    environment read through the conjugate channel, so this is the
    conjugate-channel test of the conjugate of `c`, and a feasible
    witness is such an observable.  A branch partition the channel
    carries plays no part: the solver decides every channel.
    """
    return conjugate_is_b_channel(conjugate(c), a, opts)


def conjugate_is_b_channel(
    c: KrausChannel, b: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> FeasibilityOutcome:
    """Decide whether the leaked side of the channel can measure `b`.

    Feasibility here is exactly the condition for some later observable
    on the channel output to reproduce `b` on the input: an observable F
    on the output with c*(F_y) = B_y.  A feasible witness is the list of
    effects F_y in the label order of `b` (see `witness_povm`).
    """
    if b.dim != c.dim_in:
        raise ValueError("observable must live on the channel input space")
    eye = np.eye(c.dim_out, dtype=complex)
    families = [((), eye[None], None), ((0,), b.effects, c.kraus)]
    return _solve((len(b),), c.dim_out, families, opts, b.labels)


def recover_b_prime(
    c: KrausChannel, b: Povm, opts: SolverOptions = DEFAULT_OPTIONS
) -> Povm:
    """Find an observable on the channel output that reproduces `b`.

    Returns the witness of the conjugate-channel test and raises when
    that test does not come back feasible; the returned observable
    passes `verify_sequential(c, result, b)` at the solver tolerance.
    A caller already holding a feasible outcome of
    `conjugate_is_b_channel(c, b)` gets the same observable from
    `witness_povm(outcome)`, without solving a second time.
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

    The search starts from the chained Jordan product A o (B o C), with
    X o Y = (X Y + Y X) / 2: being bilinear with I o X = X, it meets
    every marginal exactly, it is the joint itself when the observables
    commute or when two unbiased qubit binaries are compatible (it is
    positive exactly when their `qubit_pair_value` is at most one), and it
    costs no eigendecomposition.
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
    grid = tuple(len(o) for o in observables)
    labels = tuple(
        sum(combo, ()) for combo in itertools.product(*(o.labels for o in observables))
    )
    families = [((i,), o.effects, None) for i, o in enumerate(observables)]
    start = observables[-1].effects
    for o in reversed(observables[:-1]):
        prod = o.effects[:, None] @ start
        start = ((prod + dagger(prod)) / 2).reshape(-1, dim, dim)
    return _solve(grid, dim, families, opts, labels, start)


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


def _binary_terms(p: Povm) -> tuple[float, np.ndarray, float]:
    """x, a and F_x of the first effect ((1 + x) I + a.sigma) / 2 of a
    two-outcome qubit observable."""
    if p.dim != 2 or len(p) != 2:
        raise ValueError("expected a two-outcome qubit observable")
    x = float(np.trace(p.effects[0]).real) - 1.0
    a = bloch_vector(p.effects[0])
    aa = float(a @ a)
    # roundoff may push a valid effect's (1 +- x)^2 - |a|^2 just below zero
    f = (math.sqrt(max(0.0, (1 + x) ** 2 - aa)) + math.sqrt(max(0.0, (1 - x) ** 2 - aa))) / 2
    return x, a, f


def qubit_pair_value(e: Povm, f: Povm) -> float:
    """Value whose comparison with one decides whether two valid two-outcome
    qubit observables are jointly measurable (Yu, Liu, Li & Oh, PRA 81,
    062116, 2010).

    With first effects ((1 + x) I + a.sigma) / 2 and ((1 + y) I + b.sigma) / 2
    and F_x = (sqrt((1 + x)^2 - |a|^2) + sqrt((1 - x)^2 - |a|^2)) / 2 (F_y
    likewise), it is 1 + (1 - F_x^2 - F_y^2)(1 - x^2/F_x^2 - y^2/F_y^2)
    - (a.b - x y)^2; the other effects give the same value.  For unbiased
    binaries of strengths s and t at angle theta it is s^2 + t^2 - s^2 t^2
    cos^2 theta.  A sharp unbiased effect has x = F_x = 0, where x^2/F_x^2
    takes its limit 0; commuting sharp pairs then sit exactly at one, so a
    verdict allows `BOUNDARY_SLACK`.  Raises ValueError unless both have two
    outcomes on a qubit; positivity is the caller's to check (`validate`).
    """
    x, a, fx = _binary_terms(e)
    y, b, fy = _binary_terms(f)
    bias = (x * x / (fx * fx) if fx else 0.0) + (y * y / (fy * fy) if fy else 0.0)
    return 1.0 + (1.0 - fx * fx - fy * fy) * (1.0 - bias) - (float(a @ b) - x * y) ** 2


def orthogonal_joint_observable(s: float, t: float) -> Povm:
    """Closed-form joint observable for transverse unbiased qubit binaries.

    Marginals are the strength-`s` binary along z and the strength-`t`
    binary along x; it exists exactly when s**2 + t**2 <= 1.
    """
    _check_strength("s", s)
    _check_strength("t", t)
    if s * s + t * t > 1.0 + BOUNDARY_SLACK:
        raise ValueError("no transverse joint observable: s^2 + t^2 exceeds one")
    eye = np.eye(2, dtype=complex)
    outcomes = []
    for i in (1, -1):
        for j in (1, -1):
            outcomes.append(((i, j), (eye + i * s * SIGMA_Z + j * t * SIGMA_X) / 4))
    return Povm(2, tuple(outcomes))
