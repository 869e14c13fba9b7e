"""Command-line surface: JSON artifacts in, verdicts and reports out.

Each command returns its checks and the digests of its inputs; `main`
builds the one `harness.Report` from them, writes it to `--json-out` when
given, and exits with `Report.exit_code()`: 0 every gating check passes,
1 one fails (the claim is refuted), 3 one is undecided (the solver ran
out of budget, or stalled without an infeasibility certificate).
Malformed input, and an output path that cannot be written, exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channels import is_trace_preserving, nondisturbing
from .dilation import is_minimal, naimark_canonical, naimark_minimal, verify_dilation
from .feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    DEFAULT_OPTIONS,
    FeasibilityError,
    NecessaryConditionError,
    SolverOptions,
    conjugate_is_b_channel,
    find_joint_observable,
    qubit_pair_value,
    witness_povm,
)
from .harness import A_STRENGTH, B_STRENGTH, CHECK_NAMES, Report, CheckResult, run_checks
from .linalg import (
    BOUNDARY_SLACK, CHECK_TOL, QUBIT_TOL, RECOVERY_FLOOR, WITNESS_TOL, dagger, frob, is_psd,
)
from .povm import (
    AXIS_X,
    AXIS_Z,
    Povm,
    four_outcome_refinement,
    qubit_binary,
    refinement_joint,
    validate,
)
from .sequential import _instrument, _modified, verify_sequential
from .serialize import (
    SchemaError,
    channel_from_json,
    channel_to_json,
    dilation_from_json,
    dilation_to_json,
    document_kind,
    outcome_to_json,
    povm_from_json,
    povm_to_json,
)

FAIL, INPUT_ERROR = 1, 2


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"{path} is not valid JSON: {exc}") from exc


def _digests(args, *paths: str) -> dict:
    """sha256 of each input file, taken only when a report will be written."""
    if not args.json_out:
        return {}
    return {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}


@contextlib.contextmanager
def _writing(path):
    """Refuse an output path that cannot be written as malformed input."""
    try:
        yield
    except OSError as exc:
        raise SchemaError("", f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path, doc) -> None:
    # one-shot dumps runs the C encoder (json.dump and indent do not), and a
    # document that cannot be encoded leaves no truncated file behind
    text = json.dumps(doc) + "\n"
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _out_dir(path: str) -> Path:
    with _writing(path):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def _tolerance(args, default: float) -> float:
    # argparse has already typed the flag; only its range is left
    tol = default if args.tol is None else args.tol
    if not 0 <= tol < math.inf:
        raise SchemaError("--tol", f"expected a finite number >= 0, got {tol!r}")
    return tol


def _solver_options(args) -> SolverOptions:
    tol = _tolerance(args, DEFAULT_OPTIONS.tol)
    max_iters = DEFAULT_OPTIONS.max_iters if args.max_iters is None else args.max_iters
    if max_iters < 1:
        raise SchemaError("--max-iters", f"expected an integer >= 1, got {max_iters!r}")
    return SolverOptions(tol=tol, max_iters=max_iters)


# a predicate's truth or a solver outcome's status as a check status
_VERDICTS = {True: "pass", False: "fail",
             FEASIBLE: "pass", INFEASIBLE: "fail", UNDECIDED: "undecided"}


def _echo_flags(args) -> tuple[str, ...]:
    skip = {"func", "json_out", "command"}
    parts = []
    for key, value in sorted(vars(args).items()):
        # by identity: a set flag such as --tol 0 equals False
        if key in skip or value is None or value is False:
            continue
        parts.append(f"{key}={value}")
    return tuple(parts)


def _check(name: str, verdict, seconds: float, details: dict) -> CheckResult:
    """A gating check whose status is `verdict`, a bool or an outcome status."""
    return CheckResult(name, _VERDICTS[verdict], True, seconds, details)


# ---------------------------------------------------------------- validate


def _validate_povm(p: Povm, tol: float) -> tuple[bool, str, dict]:
    norm_gap = frob(p.effects.sum(axis=0) - np.eye(p.dim))
    psd_ok = is_psd(p.effects, tol)
    details = {
        "kind": "povm",
        "dim": p.dim,
        "outcomes": len(p),
        "normalization_gap": float(norm_gap),
        "effects_positive": psd_ok,
    }
    if not psd_ok:
        return False, "an effect has a negative eigenvalue", details
    if norm_gap > tol * math.sqrt(p.dim):
        message = f"normalization fails: effects sum to I + defect of norm {norm_gap:.3e}"
        return False, message, details
    return True, "valid observable", details


def cmd_validate(args):
    tol = _tolerance(args, CHECK_TOL)
    doc = _read_json(args.path)
    kind = document_kind(doc)
    if kind == "povm":
        ok, message, details = _validate_povm(povm_from_json(doc), tol)
    elif kind == "channel":
        c = channel_from_json(doc)
        ok = is_trace_preserving(c, tol)
        details = {
            "kind": "channel",
            "dim_in": c.dim_in,
            "dim_out": c.dim_out,
            "kraus_operators": len(c.kraus),
            "trace_preserving": ok,
        }
        message = "valid channel" if ok else "Kraus operators do not preserve the trace"
    else:
        d = dilation_from_json(doc)
        # a dilation dilates V^dag A_hat(x) V by construction, so only the
        # isometry and the sharp observable are on trial
        v = d.isometry
        dilated = Povm(d.dim, zip(d.sharp.labels, dagger(v) @ d.sharp.effects @ v))
        ok = verify_dilation(dilated, d, tol)
        details = {"kind": "dilation", "dim_k": d.dim_k, "verified": ok}
        message = "valid dilation" if ok else "dilation structure fails"
    print(f"{args.path}: {message}")
    return [_check(f"validate-{kind}", ok, 0.0, details)], _digests(args, args.path)


# ------------------------------------------------------------------- joint


def cmd_joint(args):
    observables = [povm_from_json(_read_json(p)) for p in args.paths]
    opts = _solver_options(args)
    inputs = _digests(args, *args.paths)
    if args.exact_qubit:
        if len(observables) != 2:
            raise SchemaError("", "--exact-qubit applies to exactly two observables")
        if all(p.dim == 2 and len(p) == 2 and validate(p, QUBIT_TOL) for p in observables):
            value = qubit_pair_value(*observables)
            compatible = value <= 1.0 + BOUNDARY_SLACK
            verdict = "jointly measurable" if compatible else "not jointly measurable"
            print(f"exact qubit criterion: {value:.6f} (boundary 1) -> {verdict}")
            return [_check("qubit-criterion", compatible, 0.0, {"value": value})], inputs
        print("inputs are not valid two-outcome qubit observables; falling back to the solver")
    start = time.perf_counter()
    out = find_joint_observable(*observables, opts=opts)
    seconds = time.perf_counter() - start
    print(f"joint search: {out.status} (residual {out.residual:.3e}, "
          f"{out.iterations} sweeps)")
    if out.status == FEASIBLE and args.witness_out:
        _write_json(args.witness_out, povm_to_json(witness_povm(out)))
        print(f"witness written to {args.witness_out}")
    return [_check("joint-search", out.status, seconds,
                   outcome_to_json(out) | {"tol": opts.tol})], inputs


# --------------------------------------------------------------- universal


def cmd_universal(args):
    a = povm_from_json(_read_json(args.a_path))
    inputs = _digests(args, args.a_path)
    opts = _solver_options(args)
    # one minimal dilation serves the channel and the recovered B'
    mini = naimark_minimal(a)
    uni = _instrument(mini)
    out_dir = _out_dir(args.out_dir) if args.out_dir else None
    if out_dir:
        _write_json(out_dir / "universal_channel.json", channel_to_json(uni))
    print(f"universal channel: {uni.dim_in} -> {uni.dim_out}, "
          f"{len(uni.kraus)} branches")
    checks = [_check("universal-channel", True, 0.0,
                     {"dim_in": uni.dim_in, "dim_out": uni.dim_out})]
    if args.b_path:
        b = povm_from_json(_read_json(args.b_path))
        inputs |= _digests(args, args.b_path)
        start = time.perf_counter()
        # a tight witness keeps the recovered B' inside CHECK_TOL
        tight = SolverOptions(tol=min(opts.tol, WITNESS_TOL), max_iters=opts.max_iters)
        found = find_joint_observable(a, b, opts=tight)
        if found.status != FEASIBLE:
            print(f"joint search: {found.status} "
                  f"(residual {found.residual:.3e}); no recovery possible")
            checks.append(_check("joint-search", found.status,
                                 time.perf_counter() - start, outcome_to_json(found)))
            return checks, inputs
        b_prime = _modified(mini, a, witness_povm(found))
        verified = verify_sequential(uni, b_prime, b, tol=CHECK_TOL)
        seconds = time.perf_counter() - start
        print(f"recovered observable verifies: {verified}")
        if out_dir:
            _write_json(out_dir / "modified_observable.json", povm_to_json(b_prime))
        checks.append(_check("sequential-recovery", verified, seconds,
                             {"verified": verified, "tolerance": CHECK_TOL}))
    return checks, inputs


# ----------------------------------------------------------- conjugate-test


def cmd_conjugate_test(args):
    c = channel_from_json(_read_json(args.channel_path))
    b = povm_from_json(_read_json(args.b_path))
    inputs = _digests(args, args.channel_path, args.b_path)
    opts = _solver_options(args)
    start = time.perf_counter()
    out = conjugate_is_b_channel(c, b, opts=opts)
    print(f"conjugate channel test: {out.status} (residual {out.residual:.3e})")
    checks = [_check("conjugate-test", out.status, time.perf_counter() - start,
                     outcome_to_json(out))]
    if out.status == FEASIBLE:
        b_prime = witness_povm(out)
        verified = verify_sequential(c, b_prime, b, tol=max(RECOVERY_FLOOR, 10 * opts.tol))
        print(f"recovered observable verifies: {verified}")
        if args.witness_out:
            _write_json(args.witness_out, povm_to_json(b_prime))
        checks.append(_check("recovery", verified, 0.0, {"verified": verified}))
    return checks, inputs


# --------------------------------------------------------------- the rest


def cmd_nondisturb(args):
    tol = _tolerance(args, CHECK_TOL)
    c = channel_from_json(_read_json(args.channel_path))
    b = povm_from_json(_read_json(args.b_path))
    quiet = nondisturbing(c, b, tol)
    print(f"nondisturbing: {quiet}")
    return ([_check("nondisturb", quiet, 0.0, {"tol": tol})],
            _digests(args, args.channel_path, args.b_path))


def cmd_dilate(args):
    a = povm_from_json(_read_json(args.path))
    inputs = _digests(args, args.path)
    d = naimark_canonical(a) if args.canonical else naimark_minimal(a)
    ok = verify_dilation(a, d) and (args.canonical or is_minimal(d))
    print(f"dilation space dimension {d.dim_k} "
          f"({'canonical' if args.canonical else 'minimal'}), verified: {ok}")
    if args.out:
        _write_json(args.out, dilation_to_json(d))
    return [_check("dilate", ok, 0.0, {"dim_k": d.dim_k})], inputs


def cmd_selftest(args):
    opts = _solver_options(args)
    rep = run_checks(only=args.only or None, seed=args.seed, opts=opts)
    for c in rep.checks:
        gate = "" if c.gating else " (not gating)"
        print(f"{c.name:24s} {c.status:10s} {c.seconds:8.3f}s{gate}")
    if args.out_dir:
        out_dir = _out_dir(args.out_dir)
        a = qubit_binary(A_STRENGTH, AXIS_Z)
        mini = naimark_minimal(a)
        _write_json(out_dir / "universal_channel.json", channel_to_json(_instrument(mini)))
        _write_json(out_dir / "modified_refinement.json",
                    povm_to_json(_modified(
                        mini, a, refinement_joint(four_outcome_refinement(A_STRENGTH)))))
        boundary = find_joint_observable(a, qubit_binary(B_STRENGTH, AXIS_X), opts=opts)
        _write_json(out_dir / "boundary_witness.json", povm_to_json(witness_povm(boundary)))
    print(f"overall: {({0: 'pass', 1: 'fail', 3: 'undecided'})[rep.exit_code()]}")
    return rep.checks, rep.input_digests


# ------------------------------------------------------------------ parser


def _add_solver_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=None,
                     help=f"feasibility tolerance (default {DEFAULT_OPTIONS.tol:g})")
    sub.add_argument("--max-iters", type=int, default=None,
                     help=f"sweep budget (default {DEFAULT_OPTIONS.max_iters})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `seqmeas` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential measurement constructions and checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    # every command writes its report through main
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json-out", default=None)
    add = functools.partial(subs.add_parser, parents=[report])

    p = add("validate", help="check an observable/channel/dilation file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_validate)

    p = add("joint", help="search for a joint observable")
    p.add_argument("paths", nargs="+", metavar="POVM_JSON")
    p.add_argument("--exact-qubit", action="store_true",
                   help="decide two-outcome qubit pairs by their closed-form criterion")
    p.add_argument("--witness-out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_joint)

    p = add("universal", help="build the universal channel of an observable")
    p.add_argument("a_path")
    p.add_argument("b_path", nargs="?", default=None)
    p.add_argument("--out-dir", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_universal)

    p = add("conjugate-test", help="test whether a channel admits a later measurement of B")
    p.add_argument("channel_path")
    p.add_argument("b_path")
    p.add_argument("--witness-out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_conjugate_test)

    p = add("nondisturb", help="check the nondisturbance condition")
    p.add_argument("channel_path")
    p.add_argument("b_path")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_nondisturb)

    p = add("dilate", help="construct a Naimark dilation")
    p.add_argument("path")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dilate)

    p = add("selftest", help="run the named verification checks")
    p.add_argument("--only", action="append", choices=CHECK_NAMES, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        checks, inputs = args.func(args)
        command = (args.command, *_echo_flags(args)) if args.json_out else ()
        rep = Report(__version__, command, getattr(args, "seed", 0), tuple(checks), inputs)
        if args.json_out:
            _write_json(args.json_out, rep.to_json())
        return rep.exit_code()
    except (SchemaError, NecessaryConditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except FeasibilityError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return FAIL
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
