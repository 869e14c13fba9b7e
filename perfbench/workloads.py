"""The four workloads: seeded inputs, the questions each one asks seqmeas,
and the check of every answer against ``reference``.

Each workload returns its warm-up questions and one round of questions as a
list of units: a unit is asked in order and within one process.  Only
cli-session has units of more than one question, since its calls read files
that earlier calls of the same document set write.

A question's ``ask`` makes the calls into seqmeas, each through
``Tracer.call`` under the name of the module it enters; its ``check`` runs
after the clock has stopped.  A question fails when seqmeas raises or
cannot decide; it is wrong when an answer disagrees with the reference.
When tracing, ``ask`` also calls, on the same inputs, the public functions
of modules that the question reaches only through another module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from seqmeas import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    NaimarkDilation,
    Povm,
    SolverOptions,
    choi,
    cli,
    conjugate,
    conjugate_is_b_channel,
    connecting_isometry,
    find_joint_observable,
    four_outcome_refinement,
    heisenberg_apply,
    luders,
    marginal,
    modified_observable,
    naimark_canonical,
    naimark_minimal,
    noisy_spin_triplet,
    orthogonal_joint_observable,
    qubit_binary,
    recover_b_prime,
    universal_channel,
    verify_sequential,
    witness_povm,
)
from seqmeas.harness import run_checks
from seqmeas.serialize import (
    channel_from_json,
    channel_to_json,
    dilation_from_json,
    dilation_to_json,
    document_kind,
    povm_from_json,
    povm_to_json,
)
from tracing import TIMED

OK, FAILED, WRONG = "ok", "failed", "wrong"

# find_joint_observable stops at a residual of 1e-8 (1e-10 when tight), so
# its witnesses meet their marginals far inside this
WITNESS_TOL = 1e-7
# recover_b_prime and the CLI verify the recovered observable to 1e-6
RECOVERY_TOL = 1e-6
TIGHT = SolverOptions(tol=1e-10)


@dataclass
class Question:
    ask: Callable
    check: Callable


@dataclass
class Step:
    value: object = None
    error: str | None = None


def attempt(tr, name: str, fn, *args, **kwargs) -> Step:
    """One call into seqmeas; an exception becomes a failed step."""
    try:
        return Step(tr.call(name, fn, *args, **kwargs))
    except Exception as exc:  # counted as a failed question, the run goes on
        return Step(error=f"{name}: {exc}")


def _verdict(failures: list[str], wrongs: list[str]) -> tuple[str, str]:
    if wrongs:
        return WRONG, "; ".join(wrongs)
    if failures:
        return FAILED, "; ".join(failures)
    return OK, ""


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    points = [lo + (i + rng.uniform()) * width for i in range(n)]
    return [points[i] for i in rng.permutation(n)]


def _axis(theta: float) -> tuple[float, float, float]:
    return (math.sin(theta), 0.0, math.cos(theta))


def _effects(p: Povm) -> list[np.ndarray]:
    return [np.array(e) for e in p.effects]


# --- joint-grid -------------------------------------------------------------

GRID_STRENGTHS = np.linspace(0.05, 1.0, 20)
GRID_ANGLES = tuple(k * math.pi / 8 for k in range(5))
GRID_BAND = 1e-3
TRIPLET_STRENGTHS = (0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75)


def _joint_question(kind: str, observables, compatible: bool) -> Question:
    margins = [_effects(o) for o in observables]

    def ask(tr):
        return attempt(tr, "feasibility.find_joint_observable",
                       find_joint_observable, *observables)

    def check(step):
        if step.error:
            return FAILED, step.error
        out = step.value
        if out.status == "undecided":
            return FAILED, f"{kind}: undecided after {out.iterations} sweeps"
        if out.feasible != compatible:
            return WRONG, f"{kind}: solver says {out.status}"
        if out.feasible and not ref.joint_witness_ok(out.witness, margins, WITNESS_TOL):
            return WRONG, f"{kind}: witness fails its marginals"
        return OK, ""

    return Question(ask, check)


def _pair_question(s: float, t: float, theta: float) -> Question:
    pair = (qubit_binary(s, AXIS_Z), qubit_binary(t, _axis(theta)))
    return _joint_question("pair", pair, ref.busch_value(s, t, theta) <= 1.0)


def joint_grid(seed: int, workdir: str):
    questions = []
    for theta in GRID_ANGLES:
        for s in GRID_STRENGTHS:
            for t in GRID_STRENGTHS:
                if abs(ref.busch_value(s, t, theta) - 1.0) > GRID_BAND:
                    questions.append(_pair_question(float(s), float(t), theta))
    for t in TRIPLET_STRENGTHS:
        questions.append(
            _joint_question("triplet", noisy_spin_triplet(t), ref.triplet_compatible(t))
        )
    order = np.random.default_rng(seed).permutation(len(questions))
    warmup = [
        _pair_question(0.5, 0.5, math.pi / 2),
        _pair_question(0.7, 0.6, math.pi / 4),
        _pair_question(0.9, 0.8, math.pi / 2),
    ]
    return warmup, [[questions[i]] for i in order]


# --- universality -------------------------------------------------------------

UNI_DIMS = {2: 16, 3: 12, 4: 12, 8: 16}  # questions per (na, nb) class at each d
UNI_OUTCOMES = ((2, 2), (2, 3), (3, 2), (3, 3))
# joints with rank-one effects at d = 4, whose marginals modified_observable
# cannot connect: its spanning residual sits at 1.6e-8 to 4.5e-8 on these
# eight, above its 1e-8 tolerance.  They do not depend on the seed, so the
# failed share is the same in every run.
RANK_ONE_SEED = 2
RANK_ONE = (4, 2, 2, 8)  # d, outcomes of A, outcomes of B, how many


def random_joint(rng, d: int, na: int, nb: int, cols: int) -> np.ndarray:
    """Joint effects M[x, y] from Wishart blocks of ``cols`` columns,
    normalised by the inverse square root of their sum."""
    g = rng.normal(size=(na * nb, d, cols)) + 1j * rng.normal(size=(na * nb, d, cols))
    blocks = g @ np.conj(np.swapaxes(g, 1, 2))
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    isq = (v * w**-0.5) @ np.conj(v.T)
    m = isq @ blocks @ isq
    m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2
    return m.reshape(na, nb, d, d)


def joint_povms(m: np.ndarray) -> tuple[Povm, Povm, Povm]:
    """The two marginals of M and M itself as seqmeas observables."""
    na, nb, d, _ = m.shape
    a = Povm(d, tuple(((x,), m[x].sum(axis=0)) for x in range(na)))
    b = Povm(d, tuple(((y,), m[:, y].sum(axis=0)) for y in range(nb)))
    joint = Povm(d, tuple(((x, y), m[x, y]) for x in range(na) for y in range(nb)))
    return a, b, joint


def _upstairs(joint: Povm) -> NaimarkDilation:
    """The joint's canonical dilation, read as a dilation of its first marginal."""
    cano = naimark_canonical(joint)
    return NaimarkDilation(cano.dim_k, cano.isometry, marginal(cano.sharp, 0))


def _universality_question(kind: str, m: np.ndarray) -> Question:
    a, b, joint = joint_povms(m)
    a_eff, b_eff = list(m.sum(axis=1)), list(m.sum(axis=0))

    def ask(tr):
        r = {
            "joint": attempt(tr, "feasibility.find_joint_observable",
                             find_joint_observable, a, b, opts=TIGHT),
            "channel": attempt(tr, "sequential.universal_channel", universal_channel, a),
        }
        found, uni = r["joint"].value, r["channel"].value
        if found is not None and found.feasible:
            witness = tr.call("feasibility.witness_povm", witness_povm, found)
            r["b_prime"] = attempt(tr, "sequential.modified_observable",
                                   modified_observable, a, witness)
            if uni is not None and r["b_prime"].value is not None:
                r["heisenberg"] = attempt(tr, "sequential.verify_sequential",
                                          verify_sequential, uni, r["b_prime"].value, b)
        if uni is not None:
            r["conjugate"] = attempt(tr, "feasibility.conjugate_is_b_channel",
                                     conjugate_is_b_channel, uni, b)
            r["recovered"] = attempt(tr, "feasibility.recover_b_prime",
                                     recover_b_prime, uni, b)
        if tr.enabled:
            with tr.mirroring():
                _mirror_universality(tr, a, joint, uni, r.get("b_prime", Step()).value)
        return r

    def check(r):
        failures, wrongs = [], []
        for step in r.values():
            if step.error:
                failures.append(step.error)
        found = r["joint"].value
        if found is not None:
            if found.status == "undecided":
                failures.append("joint search undecided")
            elif not found.feasible:
                wrongs.append("joint search says incompatible")
            elif not ref.joint_witness_ok(found.witness, [a_eff, b_eff], WITNESS_TOL):
                wrongs.append("joint witness fails its marginals")
        uni = r["channel"].value
        if uni is not None:
            parts = [uni.partition[lbl] for lbl in a.labels]
            if not ref.instrument_ok(uni.kraus, parts, a_eff, WITNESS_TOL):
                wrongs.append("universal channel does not measure A")
            b_prime = r.get("b_prime", Step()).value
            if b_prime is not None and not ref.b_prime_ok(
                uni.kraus, _effects(b_prime), b_eff, WITNESS_TOL
            ):
                wrongs.append("modified observable does not reproduce B")
            if r.get("heisenberg", Step(True)).value is False:
                wrongs.append("verify_sequential rejects B'")
            test = r["conjugate"].value
            if test is not None and test.status == "undecided":
                failures.append("conjugate test undecided")
            elif test is not None and not test.feasible:
                wrongs.append("conjugate test says unreachable")
            rec = r["recovered"].value
            if rec is not None and not ref.b_prime_ok(
                uni.kraus, _effects(rec), b_eff, RECOVERY_TOL
            ):
                wrongs.append("recovered B' does not reproduce B")
        return _verdict(failures, [f"{kind}: {w}" for w in wrongs])

    return Question(ask, check)


def _mirror_universality(tr, a, joint, uni, b_prime) -> None:
    mini = attempt(tr, "dilation.naimark_minimal", naimark_minimal, a).value
    up = attempt(tr, "dilation.naimark_canonical", _upstairs, joint).value
    if mini is not None and up is not None:
        attempt(tr, "dilation.connecting_isometry", connecting_isometry, mini, up)
    attempt(tr, "channels.luders", luders, a)
    if uni is not None:
        env = attempt(tr, "channels.conjugate", conjugate, uni).value
        attempt(tr, "channels.choi", choi, env)
        for eff in b_prime.effects if b_prime is not None else ():
            attempt(tr, "channels.heisenberg_apply", heisenberg_apply, uni, eff)


def universality(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    questions = []
    for d, count in UNI_DIMS.items():
        for na, nb in UNI_OUTCOMES:
            for _ in range(count):
                m = random_joint(rng, d, na, nb, 2 * d)
                questions.append(_universality_question(f"d{d}-{na}x{nb}", m))
    fixed = np.random.default_rng(RANK_ONE_SEED)
    d, na, nb, count = RANK_ONE
    for _ in range(count):
        m = random_joint(fixed, d, na, nb, 1)
        questions.append(_universality_question(f"rank-one-d{d}-{na}x{nb}", m))
    warm = np.random.default_rng([seed, 1])
    warmup = [
        _universality_question(f"d{d}-2x2", random_joint(warm, d, 2, 2, 2 * d))
        for d in UNI_DIMS
    ]
    order = rng.permutation(len(questions))
    return warmup, [[questions[i]] for i in order]


# --- luders-channel ---------------------------------------------------------

LUDERS_BAND = 1e-3
LUDERS_ALIGNED = 60
LUDERS_REFINEMENTS = 30
# targets with a transverse component; conjugate_is_b_channel runs out of
# sweeps on every one of them, so they are fixed and count as failed
LUDERS_TILTED = (
    (0.8, 0.5, AXIS_X),
    (0.8, 0.9, AXIS_Y),
    (0.8, 0.5, _axis(math.pi / 6)),
)


def _luders_question(kind: str, s: float, target: Povm) -> Question:
    a = qubit_binary(s, AXIS_Z)
    b_eff = _effects(target)
    kraus = ref.luders_kraus(s, AXIS_Z)
    root_of = {(1,): kraus[0], (-1,): kraus[1]}
    margin = ref.luders_reach_margin(s, AXIS_Z, b_eff)

    def ask(tr):
        r = {"channel": attempt(tr, "channels.luders", luders, a)}
        c = r["channel"].value
        if c is None:
            return r
        r["test"] = attempt(tr, "feasibility.conjugate_is_b_channel",
                            conjugate_is_b_channel, c, target)
        if r["test"].value is not None and r["test"].value.feasible:
            r["recovered"] = attempt(tr, "feasibility.recover_b_prime", recover_b_prime, c, target)
        if tr.enabled:
            with tr.mirroring():
                env = attempt(tr, "channels.conjugate", conjugate, c).value
                attempt(tr, "channels.choi", choi, env)
                rec = r.get("recovered", Step()).value
                for eff in rec.effects if rec is not None else ():
                    attempt(tr, "channels.heisenberg_apply", heisenberg_apply, c, eff)
        return r

    def check(r):
        failures = [step.error for step in r.values() if step.error]
        wrongs = []
        c = r["channel"].value
        if c is not None and any(
            np.linalg.norm(c.kraus[c.partition[lbl][0]] - root_of[lbl]) > 1e-9
            for lbl in c.labels
        ):
            wrongs.append("Kraus operators are not sqrt(A)")
        test = r.get("test", Step()).value
        if test is not None and test.status == "undecided":
            failures.append(f"conjugate test undecided after {test.iterations} sweeps")
        elif test is not None and test.feasible != (margin >= 0):
            wrongs.append(f"conjugate test says {test.status}")
        rec = r.get("recovered", Step()).value
        if rec is not None and not ref.b_prime_ok(kraus, _effects(rec), b_eff, RECOVERY_TOL):
            wrongs.append("recovered B' does not reproduce B")
        return _verdict([f"{kind}: {f}" for f in failures], [f"{kind}: {w}" for w in wrongs])

    return Question(ask, check)


def luders_channel(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    questions = []
    strengths = _stratified(rng, 0.2, 0.9, LUDERS_ALIGNED)
    sharpness = _stratified(rng, 0.1, 0.95, LUDERS_ALIGNED)
    for i, (s, t) in enumerate(zip(strengths, sharpness)):
        axis = AXIS_Z if i % 2 == 0 else (0.0, 0.0, -1.0)
        questions.append(_luders_question("aligned", s, qubit_binary(t, axis)))
    for s in _stratified(rng, 0.3, 0.9, LUDERS_REFINEMENTS):
        target = four_outcome_refinement(s)
        # strengths of at least 0.3 keep the refinement outside the band
        if abs(ref.luders_reach_margin(s, AXIS_Z, _effects(target))) <= LUDERS_BAND:
            raise ValueError(f"refinement at s={s} lies in the boundary band")
        questions.append(_luders_question("refinement", s, target))
    for s, t, axis in LUDERS_TILTED:
        questions.append(_luders_question("tilted", s, qubit_binary(t, axis)))
    warmup = [
        _luders_question("aligned", 0.5, qubit_binary(0.6, AXIS_Z)),
        _luders_question("refinement", 0.8, four_outcome_refinement(0.8)),
    ]
    order = rng.permutation(len(questions))
    return warmup, [[questions[i]] for i in order]


# --- cli-session --------------------------------------------------------------

CLI_DIMS = (2, 3, 4, 8)
CLI_SETS = 4  # document sets per dimension in one round
CHEAP_CHECKS = ("luders-implementation", "sharp-reduction", "minimal-dilation-dims", "duality")


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _povm_effects(doc: dict) -> list[np.ndarray]:
    return [_matrix(o["matrix"]) for o in doc["outcomes"]]


def _doc_effects(path: str) -> list[np.ndarray]:
    return _povm_effects(_load(path))


def _doc_channel(path: str):
    doc = _load(path)
    kraus = [_matrix(k) for k in doc["kraus"]]
    part = doc.get("partition", {})
    keys = sorted(part, key=lambda key: tuple(int(c) for c in key.split(",")))
    return kraus, [part[k] for k in keys]


def read_doc(path: str):
    """File to seqmeas object, as the CLI reads it."""
    doc = _load(path)
    kind = document_kind(doc)
    return {"povm": povm_from_json, "channel": channel_from_json,
            "dilation": dilation_from_json}[kind](doc)


def write_doc(path: str, doc: dict) -> int:
    """Write a JSON document as the CLI does; returns the bytes written."""
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode())


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_question(argv: list[str], expect: int, verify=None, mirror=None) -> Question:
    def ask(tr):
        step = attempt(tr, f"cli.{argv[0]}", _run_cli, argv)
        if tr.enabled and mirror is not None:
            with tr.mirroring():
                mirror(tr)
        return step

    def check(step):
        if step.error:
            return FAILED, step.error
        code, text = step.value
        label = " ".join(os.path.basename(a) for a in argv)
        if code in (2, 3) and expect not in (2, 3):
            return FAILED, f"{label}: exit {code}: {text.strip()}"
        if code != expect:
            return WRONG, f"{label}: exit {code}, expected {expect}"
        if verify is not None and not verify(text):
            return WRONG, f"{label}: output fails the reference check"
        return OK, ""

    return Question(ask, check)


def _documents(rng, d: int, where: str) -> dict:
    """Write A, B, the Luders channel of A and, for qubits, an incompatible
    and a Z-aligned target; returns the paths, the objects and, for qubits,
    the strength of A and whether the far target is compatible with A."""
    os.makedirs(where, exist_ok=True)
    if d == 2:
        # a compatible pair well inside the region, and a target along x
        # that lies beyond the boundary by at least 0.05 in the Busch value
        while True:
            s, t = rng.uniform(0.5, 0.9), rng.uniform(0.2, 0.9)
            theta = rng.uniform(0.0, math.pi / 2)
            if ref.busch_value(s, t, theta) < 0.9:
                break
        a, b = qubit_binary(s, AXIS_Z), qubit_binary(t, _axis(theta))
        t_far = rng.uniform(math.sqrt(max(0.0, 1.05 - s * s)), 1.0)
        far_compatible = ref.busch_value(s, t_far, math.pi / 2) <= 1.0
        extra = {
            "far": qubit_binary(t_far, AXIS_X),
            "aligned": qubit_binary(rng.uniform(0.1, 0.95), AXIS_Z),
        }
    else:
        s = far_compatible = None
        a, b, _ = joint_povms(random_joint(rng, d, 2 + d % 2, 2 + (d // 4) % 2, 2 * d))
        extra = {}
    docs = {"a": a, "b": b, "luders": luders(a), **extra}
    paths = {}
    for name, obj in docs.items():
        paths[name] = os.path.join(where, f"{name}.json")
        write_doc(paths[name], channel_to_json(obj) if name == "luders" else povm_to_json(obj))
    return {"paths": paths, "docs": docs, "s": s, "far_compatible": far_compatible}


def _session(rng, workdir: str, dims=CLI_DIMS, sets=CLI_SETS) -> list[list[Question]]:
    """One unit per document set, then one per selftest."""
    units = []
    for d, k in ((d, k) for d in dims for k in range(sets)):
        where = os.path.join(workdir, f"d{d}-{k}")
        set_ = _documents(rng, d, where)
        p, objs = set_["paths"], set_["docs"]
        a, b, lam = objs["a"], objs["b"], objs["luders"]
        a_eff, b_eff = _effects(a), _effects(b)
        dil, wit = os.path.join(where, "dilation.json"), os.path.join(where, "witness.json")
        out_dir, bp = os.path.join(where, "universal"), os.path.join(where, "b_prime.json")
        uni_path = os.path.join(out_dir, "universal_channel.json")

        def reads(*names):
            return lambda tr: [tr.call("serialize.read", read_doc, p[n]) for n in names]

        def dilation_ok(_text, a_eff=a_eff, dil=dil):
            doc = _load(dil)
            v = _matrix(doc["v"])
            projs = _povm_effects(doc["sharp"])
            return (doc["dim_k"] == ref.minimal_dilation_dim(a_eff)
                    and np.linalg.norm(np.conj(v.T) @ v - np.eye(v.shape[1])) <= 1e-9
                    and all(np.linalg.norm(np.conj(v.T) @ q @ v - e) <= 1e-9
                            for q, e in zip(projs, a_eff)))

        def witness_ok(_text, a_eff=a_eff, b_eff=b_eff, wit=wit):
            return ref.joint_witness_ok(_doc_effects(wit), [a_eff, b_eff], WITNESS_TOL)

        def universal_ok(_text, a_eff=a_eff, b_eff=b_eff, out_dir=out_dir):
            kraus, parts = _doc_channel(os.path.join(out_dir, "universal_channel.json"))
            b_prime = _doc_effects(os.path.join(out_dir, "modified_observable.json"))
            return (ref.instrument_ok(kraus, parts, a_eff, WITNESS_TOL)
                    and ref.b_prime_ok(kraus, b_prime, b_eff, WITNESS_TOL))

        def recovery_ok(_text, b_eff=b_eff, bp=bp, uni_path=uni_path):
            kraus, _ = _doc_channel(uni_path)
            return ref.b_prime_ok(kraus, _doc_effects(bp), b_eff, RECOVERY_TOL)

        def mirror_dilate(tr, a=a, where=where):
            d_min = tr.call("dilation.naimark_minimal", naimark_minimal, a)
            tr.call("dilation.naimark_canonical", naimark_canonical, a)
            tr.call("serialize.write", write_doc, os.path.join(where, "mirror-dilation.json"),
                    dilation_to_json(d_min))

        def mirror_joint(tr, a=a, b=b, where=where):
            found = tr.call("feasibility.find_joint_observable", find_joint_observable, a, b)
            if found.feasible:
                tr.call("serialize.write", write_doc, os.path.join(where, "mirror-witness.json"),
                        povm_to_json(witness_povm(found)))

        def mirror_universal(tr, a=a, b=b, where=where):
            uni = tr.call("sequential.universal_channel", universal_channel, a)
            found = tr.call("feasibility.find_joint_observable",
                            find_joint_observable, a, b, opts=TIGHT)
            witness = tr.call("feasibility.witness_povm", witness_povm, found)
            b_prime = tr.call("sequential.modified_observable", modified_observable, a, witness)
            tr.call("sequential.verify_sequential", verify_sequential, uni, b_prime, b)
            tr.call("dilation.connecting_isometry", connecting_isometry,
                    naimark_minimal(a), _upstairs(witness))
            tr.call("serialize.write", write_doc, os.path.join(where, "mirror-channel.json"),
                    channel_to_json(uni))
            tr.call("serialize.write", write_doc, os.path.join(where, "mirror-b_prime.json"),
                    povm_to_json(b_prime))

        def mirror_conjugate(tr, a=a, b=b, where=where):
            uni = universal_channel(a)
            env = tr.call("channels.conjugate", conjugate, uni)
            tr.call("channels.choi", choi, env)
            tr.call("feasibility.conjugate_is_b_channel", conjugate_is_b_channel, uni, b)
            recovered = tr.call("feasibility.recover_b_prime", recover_b_prime, uni, b)
            tr.call("serialize.write", write_doc, os.path.join(where, "mirror-recovered.json"),
                    povm_to_json(recovered))

        def mirror_nondisturb(tr, a=a, lam=lam, b=b):
            tr.call("channels.luders", luders, a)
            for eff in b.effects:
                tr.call("channels.heisenberg_apply", heisenberg_apply, lam, eff)

        quiet_a = all(np.linalg.norm(ref.luders_dual(a_eff, e) - e) <= 1e-8 for e in a_eff)
        quiet_b = all(np.linalg.norm(ref.luders_dual(a_eff, e) - e) <= 1e-8 for e in b_eff)
        unit = [
            _cli_question(["validate", p["a"]], 0, mirror=reads("a")),
            _cli_question(["validate", p["b"]], 0, mirror=reads("b")),
            _cli_question(["validate", p["luders"]], 0, mirror=reads("luders")),
            _cli_question(["dilate", p["a"], "--out", dil], 0, dilation_ok, mirror_dilate),
            _cli_question(["dilate", p["a"], "--canonical"], 0,
                          lambda text, n=len(a) * d: f"dimension {n} " in text, mirror_dilate),
            _cli_question(["validate", dil], 0),
            _cli_question(["joint", p["a"], p["b"], "--witness-out", wit], 0, witness_ok,
                          mirror_joint),
            _cli_question(["joint", p["a"], p["b"], "--exact-qubit"], 0,
                          lambda text, d=d: (d == 2) == ("exact qubit criterion" in text),
                          mirror_joint),
            _cli_question(["universal", p["a"], p["b"], "--out-dir", out_dir], 0,
                          universal_ok, mirror_universal),
            _cli_question(["conjugate-test", uni_path, p["b"], "--witness-out", bp], 0,
                          recovery_ok, mirror_conjugate),
            _cli_question(["nondisturb", p["luders"], p["a"]], 0 if quiet_a else 1,
                          mirror=mirror_nondisturb),
            _cli_question(["nondisturb", p["luders"], p["b"]], 0 if quiet_b else 1,
                          mirror=mirror_nondisturb),
        ]
        if d == 2:
            s = set_["s"]
            aligned = _doc_effects(p["aligned"])
            far = 0 if set_["far_compatible"] else 1
            lbp = os.path.join(where, "luders_b_prime.json")
            unit += [
                _cli_question(["joint", p["a"], p["far"]], far),
                _cli_question(["joint", p["a"], p["far"], "--exact-qubit"], far),
                _cli_question(
                    ["conjugate-test", p["luders"], p["aligned"], "--witness-out", lbp], 0,
                    lambda _t, s=s, lbp=lbp, aligned=aligned: ref.b_prime_ok(
                        ref.luders_kraus(s, AXIS_Z), _doc_effects(lbp), aligned, RECOVERY_TOL)),
            ]
        units.append(unit)
    for name in CHEAP_CHECKS:
        report = os.path.join(workdir, f"selftest-{name}.json")
        units.append([_cli_question(
            ["selftest", "--only", name, "--json-out", report], 0,
            lambda _t, report=report: _selftest_ok(report),
            lambda tr, name=name: tr.call("harness.run_checks", run_checks, only=[name]),
        )])
    return units


def _selftest_ok(report: str) -> bool:
    doc = _load(report)
    for check in doc["checks"]:
        if check["status"] != "pass":
            return False
        if check["name"] == "minimal-dilation-dims":
            want = [
                ref.minimal_dilation_dim(e)
                for e in (ref.binary_effects(0.8, AXIS_Z), ref.refinement_effects(0.8),
                          ref.binary_effects(1.0, AXIS_Z))
            ]
            if [c["dim"] for c in check["details"]["cases"]] != want:
                return False
    return True


def cli_session(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    units = _session(rng, os.path.join(workdir, "session"))
    warmup = _session(np.random.default_rng([seed, 1]), os.path.join(workdir, "warmup"),
                      dims=(2, 8), sets=1)
    return [q for unit in warmup for q in unit], units


WORKLOADS = {
    "joint-grid": joint_grid,
    "universality": universality,
    "luders-channel": luders_channel,
    "cli-session": cli_session,
}


# --- stand-ins for layers a workload never reaches ----------------------------

def stand_in(tr, workdir: str, repeats: int = 5) -> None:
    """Time each layer function no question reached, on fixed qubit inputs.

    These spans carry no question id, so they feed the per-call times of
    the layer metrics but none of the per-round counts.
    """
    a, b = qubit_binary(0.6, AXIS_Z), qubit_binary(0.5, AXIS_X)
    joint = orthogonal_joint_observable(0.6, 0.5)
    uni = universal_channel(a)
    lam = luders(a)
    b_prime = modified_observable(a, joint)
    calls = {
        "feasibility.find_joint_observable": lambda: find_joint_observable(a, b),
        "dilation.naimark_minimal": lambda: naimark_minimal(a),
        "dilation.naimark_canonical": lambda: _upstairs(joint),
        "dilation.connecting_isometry": lambda: connecting_isometry(
            naimark_minimal(a), _upstairs(joint)),
        "sequential.universal_channel": lambda: universal_channel(a),
        "sequential.modified_observable": lambda: modified_observable(a, joint),
        "sequential.verify_sequential": lambda: verify_sequential(uni, b_prime, b),
        "channels.luders": lambda: luders(a),
        "channels.choi": lambda: choi(lam),
        "channels.conjugate": lambda: conjugate(lam),
        "channels.heisenberg_apply": lambda: heisenberg_apply(uni, b_prime.effects[0]),
        "harness.run_checks": lambda: run_checks(only=["sharp-reduction"]),
    }
    one_sweep = any(s.info and s.info.get("sweeps") == 1 for s in tr.spans)
    missing = [n for n in calls if not tr.covered(n)]
    if not one_sweep and "feasibility.find_joint_observable" not in missing:
        missing.append("feasibility.find_joint_observable")
    cli_missing = any(not tr.covered(f"cli.{c}") for c in TIMED["cli"][1])
    io_missing = not tr.covered("serialize.read") or not tr.covered("serialize.write")
    for _ in range(repeats):
        for name in missing:
            tr.call(name, calls[name])
    if cli_missing or io_missing:
        where = os.path.join(workdir, "stand-in")
        os.makedirs(where, exist_ok=True)
        pa, pb, pc = (os.path.join(where, f) for f in ("a.json", "b.json", "c.json"))
        for _ in range(repeats):
            tr.call("serialize.write", write_doc, pa, povm_to_json(a))
            tr.call("serialize.write", write_doc, pb, povm_to_json(b))
            tr.call("serialize.write", write_doc, pc, channel_to_json(lam))
            tr.call("serialize.read", read_doc, pa)
            for argv in (["validate", pa], ["dilate", pa],
                         ["joint", pa, pb], ["universal", pa, pb],
                         ["conjugate-test", pc, pa], ["nondisturb", pc, pa]):
                tr.call(f"cli.{argv[0]}", _run_cli, argv)
