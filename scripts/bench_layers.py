"""Per-call CPU times of every seqmeas layer and of its CLI, at two revisions.

    python scripts/bench_layers.py [--against REV] [--out BENCH_layers.json]

Exports REV (default HEAD) with `git archive` into one temporary
directory and copies the working tree's `src/` into another, so that the
two trees sit alike; copies this script into both, and runs RUNS rounds;
each round runs one `--single` process on each tree, REV's and the
working tree's, alternating which goes first, with BLAS pinned to one
thread so that CPU time counts no idle BLAS threads.  One run times, at
input dimension d = 2 and 8, on a random full-rank 2 x 2 joint
observable M on C^d, on the universal channel of its first marginal A
(two Kraus operators into the dilation space) and on the Luders channel
of A:

- `povm`: building M from its (label, effect) pairs, its `marginal` on
  axis 0, `validate`, and `post_process` with a 4 x 3 stochastic kernel;
- `serialize`: `povm_to_json` of M; and, at sides 2, 8 and 24,
  `matrix_to_json` and `matrix_from_json` of a random complex matrix;
- `dilation`: `naimark_minimal` and `naimark_canonical` of A;
- `channels`: `heisenberg_apply` of one operator and of the stack of the
  two effects of the modified observable B', `apply` to a state, `choi`,
  `conjugate`, `stinespring` and `is_trace_preserving` of the universal
  channel, `nondisturbing` of the Luders channel on A, `luders` of A and
  `classical_channel` of M;
- `sequential`: `universal_channel` of A, `modified_observable` of A and
  M, `verify_sequential` of B' against the other marginal B,
  `implemented_joint` of B', and `sequential_scheme` of A and M;
- `feasibility`: `conjugate_is_b_channel` of B on the universal channel
  and on the Luders channel, and `find_joint_observable` of A and B; and,
  at d = 3 and 8, the same universal-channel test and joint search on
  the marginals of a low-rank 2 x 2 joint (Wishart effects of ceil(d / 4)
  columns, rank one at d = 3), whose rank-deficient targets pin every
  solve to a face of the cone; and, on qubits, two infeasible solves
  that build that face after their first sweep: the conjugate test of
  `four_outcome_refinement(0.8)` on the Luders channel of the strength-0.8
  binary along z (certified at sweep 2), and the joint search of
  strength-0.95 binaries along z and at pi / 8 from it (certified at
  sweep 4, as are the longest solves of the Busch grid).  Each has a `.sweeps`
  row next to its time: the solver sweeps of one call, which do not
  depend on the machine;
- `cli`: each command (`validate`, `joint`, `universal`, `conjugate-test`,
  `nondisturb`, `dilate`) through `seqmeas.cli.main` on documents of
  dimension 2 (binaries of strength 0.8 along z and 0.5 along x) and 8
  (the marginals of M), in ms; `selftest --only duality`, in ms; and
  `build_parser`, as `main` calls it.

Each figure of one run is the median CPU time of one call over 15
batches; a batch repeats the call until it has run for at least 5 ms,
after one untimed call.  The output gets, per row, `parent` and
`change`, the minimum over the RUNS runs on REV's tree and on the working
tree (on a shared guest one process can run at half the speed of the
next); `ratio`, the median over rounds of change / parent; and `wins`,
the rounds in which change was lower (ties count for neither).  Both
trees run in every round because the guest's speed drifts over tens of
seconds, so columns taken one after the other are not comparable.

`--single` makes one run on the tree this script sits in and prints its
rows as JSON.  The script calls only public entry points, so its copy
runs unchanged on an older commit's `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_BATCH_S = 5e-3
REPEATS = 15
DIMS = (2, 8)
PINNED_DIMS = (3, 8)
SIDES = (2, 8, 24)
RUNS = 10
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def per_call(fn) -> float:
    """Median CPU seconds of one call of fn over REPEATS batches."""
    fn()
    number = 1
    while True:
        start = time.process_time()
        for _ in range(number):
            fn()
        if time.process_time() - start >= MIN_BATCH_S:
            break
        number *= 2
    batches = []
    for _ in range(REPEATS):
        start = time.process_time()
        for _ in range(number):
            fn()
        batches.append((time.process_time() - start) / number)
    return statistics.median(batches)


def random_joint(rng, d: int, cols: int | None = None):
    """A random 2 x 2 joint observable on C^d whose effects are Wishart
    matrices of `cols` columns (2d by default, so full rank), normalized;
    the four effects span C^d, as they must to sum to the identity, only
    when 4 cols >= d."""
    import numpy as np
    from seqmeas.povm import Povm

    cols = 2 * d if cols is None else cols
    grams = []
    for _ in range(4):
        g = rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))
        grams.append(g @ g.conj().T)
    vals, vecs = np.linalg.eigh(sum(grams))
    root = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return Povm(d, tuple(((x, y), root @ grams[2 * x + y] @ root)
                         for x in range(2) for y in range(2)))


def command_lines(where: str, d: int) -> dict:
    """Write the documents of dimension d into `where` and return the argv
    of each timed command on them."""
    import numpy as np
    from seqmeas.channels import luders
    from seqmeas.povm import AXIS_X, AXIS_Z, marginals, qubit_binary
    from seqmeas.serialize import channel_to_json, povm_to_json

    if d == 2:
        a, b = qubit_binary(0.8, AXIS_Z), qubit_binary(0.5, AXIS_X)
    else:
        a, b = marginals(random_joint(np.random.default_rng(d), d))
    out = os.path.join(where, "out")
    os.makedirs(out)
    p = {}
    for name, doc in (("a", povm_to_json(a)), ("b", povm_to_json(b)),
                      ("luders", channel_to_json(luders(a)))):
        p[name] = os.path.join(where, f"{name}.json")
        with open(p[name], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    return {
        "validate": ["validate", p["a"]],
        "joint": ["joint", p["a"], p["b"], "--witness-out", os.path.join(out, "w.json")],
        "universal": ["universal", p["a"], p["b"], "--out-dir", out],
        "conjugate-test": ["conjugate-test", os.path.join(out, "universal_channel.json"),
                           p["b"], "--witness-out", os.path.join(out, "bp.json")],
        "nondisturb": ["nondisturb", p["luders"], p["a"]],
        "dilate": ["dilate", p["a"], "--out", os.path.join(out, "dil.json")],
    }


def run_cli(main, argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def measure(workdir: str) -> dict:
    """One run: {row name: (unit, value)}."""
    import numpy as np
    from seqmeas import channels, cli, dilation, feasibility, sequential, serialize
    from seqmeas.povm import (
        AXIS_Z, Povm, four_outcome_refinement, marginal, marginals, post_process,
        qubit_binary, validate,
    )

    rows = {}

    def timed(name: str, fn, unit: str = "us") -> None:
        scale = {"ms": 1e3, "us": 1e6}[unit]
        rows[name] = (unit, round(per_call(fn) * scale, 4))

    def solved(name: str, fn) -> None:
        timed(name, fn)
        rows[f"{name}.sweeps"] = ("sweeps", fn().iterations)

    for d in DIMS:
        rng = np.random.default_rng(d)
        joint = random_joint(rng, d)
        pairs = list(zip(joint.labels, joint.effects))
        kernel = rng.random((len(joint), 3))
        kernel /= kernel.sum(axis=1, keepdims=True)
        a, b = marginals(joint)
        uni = sequential.universal_channel(a)
        lud = channels.luders(a)
        b_prime = sequential.modified_observable(a, joint)
        if not sequential.verify_sequential(uni, b_prime, b):
            raise SystemExit(f"d = {d}: B' does not recover B")
        ts = np.asarray(b_prime.effects)
        rho = np.eye(d, dtype=complex) / d

        timed(f"povm.construct.d{d}", lambda: Povm(d, pairs))
        timed(f"povm.marginal.d{d}", lambda: marginal(joint, 0))
        timed(f"povm.validate.d{d}", lambda: validate(joint))
        timed(f"povm.post_process.d{d}", lambda: post_process(joint, kernel))
        timed(f"serialize.povm_to_json.d{d}", lambda: serialize.povm_to_json(joint))
        timed(f"dilation.naimark_minimal.d{d}", lambda: dilation.naimark_minimal(a))
        timed(f"dilation.naimark_canonical.d{d}", lambda: dilation.naimark_canonical(a))
        timed(f"channels.heisenberg_apply.d{d}", lambda: channels.heisenberg_apply(uni, ts[0]))
        timed(f"channels.heisenberg_apply_stack.d{d}",
              lambda: channels.heisenberg_apply(uni, ts))
        timed(f"channels.apply.d{d}", lambda: channels.apply(uni, rho))
        timed(f"channels.choi.d{d}", lambda: channels.choi(uni))
        timed(f"channels.conjugate.d{d}", lambda: channels.conjugate(uni))
        timed(f"channels.stinespring.d{d}", lambda: channels.stinespring(uni))
        timed(f"channels.is_trace_preserving.d{d}",
              lambda: channels.is_trace_preserving(uni))
        timed(f"channels.nondisturbing.d{d}", lambda: channels.nondisturbing(lud, a))
        timed(f"channels.luders.d{d}", lambda: channels.luders(a))
        timed(f"channels.classical_channel.d{d}", lambda: channels.classical_channel(joint))
        timed(f"sequential.universal_channel.d{d}", lambda: sequential.universal_channel(a))
        timed(f"sequential.modified_observable.d{d}",
              lambda: sequential.modified_observable(a, joint))
        timed(f"sequential.verify_sequential.d{d}",
              lambda: sequential.verify_sequential(uni, b_prime, b))
        timed(f"sequential.implemented_joint.d{d}",
              lambda: sequential.implemented_joint(uni, b_prime))
        timed(f"sequential.sequential_scheme.d{d}",
              lambda: sequential.sequential_scheme(a, joint))
        solved(f"feasibility.conjugate_universal.d{d}",
               lambda: feasibility.conjugate_is_b_channel(uni, b))
        solved(f"feasibility.conjugate_luders.d{d}",
               lambda: feasibility.conjugate_is_b_channel(lud, b))
        solved(f"feasibility.find_joint.d{d}", lambda: feasibility.find_joint_observable(a, b))

    for d in PINNED_DIMS:
        # ceil(d / 4) columns: the least rank at which four effects can
        # sum to the identity, and marginals of rank below d
        a, b = marginals(random_joint(np.random.default_rng(d), d, cols=-(-d // 4)))
        uni = sequential.universal_channel(a)
        solved(f"feasibility.conjugate_universal_pinned.d{d}",
               lambda: feasibility.conjugate_is_b_channel(uni, b))
        solved(f"feasibility.find_joint_pinned.d{d}",
               lambda: feasibility.find_joint_observable(a, b))

    lud = channels.luders(qubit_binary(0.8, AXIS_Z))
    refinement = four_outcome_refinement(0.8)
    solved("feasibility.conjugate_luders_refinement.d2",
           lambda: feasibility.conjugate_is_b_channel(lud, refinement))
    tilted = np.array([math.sin(math.pi / 8), 0.0, math.cos(math.pi / 8)])
    a, b = qubit_binary(0.95, AXIS_Z), qubit_binary(0.95, tilted)
    solved("feasibility.find_joint_infeasible.d2",
           lambda: feasibility.find_joint_observable(a, b))

    for d in DIMS:
        for command, argv in command_lines(os.path.join(workdir, f"d{d}"), d).items():
            code = run_cli(cli.main, argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}, expected 0")
            timed(f"cli.{command}.d{d}", lambda argv=argv: run_cli(cli.main, argv), "ms")
    timed("cli.selftest-duality",
          lambda: run_cli(cli.main, ["selftest", "--only", "duality"]), "ms")
    timed("cli.build_parser", cli.build_parser)
    rng = np.random.default_rng(0)
    for n in SIDES:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        doc = json.loads(json.dumps(serialize.matrix_to_json(m)))
        timed(f"serialize.matrix_to_json.{n}", lambda m=m: serialize.matrix_to_json(m))
        timed(f"serialize.matrix_from_json.{n}", lambda doc=doc: serialize.matrix_from_json(doc))
    return rows


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Reduce the runs of the two trees, round by round ({row name: (unit,
    value)} each), to one row each: the minimum of either side, the median
    over rounds of change / parent, and the rounds change won."""
    names = set(change[0])
    for run in parent + change:
        if set(run) != names:
            raise ValueError(f"rows on one side only: {sorted(names ^ set(run))}")
    rows = {}
    for name, (unit, _) in change[0].items():
        pairs = [(p[name][1], c[name][1]) for p, c in zip(parent, change, strict=True)]
        rows[name] = {
            "unit": unit,
            "parent": min(p for p, _ in pairs),
            "change": min(c for _, c in pairs),
            "ratio": round(statistics.median(c / p for p, c in pairs), 3),
            "wins": sum(c < p for p, c in pairs),
        }
    return rows


def machine() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": "1",
        "date": time.strftime("%Y-%m-%d"),
    }


def git(*argv: str) -> bytes:
    done = subprocess.run(["git", "-C", ROOT, *argv], capture_output=True)
    if done.returncode != 0:
        raise SystemExit(f"git {' '.join(argv)}: {done.stderr.decode().strip()}")
    return done.stdout


def single(tree: str) -> dict:
    """One `--single` run of the script in `tree`, with BLAS on one thread."""
    env = os.environ | {key: "1" for key in BLAS_THREADS}
    done = subprocess.run([sys.executable, os.path.join(tree, "scripts", "bench_layers.py"),
                           "--single"], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"--single in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="the revision to compare the working tree with (default HEAD)")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    parser.add_argument("--single", action="store_true",
                        help="make one run in this process and print its rows as JSON")
    args = parser.parse_args()
    if args.single:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        with tempfile.TemporaryDirectory(prefix="bench-layers-") as workdir:
            json.dump(measure(workdir), sys.stdout)
        return 0

    commit = git("rev-parse", "--verify", f"{args.against}^{{commit}}").decode().strip()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-against-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-against-") as change:
        subprocess.run(["tar", "-x", "-C", parent], input=git("archive", commit), check=True)
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(change, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees = {"parent": parent, "change": change}
        for tree in trees.values():
            os.makedirs(os.path.join(tree, "scripts"), exist_ok=True)
            shutil.copy(__file__, os.path.join(tree, "scripts", "bench_layers.py"))
        for i in range(RUNS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(single(trees[side]))
    rows = compare(runs["parent"], runs["change"])

    doc = {
        "script": "scripts/bench_layers.py",
        "clock": f"per row, the minimum over {RUNS} fresh processes of the median CPU "
                 "time of one call; ratio is the median of change / parent over the "
                 "rounds, and wins the rounds in which change was lower",
        "columns": {"parent": f"{args.against} ({commit})", "change": "working tree"},
        "machine": machine(),
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"{'row':44s} {'parent':>12s} {'change':>12s} {'ratio':>6s} wins")
    for name, row in rows.items():
        print(f"{name:44s} {row['parent']:12.4f} {row['change']:12.4f} {row['ratio']:6.3f} "
              f"{row['wins']}/{RUNS} {row['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
