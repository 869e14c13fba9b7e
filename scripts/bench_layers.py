"""Median per-call CPU times of the observable, channel and sequential layers.

    python scripts/bench_layers.py --column NAME [--out BENCH_layers.json]

Times, in one process, at input dimension d = 2 and 8, on a random
full-rank 2 x 2 joint observable M on C^d, on the universal channel of its
first marginal A (two Kraus operators into the dilation space) and on the
Luders channel of A:

- `povm`: building M from its (label, effect) pairs, its `marginal` on
  axis 0, `validate`, and `post_process` with a 4 x 3 stochastic kernel;
- `serialize`: `povm_to_json` of M;
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
  sweep 16, the longest solve of the Busch grid).  Each has a `.sweeps`
  row next to its time: the solver sweeps of one call, which do not
  depend on the machine.

Each figure is the minimum over RUNS fresh processes of the median CPU
time of one call over 15 batches (`bench_cli.per_call`): on a shared
guest one process can run at half the speed of the next, so a single run
can show a 2x change that is not there.  The processes run one after the
other with BLAS pinned to one thread, so that CPU time counts no idle
BLAS threads.  `--single` makes one such run in this process and prints
its rows as JSON.  The results go into column NAME and columns already
in the file are kept.  The script calls only public entry points, so a
copy of it and of `bench_cli.py` runs unchanged in a checkout of an
older commit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

from bench_cli import ROOT, machine, per_call, random_joint, write_column

DIMS = (2, 8)
PINNED_DIMS = (3, 8)
RUNS = 5
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def measure() -> dict:
    import numpy as np
    from seqmeas import channels, dilation, feasibility, sequential
    from seqmeas.povm import (
        AXIS_Z, Povm, four_outcome_refinement, marginal, marginals, post_process,
        qubit_binary, validate,
    )
    from seqmeas.serialize import povm_to_json

    rows = {}

    def timed(name: str, fn) -> None:
        rows[name] = ("us", round(per_call(fn) * 1e6, 3))

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
        timed(f"serialize.povm_to_json.d{d}", lambda: povm_to_json(joint))
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
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--column", help="name of this run's column")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    parser.add_argument("--single", action="store_true",
                        help="make one run in this process and print its rows as JSON")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.single:
        json.dump(measure(), sys.stdout)
        return 0
    if args.column is None:
        parser.error("--column is required")

    env = os.environ | {key: "1" for key in BLAS_THREADS}
    runs = [
        json.loads(subprocess.run([sys.executable, __file__, "--single"], env=env,
                                  capture_output=True, text=True, check=True).stdout)
        for _ in range(RUNS)
    ]
    rows = {name: (unit, min(run[name][1] for run in runs))
            for name, (unit, _) in runs[0].items()}
    info = machine() | {"blas_threads": "1",
                        "runs": f"per-row minimum of {RUNS} fresh-process runs"}
    write_column(args.out, "scripts/bench_layers.py", args.column, info, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
