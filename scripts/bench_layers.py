"""Median per-call CPU times of the channel and sequential layers.

    python scripts/bench_layers.py --column NAME [--out BENCH_layers.json]

Times, in one process, at input dimension d = 2 and 8, on the universal
channel of the first marginal A of a random full-rank 2 x 2 joint
observable M on C^d (two Kraus operators into the dilation space) and on
the Luders channel of A:

- `channels`: `heisenberg_apply` of one operator and of the stack of the
  two effects of the modified observable B', `apply` to a state, `choi`,
  `conjugate`, `stinespring` and `is_trace_preserving` of the universal
  channel, and `nondisturbing` of the Luders channel on A;
- `sequential`: `universal_channel` of A, `verify_sequential` of B' against
  the other marginal B, and `implemented_joint` of B'.

Where `heisenberg_apply` takes no stack, as at older commits, the stack row
times one call per operator; the column records which form ran.  Timing
and output follow `bench_cli.py`: each figure is the median CPU time of one
call over 15 batches, the results go into column NAME and columns already
in the file are kept.  The script calls only public entry points, so a
copy of it and of `bench_cli.py` runs unchanged in a checkout of an older
commit.
"""

from __future__ import annotations

import argparse
import os
import sys

from bench_cli import ROOT, machine, per_call, random_joint, write_column

DIMS = (2, 8)


def measure() -> tuple[dict, bool]:
    import numpy as np
    from seqmeas import channels, sequential
    from seqmeas.povm import marginals

    rows = {}
    stacked = True

    def timed(name: str, fn) -> None:
        rows[name] = ("us", round(per_call(fn) * 1e6, 3))

    for d in DIMS:
        rng = np.random.default_rng(d)
        joint = random_joint(rng, d)
        a, b = marginals(joint)
        uni = sequential.universal_channel(a)
        lud = channels.luders(a)
        b_prime = sequential.modified_observable(a, joint)
        if not sequential.verify_sequential(uni, b_prime, b):
            raise SystemExit(f"d = {d}: B' does not recover B")
        ts = np.stack(b_prime.effects)
        rho = np.eye(d, dtype=complex) / d
        try:
            channels.heisenberg_apply(uni, ts)
        except ValueError:
            stacked = False

        def dual_of_stack():
            if stacked:
                return channels.heisenberg_apply(uni, ts)
            return [channels.heisenberg_apply(uni, t) for t in ts]

        timed(f"channels.heisenberg_apply.d{d}", lambda: channels.heisenberg_apply(uni, ts[0]))
        timed(f"channels.heisenberg_apply_stack.d{d}", dual_of_stack)
        timed(f"channels.apply.d{d}", lambda: channels.apply(uni, rho))
        timed(f"channels.choi.d{d}", lambda: channels.choi(uni))
        timed(f"channels.conjugate.d{d}", lambda: channels.conjugate(uni))
        timed(f"channels.stinespring.d{d}", lambda: channels.stinespring(uni))
        timed(f"channels.is_trace_preserving.d{d}",
              lambda: channels.is_trace_preserving(uni))
        timed(f"channels.nondisturbing.d{d}", lambda: channels.nondisturbing(lud, a))
        timed(f"sequential.universal_channel.d{d}", lambda: sequential.universal_channel(a))
        timed(f"sequential.verify_sequential.d{d}",
              lambda: sequential.verify_sequential(uni, b_prime, b))
        timed(f"sequential.implemented_joint.d{d}",
              lambda: sequential.implemented_joint(uni, b_prime))
    return rows, stacked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--column", required=True, help="name of this run's column")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    rows, stacked = measure()
    info = dict(machine(), stacked_dual=stacked)
    write_column(args.out, "scripts/bench_layers.py", args.column, info, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
