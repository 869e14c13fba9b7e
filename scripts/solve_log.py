"""One line per solver run, for checking that a change keeps every verdict.

    python scripts/solve_log.py [--seed N] [--out FILE]

Wraps `seqmeas.feasibility._solve`, then runs `harness.run_checks(seed=0)`
and one round of each perfbench workload (joint-grid, universality,
luders-channel, cli-session) built at `--seed` (default 0), asking every
question untraced.  Each solve that returns an outcome writes one line:

    caller grid dim status reason iterations repr(residual) repr(floor)

where caller is the outermost public `feasibility` function on the stack
and floor is the outcome's `infeasibility_floor`.  A line `# <section>`
opens the solves of each section.  Running this script at two commits and
diffing the logs shows every solve whose verdict, reason, sweep count or
residual moved.

The script imports perfbench read-only: it writes no bytecode and keeps
the workloads' work files in a temporary directory outside the repo.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402

from seqmeas import feasibility  # noqa: E402
from seqmeas.harness import run_checks  # noqa: E402


def _caller() -> str:
    """The outermost public feasibility function on the stack."""
    frame, name = sys._getframe(2), "?"
    while frame is not None:
        code = frame.f_code
        if code.co_filename == feasibility.__file__ and code.co_name in feasibility.__all__:
            name = code.co_name
        frame = frame.f_back
    return name


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--out", default=None, help="log file (default: standard output)")
    args = parser.parse_args()

    lines: list[str] = []
    solve = feasibility._solve

    def logged(grid, dim, families, opts, labels):
        out = solve(grid, dim, families, opts, labels)
        lines.append(" ".join((
            _caller(), repr(grid), str(dim), out.status, out.reason, str(out.iterations),
            repr(out.residual), repr(out.infeasibility_floor),
        )))
        return out

    feasibility._solve = logged
    try:
        lines.append("# selftest")
        run_checks(seed=0)
        plain = tracing.Tracer(False)
        with tempfile.TemporaryDirectory(prefix="solve-log-") as workdir:
            for name, build in workloads.WORKLOADS.items():
                lines.append(f"# {name}")
                where = os.path.join(workdir, name)
                os.makedirs(where)
                _, units = build(args.seed, where)
                for unit in units:
                    for question in unit:
                        question.ask(plain)
    finally:
        feasibility._solve = solve

    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
