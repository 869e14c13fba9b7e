"""One line per solver run, for checking that a change keeps every verdict.

    python scripts/solve_log.py [--seed N] [--out FILE]

Wraps `seqmeas.feasibility._solve`, then runs `harness.run_checks(seed=0)`
and one round of each perfbench workload (joint-grid, universality,
luders-channel, cli-session) built at `--seed` (default 0), asking every
question untraced.  Each solve that returns an outcome writes one line:

    caller grid dim status reason iterations repr(residual) repr(floor)

where caller is the outermost public `feasibility` function on the stack
and floor is the outcome's `infeasibility_floor`.  A line `# <section>`
opens the solves of each section.

    python scripts/solve_log.py --compare OLD NEW

compares two such logs, written at two commits, section by section: it
prints every solve whose caller, grid, status, reason or sweep count moved,
and the largest relative move |new - old| / max(|old|, |new|) of the
residual and of the floor, and exits 1 if any solve moved other than in
its residual or floor (or a section gained or lost solves), else 0.

The script imports perfbench read-only: it writes no bytecode and keeps
the workloads' work files in a temporary directory outside the repo.
"""

from __future__ import annotations

import argparse
import math
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


def _sections(path: str) -> dict[str, list[tuple[str, list[str]]]]:
    """The log's solves by section, each as its line and its fields; the
    grid is one field, though its repr may hold spaces."""
    sections: dict[str, list[tuple[str, list[str]]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                solves = sections.setdefault(line[2:], [])
            else:
                caller, rest = line.split(" ", 1)
                grid, rest = rest.split(") ", 1)
                solves.append((line, [caller, grid + ")", *rest.split(" ")]))
    return sections


def _relative_move(old: str, new: str) -> float:
    if old == new:
        return 0.0
    if "None" in (old, new):
        return math.inf
    a, b = float(old), float(new)
    return abs(b - a) / max(abs(a), abs(b))


def compare(old_path: str, new_path: str) -> int:
    """Print how the solves of log NEW moved from those of log OLD; 1 if
    any moved other than in its residual or floor, else 0."""
    old, new = _sections(old_path), _sections(new_path)
    moved = False
    for name in dict.fromkeys([*old, *new]):
        before, after = old.get(name, []), new.get(name, [])
        print(f"# {name}: {len(before)} -> {len(after)} solves")
        if len(before) != len(after):
            moved = True
            continue
        shifted = 0
        # per field: how many solves it moved on, and the largest move
        largest = {"residual": [0, 0.0, ""], "floor": [0, 0.0, ""]}
        for (line_a, a), (line_b, b) in zip(before, after):
            if a[:6] != b[:6]:
                shifted += 1
                print(f"  - {line_a}\n  + {line_b}")
            for (field, top), i in zip(largest.items(), (6, 7)):
                rel = _relative_move(a[i], b[i])
                top[0] += rel > 0.0
                if rel > top[1]:
                    top[1:] = [rel, f" ({a[i]} -> {b[i]})"]
        moved = moved or shifted > 0
        print(f"  verdict, reason or sweeps moved: {shifted}")
        for field, (count, rel, where) in largest.items():
            print(f"  {field} moved: {count}, largest relative move {rel:.3g}{where}")
    return 1 if moved else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--out", default=None, help="log file (default: standard output)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two logs instead of writing one")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)

    lines: list[str] = []
    solve = feasibility._solve

    def logged(grid, dim, *rest):
        out = solve(grid, dim, *rest)
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
