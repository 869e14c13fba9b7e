"""Median in-process latencies of the `seqmeas` CLI and of its JSON layer.

    python scripts/bench_cli.py --column NAME [--out BENCH_cli.json]

Times, in one process:

- each command (`validate`, `joint`, `universal`, `conjugate-test`,
  `nondisturb`, `dilate`) through `seqmeas.cli.main` on documents of
  dimension 2 and 8, and `selftest --only duality`;
- `seqmeas.cli.build_parser`, as `main` calls it;
- `seqmeas.serialize.matrix_to_json` and `matrix_from_json` at sides 2, 8
  and 24.

Each figure is the median, over 15 batches, of the CPU time of one call; a
batch repeats the call until it has run for at least 5 ms.  Every item is
called once before it is timed, so the figures are those of a process that
has already made one CLI call.

The results go into column NAME of the output file; columns already there
are kept, so running this script at two commits on one machine builds a
before/after table.  It times the `src/` beside its own directory and calls
only public entry points, so a copy of it runs unchanged in a checkout of
an older commit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_BATCH_S = 5e-3
REPEATS = 15
DIMS = (2, 8)
SIDES = (2, 8, 24)


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


def random_pair(rng, d: int):
    """Marginals of `random_joint`."""
    from seqmeas.povm import marginals

    return marginals(random_joint(rng, d))


def write_documents(where: str, d: int) -> dict:
    import numpy as np
    from seqmeas.channels import luders
    from seqmeas.povm import AXIS_X, AXIS_Z, qubit_binary
    from seqmeas.serialize import channel_to_json, povm_to_json

    if d == 2:
        a, b = qubit_binary(0.8, AXIS_Z), qubit_binary(0.5, AXIS_X)
    else:
        a, b = random_pair(np.random.default_rng(d), d)
    os.makedirs(where, exist_ok=True)
    paths = {}
    for name, doc in (("a", povm_to_json(a)), ("b", povm_to_json(b)),
                      ("luders", channel_to_json(luders(a)))):
        paths[name] = os.path.join(where, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    return paths


def command_lines(where: str, p: dict) -> dict:
    out = os.path.join(where, "out")
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
    import numpy as np
    from seqmeas import cli, serialize

    rows = {}

    def timed(name: str, unit: str, fn) -> None:
        scale = {"ms": 1e3, "us": 1e6}[unit]
        rows[name] = (unit, round(per_call(fn) * scale, 4))

    for d in DIMS:
        where = os.path.join(workdir, f"d{d}")
        os.makedirs(os.path.join(where, "out"))
        for command, argv in command_lines(where, write_documents(where, d)).items():
            code = run_cli(cli.main, argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}, expected 0")
            timed(f"cli.{command}.d{d}", "ms", lambda argv=argv: run_cli(cli.main, argv))
    timed("cli.selftest-duality", "ms",
          lambda: run_cli(cli.main, ["selftest", "--only", "duality"]))
    timed("cli.build_parser", "us", cli.build_parser)

    rng = np.random.default_rng(0)
    for n in SIDES:
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        doc = json.loads(json.dumps(serialize.matrix_to_json(m)))
        timed(f"serialize.matrix_to_json.{n}", "us", lambda m=m: serialize.matrix_to_json(m))
        timed(f"serialize.matrix_from_json.{n}", "us",
              lambda doc=doc: serialize.matrix_from_json(doc))
    return rows


def machine() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "date": time.strftime("%Y-%m-%d"),
    }


def write_column(path: str, script: str, column: str, info: dict, rows: dict) -> None:
    """Put `rows` ({name: (unit, value)}) into column `column` of the JSON
    table at `path`, keeping the columns already there, and print them."""
    doc = {"script": script, "clock": "median CPU time of one call",
           "columns": {}, "rows": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["columns"][column] = info
    for name, (unit, value) in rows.items():
        doc["rows"].setdefault(name, {"unit": unit})[column] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, (unit, value) in rows.items():
        print(f"{name:34s} {value:12.4f} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--column", required=True, help="name of this run's column")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_cli.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workdir = tempfile.mkdtemp(prefix="bench-cli-")
    try:
        rows = measure(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_column(args.out, "scripts/bench_cli.py", args.column, machine(), rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
