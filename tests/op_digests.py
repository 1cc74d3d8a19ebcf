"""One SHA-256 per op of a benchmark workload, each op run in process.

    python tests/op_digests.py CHECKOUT --workload gain-report --seed 1 --cycles 3

writes the workload's model files and ops with ``perfbench/workloads.py``
(of the checkout that holds this script, so two checkouts run the same ops),
runs each op through ``gainlab.cli.main`` imported from ``CHECKOUT/src``, and
prints one line per op: its id, command and model file, and the SHA-256 of
its exit code, stdout and stderr.  Each op runs in the directory of the model
files and names its model by file name alone, so no digest depends on where
the files were written.  Two checkouts print the same lines exactly when
every op's output is byte-identical::

    python tests/op_digests.py PARENT --seed 1 > parent.txt
    python tests/op_digests.py . --seed 1 > change.txt
    diff parent.txt change.txt

With ``--against OTHER`` it runs the ops on both checkouts instead, each in
its own process, and prints one line per op whose output differs: its id,
command and model file, then the largest relative change over the numbers of
its output, |new - old| / max(|old|, |new|), with the old and new number
that give it, or ``text`` when the outputs differ outside their numbers::

    python tests/op_digests.py PARENT --against . --seed 1 --cycles 3
"""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark runs.  Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# A decimal number as gainlab prints one (JSON, CSV and messages alike).
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def op_outputs(checkout, workload: str, seed: int, cycles: int) -> list[tuple[str, list]]:
    """(``id command model``, [exit code, stdout, stderr]) for each op."""
    src = (Path(checkout) / "src").resolve()
    for path in (str(src), str(ROOT / "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from gainlab import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"gainlab was already imported from {cli.__file__}, not from {src}")
    outputs = []
    with tempfile.TemporaryDirectory() as work:
        ops = workloads.generate(workload, seed, Path(work), cycles)
        here = os.getcwd()
        os.chdir(work)
        try:
            for op in ops:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(op.argv(Path()))
                    except Exception as exc:  # an op that raises has that as its outcome
                        code = f"raised {type(exc).__name__}: {exc}"
                outputs.append((f"{op.op_id} {op.command} {op.model}", [code, out.getvalue(), err.getvalue()]))
        finally:
            os.chdir(here)
    return outputs


def op_digests(checkout, workload: str, seed: int, cycles: int) -> list[str]:
    """The lines ``main`` prints: one ``id command model sha256`` per op."""
    return [
        f"{name} {hashlib.sha256(json.dumps(record).encode()).hexdigest()}"
        for name, record in op_outputs(checkout, workload, seed, cycles)
    ]


def largest_move(old: str, new: str) -> tuple[float, str, str] | None:
    """(relative change, old number, new number) of the numbers of ``old``
    and ``new`` that moved most, (0, "", "") when they are equal, or None
    when the texts differ outside their numbers."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    best = (0.0, "", "")
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        if a == b:
            continue
        x, y = float(a), float(b)
        size = max(abs(x), abs(y))
        rel = abs(y - x) / size if size not in (0.0, float("inf")) else float(x != y)
        if not rel <= best[0]:
            best = (rel, a, b)
    return best


def compare(old_checkout, new_checkout, workload: str, seed: int, cycles: int) -> list[str]:
    """One line per op whose output differs between the two checkouts."""
    runs = []
    for checkout in old_checkout, new_checkout:
        argv = [sys.executable, __file__, str(checkout), "--workload", workload,
                "--seed", str(seed), "--cycles", str(cycles), "--records"]
        runs.append(json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout))
    lines = []
    for (name, old), (_, new) in zip(*runs):
        if old == new:
            continue
        moves = [largest_move(str(a), str(b)) for a, b in zip(old, new)]
        if any(move is None for move in moves):
            lines.append(f"{name} text")
        else:
            rel, a, b = max(moves)
            lines.append(f"{name} {rel:.3g} ({a} -> {b})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the gainlab checkout whose src/ runs the ops")
    parser.add_argument("--workload", default="gain-report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument("--against", help="a second checkout: list the ops whose outputs moved")
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.against:
        lines = compare(args.checkout, args.against, args.workload, args.seed, args.cycles)
    elif args.records:
        lines = [json.dumps(op_outputs(args.checkout, args.workload, args.seed, args.cycles))]
    else:
        lines = op_digests(args.checkout, args.workload, args.seed, args.cycles)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
