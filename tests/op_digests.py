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
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def op_digests(checkout, workload: str, seed: int, cycles: int) -> list[str]:
    """The lines ``main`` prints: one ``id command model sha256`` per op."""
    src = (Path(checkout) / "src").resolve()
    for path in (str(src), str(ROOT / "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    from gainlab import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"gainlab was already imported from {cli.__file__}, not from {src}")
    lines = []
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
                record = json.dumps([code, out.getvalue(), err.getvalue()])
                digest = hashlib.sha256(record.encode()).hexdigest()
                lines.append(f"{op.op_id} {op.command} {op.model} {digest}")
        finally:
            os.chdir(here)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the gainlab checkout whose src/ runs the ops")
    parser.add_argument("--workload", default="gain-report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=3)
    args = parser.parse_args(argv)
    print("\n".join(op_digests(args.checkout, args.workload, args.seed, args.cycles)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
