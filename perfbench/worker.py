"""One measured pass: a fresh interpreter runs a workload's requests in order.

Reads a JSON spec on stdin: {"src": <dir holding cmtkit>, "requests":
[{"argv": [...], "env": {...}}, ...], "trace": <path for spans or null>}.
Every request goes through cmtkit.cli.main(argv) with its report captured.
Prints one JSON line: import time, per-request time, exit code and report,
peak RSS, the environment and, when traced, per-request layer aggregates.

After the import and after every request the pass also times fixed
reference work ("reference_s"), so that the parent can tell how fast the
core ran around each timing.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median


def _python_loop() -> None:
    table = {}
    acc = 0
    for i in range(40_000):
        table[i & 1023] = acc
        acc += i * i % 7


def _numpy_elimination(np, a) -> None:
    a = a.copy()
    for r in range(30):
        a[r + 1:] -= np.outer(a[r + 1:, r], a[r])
        np.mod(a, 7, out=a)


def _objects() -> None:
    items = [(i * 7919 % 10007, frozenset((i, i + 1, i * 3))) for i in range(8_000)]
    items.sort(key=lambda item: item[0])
    {key: value for value, key in items}


def reference() -> list[float]:
    """Seconds for fixed interpreter-bound, numpy-bound and allocation-bound
    work, median of 3 each."""
    import numpy as np
    a = np.arange(200 * 200, dtype=np.int64).reshape(200, 200) % 7
    out = []
    for work in (_python_loop, lambda: _numpy_elimination(np, a), _objects):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        out.append(median(times))
    return out


def main() -> None:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    cli = importlib.import_module("cmtkit.cli")
    import_s = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"cmtkit imported from {cli.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)

    results = []
    refs = [reference()]
    for i, req in enumerate(spec["requests"]):
        if tracer is not None:
            tracer.request = i
        os.environ.update(req["env"])
        out = io.StringIO()
        error = None
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(req["argv"])
        except Exception as e:  # a crash is a failed request, not a crashed run
            traceback.print_exc()
            error = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
        for key in req["env"]:
            del os.environ[key]
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        results.append({"seconds": seconds, "exit_code": code, "report": report,
                        "error": error})
        refs.append(reference())

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    linalg = importlib.import_module("cmtkit.linalg")
    numpy = importlib.import_module("numpy")
    doc = {
        "import_s": import_s,
        "reference_s": refs,
        "rss_mb": rss_mb,
        "requests": results,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "numba_importable": importlib.util.find_spec("numba") is not None,
                "backend": linalg.active_backend()},
    }
    if tracer is not None:
        layers = tracer.layers()
        doc["layers"] = [layers.get(i, {}) for i in range(len(results))]
        tracer.write(spec["trace"])
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
