"""One benchmark pass in a fresh process: ``python3 child.py SPEC.json``.

The spec names the checkout's ``src`` directory, the ``chordfuse``
argument lists to run in order, whether to trace, and where to write the
result.  The result file holds the pass's wall time and the process's
peak resident set; a traced pass also writes its spans as JSONL.  The
parent sets the BLAS thread variables before this process starts.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from chordfuse import cli

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
    start = time.perf_counter()
    codes = [cli.main(argv) for argv in spec["argvs"]]
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.unwrap()
        tracer.write_jsonl(Path(spec["spans"]))
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "exit_codes": codes}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
