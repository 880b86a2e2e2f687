"""The timed phase of one benchmark run, in a process of its own so that
its peak resident memory is the timed phase's alone.

Usage (``run.py`` starts it): python3 perfbench/timed.py SPEC.json

It runs rounds of the workload's stage chain through
``titlegen.cli.main`` until the scored rounds are done and ``seconds``
have passed, timing the host-speed probe after each stage. With tracing
on it runs only the scored rounds, each once untraced and once traced,
and writes the spans at the end. The result goes to the spec's
``result`` path as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import common


def run_chain(cli, stages, tracer=None, probes=None) -> dict:
    """Run one round's stages in order; a failing stage ends the round.

    With ``probes``, the host-speed probe runs after each stage and its
    times are appended there; they are left out of the round's wall time.
    """
    done = []
    wall = 0.0
    for stage, argv in stages:
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span(f"cli.{stage}", cli.main, argv)
        except Exception:
            traceback.print_exc()
            rc = -1
        elapsed = perf_counter() - t0
        wall += elapsed
        done.append([stage, rc, elapsed])
        if probes is not None:
            probes.append(common.probe())
        if rc != 0:
            break
    return {"wall": wall, "stages": done}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    common.import_titlegen()
    from titlegen import cli

    import tracing

    w = common.Workload(**spec["workload"])
    work = Path(spec["work"])
    chunks = [Path(p) for p in spec["chunks"]]
    seed, seconds, traced = spec["seed"], spec["seconds"], spec["trace"]
    tracer = tracing.Tracer() if traced else None

    def stages(i: int, prefix: str):
        round_dir = work / f"{prefix}{i}"
        round_dir.mkdir(parents=True, exist_ok=True)
        chunk = chunks[i % len(chunks)] if chunks else None
        return common.chain(w, seed, work, round_dir, chunk)

    rounds, traced_rounds = [], []
    probes = [common.probe()]
    start = perf_counter()
    i = 0
    while i < w.quality_rounds or (not traced and perf_counter() - start < seconds):
        rounds.append(run_chain(cli, stages(i, "round"), probes=probes))
        if traced:
            tracing.install(tracer)
            try:
                traced_rounds.append(run_chain(cli, stages(i, "traced"), tracer))
            finally:
                tracer.restore()
        i += 1
    spans = None
    if traced:
        spans = str(work / "spans-timed.json")
        tracer.dump(spans)
    result = {
        "rounds": rounds,
        "traced_rounds": traced_rounds,
        "probes": probes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
