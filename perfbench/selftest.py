#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about 15 s on 2 cores).

Usage: python3 perfbench/selftest.py

* Runs all three workloads end to end, untraced and traced, and checks
  that every metric BENCHMARK.json names is printed with its unit.
* Runs one seed twice (equal digests and quality) and another seed
  (different corpus).
* Feeds deliberately corrupted pool and selection files to the checks
  and expects each corruption to be caught.
* Runs the benchmark in a directory holding only BENCHMARK.json and the
  benchmark's own files and expects it to fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import common

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = common.ROOT / ".perfbench_work" / "selftest"


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, seed: int, trace: int, cwd: Path = common.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def result_of(proc) -> tuple[dict, dict]:
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def test_workloads() -> None:
    for workload in common.WORKLOADS:
        for trace, listed in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            result, record = result_of(bench(workload, 1, trace))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {record['problems']}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            expect(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{name} is not a number")
            if trace:
                expect(record["layers"]["dominant_layer"] in record["layers"]["self_s_by_layer"],
                       "dominant layer missing")
        print(f"ok {workload}: all metrics present with their units")


def test_determinism() -> None:
    _, a = result_of(bench("sample_rank", 3, 0))
    _, b = result_of(bench("sample_rank", 3, 0))
    _, c = result_of(bench("sample_rank", 4, 0))
    expect(a["digests"] == b["digests"], "same seed gave different artifacts")
    expect(a["quality"] == b["quality"], "same seed gave different quality")
    expect(a["corpus_sha256"] != c["corpus_sha256"], "another seed gave the same corpus")
    print("ok determinism: same seed same bytes, new seed new corpus")


def test_checks_catch_corruption() -> None:
    common.import_titlegen()
    import checks
    import corpus
    from titlegen import cli

    work = SCRATCH / "corrupt"
    work.mkdir(parents=True)
    w = common.workload("sample_rank", "tiny")
    corpus.synthesize(w.corpus_posts, w.corpus_topics, 5, work / "raw.jsonl")
    for _, argv in common.setup_chain(w, 5, work):
        expect(cli.main(argv) == 0, f"{argv[0]} failed")
    test = (work / "splits" / "test.jsonl").read_text(encoding="utf-8").splitlines()[:2]
    (work / "chunk.jsonl").write_text("\n".join(test) + "\n", encoding="utf-8")
    ids = [json.loads(line)["id"] for line in test]
    for _, argv in common.chain(w, 5, work, work, work / "chunk.jsonl"):
        expect(cli.main(argv) == 0, f"{argv[0]} failed")
    pools, sels = work / "pools.jsonl", work / "selected.jsonl"
    m = w.num_samples
    expect(not checks.check_pools(pools, ids, m, w.max_length), "clean pools rejected")
    expect(not checks.check_selections(sels, pools, ids, w.k, "mmns"), "clean selections rejected")
    expect(not checks.check_report(work / "report.json", ids, [1, 3, 5]), "clean report rejected")

    rows = [json.loads(line) for line in pools.read_text(encoding="utf-8").splitlines()]

    def corrupted(edit) -> Path:
        bad = [json.loads(json.dumps(r)) for r in rows]
        edit(bad[0])
        bad[0]["candidate_strings"] = [" ".join(c) for c in bad[0]["candidates"]]
        path = work / "bad_pools.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in bad), encoding="utf-8")
        return path

    cases = {
        "dropped candidate": lambda r: r["candidates"].pop(),
        "reserved marker": lambda r: r["candidates"][0].append("</s>"),
        "over max_length": lambda r: r["candidates"].__setitem__(1, ["x"] * (w.max_length + 1)),
    }
    for label, edit in cases.items():
        caught = checks.check_pools(corrupted(edit), ids, m, w.max_length)
        expect(caught == {ids[0]}, f"corrupted pool ({label}) not caught: {caught}")
    sel_rows = [json.loads(line) for line in sels.read_text(encoding="utf-8").splitlines()]
    sel_rows[1]["titles"][0] += " extra"
    bad_sels = work / "bad_selected.jsonl"
    bad_sels.write_text("".join(json.dumps(r) + "\n" for r in sel_rows), encoding="utf-8")
    caught = checks.check_selections(bad_sels, pools, ids, w.k, "mmns")
    expect(caught == {ids[1]}, f"title not matching its candidate not caught: {caught}")
    print("ok checks: corrupted pools and selections are caught")


def test_no_program() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in BENCH["paths"]:
        shutil.copytree(common.ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sample_rank", 1, 0, cwd=bare)
    expect(proc.returncode != 0, "benchmark succeeded without the program")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without the program")
    print("ok bare directory: exits", proc.returncode, "without a result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        test_workloads()
        test_determinism()
        test_checks_catch_corruption()
        test_no_program()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
