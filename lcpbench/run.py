"""lcpkit benchmark: one workload, one seed, one JSON result line.

    python3 lcpbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (``src/lcpkit`` must exist). The first run
in a tree fits the paper-configuration model for the predict workloads and
keeps it under ``.lcpbench/``, keyed by a hash of the sources that decide it.
Each run then writes its seeded inputs, runs the workload in a fresh
process (lcpbench/workloads.py) and prints readable metric lines, a
``record`` line with hashes and machine facts, and as its last line the
result object. See lcpbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKLOADS = ("train", "predict_batch", "predict_single")
BATCH_ROWS = 3 * gen.CORPUS_ROWS
SINGLE_QUERIES = 2048
RUN_LIMIT_S = 170
PREPARE_LIMIT_S = 700


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def source_sha256(root: Path, files: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD of the tree's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    return env


def ensure_model(root: Path, work: Path, model_key: str) -> Path:
    """Directory with the lexicons and the fitted paper-configuration model."""
    target = work / f"model-{model_key[:16]}"
    if (target / "meta.json").is_file():
        return target
    for stale in work.glob("model-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staging = work / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "prepare.py"), str(staging)],
            cwd=root,
            env=child_env(root),
            check=True,
            timeout=PREPARE_LIMIT_S,
        )
        staging.rename(target)
    except (subprocess.SubprocessError, OSError) as exc:
        if not (target / "meta.json").is_file():  # another run may have won the rename
            fail(f"preparing the predict model failed: {exc}")
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """The workload's seeded inputs; the gold of unlabeled rows goes to gold.json."""
    directory.mkdir(parents=True)
    world = gen.make_world(gen.WORLD_SEED)
    if workload == "train":
        rows = gen.sample_rows(world, gen.CORPUS_ROWS, seed)
        (directory / "corpus.tsv").write_bytes(gen.dataset_tsv(rows, with_gold=True))
        return
    n, name = (BATCH_ROWS, "batch.tsv") if workload == "predict_batch" else (SINGLE_QUERIES, "queries.tsv")
    # A seed of its own per workload, so no query file repeats the training corpus.
    rows = gen.sample_rows(world, n, seed * 4 + WORKLOADS.index(workload), prefix="q")
    (directory / name).write_bytes(gen.dataset_tsv(rows, with_gold=False))
    (directory / "gold.json").write_text(json.dumps([r.gold for r in rows]), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    package = root / "src" / "lcpkit"
    if not (package / "__init__.py").is_file():
        fail(f"no lcpkit sources under {package}; run from the root of the source tree")
    sources = list(package.rglob("*.py"))
    work = root / ".lcpbench"
    work.mkdir(exist_ok=True)
    model_key = source_sha256(root, sources + [BENCH / "gen.py", BENCH / "prepare.py"])
    model_dir = ensure_model(root, work, model_key)

    started = time.monotonic()
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        write_inputs(args.workload, args.seed, run_dir)
        cmd = [
            sys.executable,
            str(BENCH / "workloads.py"),
            "--workload", args.workload,
            "--inputs", str(run_dir),
            "--model-dir", str(model_dir),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--spans", str(work / f"spans-{args.workload}.jsonl"),
        ]
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            child = subprocess.run(
                cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            fail(f"workload {args.workload} did not finish within {RUN_LIMIT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if child.returncode != 0:
        fail(f"workload {args.workload} exited with code {child.returncode}")
    out = json.loads(child.stdout.decode("utf-8").strip().splitlines()[-1])

    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:")
    shown = dict(out["headline"])
    if not args.trace:
        shown["failed_ops_ratio"] = (failed / attempted, "1")
    for name, (value, unit) in {**shown, **out["metrics"]}.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    record = dict(out["record"])
    record.update(
        workload=args.workload,
        seed=args.seed,
        source_sha256=source_sha256(root, sources),
        git_sha=git_sha(root),
        cpu_count=os.cpu_count(),
        machine=platform.machine(),
        predict_model=json.loads((model_dir / "meta.json").read_text(encoding="utf-8")),
    )
    print("record " + json.dumps(record, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
