#!/usr/bin/env python3
"""Record the quality values each benchmark pass is checked against.

    python3 perfbench/record_reference.py

Runs one pass of every workload on every a1 world it can use and writes
perfbench/reference.json.  Re-record only in a change that means to alter
model quality, and say so there.
"""
import json
import shutil
import tempfile
from pathlib import Path

import run


def main():
    plans = (
        (run.SpectralTrain, [[w] for w in range(run.REFERENCE_WORLDS)]),
        (run.CliPipeline, [[w] for w in range(run.REFERENCE_WORLDS)]),
        (run.Compare, [[run.COMPARE_WORLD]]),
    )
    reference = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        for workload_cls, world_lists in plans:
            values = reference.setdefault(workload_cls.name, {})
            for worlds in world_lists:
                workload = workload_cls(0, scratch, worlds=worlds)
                workload.build()
                _, ops, _ = workload.run_pass()
                for op in ops:
                    if op.error is not None:
                        raise SystemExit(f"{workload_cls.name} {op.key}: {op.error}")
                    if op.values is not None:
                        values[op.key] = op.values
                print(workload_cls.name, worlds, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
