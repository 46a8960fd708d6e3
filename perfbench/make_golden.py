"""Regenerate ``golden.json``: output digests of every live op, per variant.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter results, and say why; the
benchmark counts every run whose outputs differ from these digests as failed.
gridworld-w2 is checked against gridworld's digests, so it needs none.
"""
from __future__ import annotations

import json
import os
import shutil

import run
import workloads


def main() -> int:
    run.load_autotune()
    os.environ.pop("AUTOTUNE_RUN_DIR", None)
    work = os.path.join(run.WORK, f"golden-{os.getpid()}")
    variants = {}
    try:
        for var in range(workloads.N_VARIANTS):
            for name in ("valley", "gridworld"):
                wl = workloads.build(name, var)
                space_path = os.path.join(work, f"{name}.space")
                os.makedirs(work, exist_ok=True)
                with open(space_path, "w", encoding="utf-8") as fh:
                    fh.write(wl.space_text)
                for op in wl.ops:
                    out = os.path.join(work, f"{var}-{name}-{op.name}")
                    rc, _, log, _ = run.call([*op.argv, "--space", space_path, "--out", out])
                    if rc != 0:
                        raise SystemExit(f"variant {var} {name} {op.name}: exit {rc}\n{log}")
                    digests, _ = run.outputs(op, out)
                    v, workload, op_name = op.golden
                    variants.setdefault(str(v), {}).setdefault(workload, {})[op_name] = digests
                    shutil.rmtree(out)
            print(f"variant {var} done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"n_variants": workloads.N_VARIANTS, "variants": variants}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
