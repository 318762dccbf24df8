"""The report's bytes as a manifest: the SHA-256 of every CSV, the exit code
and the stderr of each run below, made in process through `cli.main`.
stdout is left out, since it carries timings.

`tests/test_byte_manifest.py` compares a fresh set of runs with the
committed `byte_manifest.json`.  A change that moves rows on purpose
regenerates it, and the manifest's diff names the files that moved:

    PYTHONPATH=src python tests/byte_manifest.py

The bytes hold for one machine and numpy version (written with numpy 2.4.6
on x86-64 Linux).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "byte_manifest.json")

# [group] configs: the plane groups of tests/test_suites.py, a loxodromic
# 3-space screw about the vertical axis over 0.5 + 0.5i (trace 2.4 + 0.8i),
# and the trivial group in both dimensions
GROUPS = {
    "plane_cyclic": "[group]\ndim = 2\nfamily = cyclic\ngenerator = 2.0,0,0,0.5\n",
    "plane_schottky": "[group]\ndim = 2\nfamily = schottky\ngenerator = 2,3,1,2\n",
    "screw_off_axis": "[group]\ndim = 3\nfamily = cyclic\n"
                      "generator = 2,1,-0.2,-1.4,0,0,0.4,-0.2\n",
    "trivial_2": "[group]\ndim = 2\nfamily = trivial\n",
    "trivial_3": "[group]\ndim = 3\nfamily = trivial\n",
}

# name -> (argv without --out, [group] config text or None)
RUNS = {
    "report": (["report"], None),
    "report_seed_0": (["report", "--seed", "0"], None),
    "report_seed_7": (["report", "--seed", "7"], None),
    **{f"report_{name}": (["report"], text) for name, text in GROUPS.items()},
    **{f"verify_{suite}{'' if eps is None else '_eps_' + eps}":
       (["verify", suite, *(() if eps is None else ("--epsilon", eps))], None)
       for suite in ("quotient", "theorem2") for eps in (None, "0.1", "0.3")},
}


def run(name: str, workdir: str) -> dict:
    """One run of RUNS in a fresh directory under `workdir`: its exit code,
    stderr and the SHA-256 of each CSV it wrote."""
    from heatlab import cli

    argv, config = RUNS[name]
    base = os.path.join(workdir, name)
    out = os.path.join(base, "out")
    os.makedirs(base)
    argv = [*argv, "--out", out if argv[0] == "report" else os.path.join(out, "rows.csv")]
    if argv[0] == "verify":
        os.makedirs(out)
    if config is not None:
        path = os.path.join(base, "group.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config)
        argv += ["--config", path]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    csvs = {}
    for file in sorted(os.listdir(out)):
        with open(os.path.join(out, file), "rb") as handle:
            csvs[file] = hashlib.sha256(handle.read()).hexdigest()
    return {"exit": code, "stderr": stderr.getvalue(), "csv": csvs}


def collect(workdir: str) -> dict:
    return {name: run(name, workdir) for name in RUNS}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        manifest = collect(workdir)
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(manifest)} runs to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
