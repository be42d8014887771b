#!/usr/bin/env python3
"""Generate the accuracy reference for the cilium tip errors.

Run from the root of a rodsim checkout (takes about ten seconds):

    python3 perfbench/make_reference.py

It runs the default driven cilium with the pure scheme to the benchmark's
T_END at dt=1e-4 and dt=5e-5 through ``rodsim simulate``, and stores in
``perfbench/reference.json`` the two tips, their first-order Richardson
extrapolate 2*tip(5e-5) - tip(1e-4) as the reference tip, and
|tip(1e-4) - tip(5e-5)| (max norm) as the reference's own error estimate,
together with the commit and source digest they came from. The benchmark
only reads this file; it never recomputes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run as bench

DTS = (1e-4, 5e-5)


def final_tip(dt, work_dir):
    from rodsim.cli import main

    doc = bench.scenario("pure", dt, stride=10**9)
    config = work_dir / f"reference-{dt!r}.config.json"
    out = work_dir / f"reference-{dt!r}.traj.json"
    config.write_text(json.dumps(doc, indent=2))
    captured = io.StringIO()
    with contextlib.redirect_stderr(captured):
        rc = main(["simulate", str(config), "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"reference run at dt={dt} failed: {captured.getvalue()}")
    traj = json.loads(out.read_text())
    if traj["times"][-1] != bench.T_END:
        raise SystemExit(f"reference run at dt={dt} ended at {traj['times'][-1]}")
    return traj["positions"][-1][0][-1]


def main():
    sys.path.insert(0, str(bench.SRC))
    work_dir = bench.STATE_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    coarse, fine = (final_tip(dt, work_dir) for dt in DTS)
    reference = {
        "command": "python3 perfbench/make_reference.py",
        "scenario": bench.scenario("pure", DTS[0], stride=10**9),
        "t_end": bench.T_END,
        "dts": list(DTS),
        "tips": {repr(DTS[0]): coarse, repr(DTS[1]): fine},
        "reference_tip": [2.0 * f - c for c, f in zip(coarse, fine)],
        "error_estimate": max(abs(c - f) for c, f in zip(coarse, fine)),
        "method": "first-order Richardson extrapolate 2*tip(dt/2) - tip(dt)",
        "git_commit": bench.git_commit(),
        "source_digest": bench.source_digest(),
    }
    bench.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(json.dumps({k: reference[k] for k in ("tips", "reference_tip", "error_estimate")}))


if __name__ == "__main__":
    main()
