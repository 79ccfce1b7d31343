"""Gate micro-benchmark regressions against the committed baseline.

Usage::

    pytest benchmarks/bench_micro.py --benchmark-only \
        --benchmark-json=fresh.json
    python benchmarks/compare_baseline.py fresh.json [more-fresh.json ...] \
        [--baseline baseline.json] [--against-run base.json ...] \
        [--json comparison.json]

Several fresh files (sessions of the same tree) are merged by taking
each benchmark's smallest ``min``.

``--against-run`` (repeatable) takes the reference numbers from
pytest-benchmark runs of another tree — in CI, the merge-base, run on
the same host and interleaved with the fresh sessions — instead of the
committed baseline's absolute numbers.  The gated list, the
``max_regression`` bound and the relative gates still come from the
baseline file, so this compares like with like and loosens nothing.
A benchmark the reference run lacks (new in this tree) is reported and
not gated.

``--json`` additionally writes the full comparison (per-benchmark ratios
and gate verdicts) as machine-readable JSON — CI uploads it as a
workflow artifact so regressions can be inspected without re-running.

Compares each benchmark's ``min`` (the most machine-noise-resistant
statistic) against ``benchmarks/baseline_micro.json``.  Exits non-zero
when any *gated* benchmark regressed beyond the baseline's
``max_regression`` ratio; other benchmarks are reported but only warn,
since absolute timings vary across CI hosts.

The baseline's ``relative_gates`` entries (``[candidate, reference,
max_ratio]``) compare two benchmarks *within the same fresh run* — both
measured on the same host seconds apart, so a tight ratio holds where an
absolute cross-host gate would flake.  The tracer-off overhead gate
(``test_runtime_task_throughput_tracer_off`` within 2% of
``test_runtime_task_throughput``) is enforced this way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

DEFAULT_BASELINE = Path(__file__).parent / "baseline_micro.json"


def load_runs(paths: Sequence[str]) -> Dict[str, dict]:
    """Benchmark name -> stats, with each ``min`` the least over ``paths``
    (pytest-benchmark ``--benchmark-json`` files)."""
    merged: Dict[str, dict] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for bench in json.load(fh)["benchmarks"]:
                name, stats = bench["name"], bench["stats"]
                if name not in merged or stats["min"] < merged[name]["min"]:
                    merged[name] = stats
    return merged


def compare(
    fresh_paths: Sequence[str],
    baseline_path: str = str(DEFAULT_BASELINE),
    json_out: Optional[str] = None,
    against_run: Sequence[str] = (),
) -> int:
    """Return a process exit code: 0 when no gated benchmark regressed."""
    fresh = load_runs(fresh_paths)
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)

    threshold = baseline["max_regression"]
    gated = set(baseline["gated"])
    if against_run:
        reference = load_runs(against_run)
    else:
        reference = baseline["benchmarks"]
    failures = []
    rows = []
    for name in sorted(baseline["benchmarks"]):
        if name not in fresh:
            print(f"MISSING  {name}: not in fresh results")
            if name in gated:
                failures.append(name)
            continue
        if name not in reference:
            print(f"NEW      {name}: not in the reference run, not compared")
            continue
        base_stats = reference[name]
        ratio = fresh[name]["min"] / base_stats["min"]
        status = "ok"
        if ratio > threshold:
            status = "REGRESSED" if name in gated else "slower (ungated)"
            if name in gated:
                failures.append(name)
        rows.append({
            "benchmark": name,
            "kind": "absolute",
            "baseline_min": base_stats["min"],
            "fresh_min": fresh[name]["min"],
            "ratio": ratio,
            "gate": threshold,
            "gated": name in gated,
            "status": status,
        })
        print(
            f"{status:16s} {name}: min {base_stats['min']:.6g}s -> "
            f"{fresh[name]['min']:.6g}s ({ratio:.2f}x, gate {threshold}x"
            f"{' [gated]' if name in gated else ''})"
        )

    for candidate, reference, max_ratio in baseline.get("relative_gates", []):
        missing = [n for n in (candidate, reference) if n not in fresh]
        if missing:
            print(f"MISSING  relative gate: {', '.join(missing)} not in "
                  "fresh results")
            failures.append(candidate)
            continue
        ratio = fresh[candidate]["min"] / fresh[reference]["min"]
        status = "ok" if ratio <= max_ratio else "REGRESSED"
        if ratio > max_ratio:
            failures.append(candidate)
        rows.append({
            "benchmark": candidate,
            "kind": "relative",
            "reference": reference,
            "fresh_min": fresh[candidate]["min"],
            "reference_min": fresh[reference]["min"],
            "ratio": ratio,
            "gate": max_ratio,
            "gated": True,
            "status": status,
        })
        print(
            f"{status:16s} {candidate} vs {reference}: "
            f"{fresh[candidate]['min']:.6g}s / {fresh[reference]['min']:.6g}s "
            f"({ratio:.3f}x, gate {max_ratio}x [relative])"
        )

    if json_out:
        payload = {
            "baseline": str(baseline_path),
            "against_run": list(against_run),
            "max_regression": threshold,
            "comparisons": rows,
            "failures": failures,
            "ok": not failures,
        }
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\ncomparison written to {json_out}")

    if failures:
        print(f"\nFAIL: gated benchmark(s) regressed: {', '.join(failures)}")
        return 1
    print("\nOK: no gated benchmark regression")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "fresh", nargs="+",
        help="fresh --benchmark-json output(s); min per benchmark",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE),
        help="gate file: gated list, bound, relative gates and (without "
             "--against-run) the reference numbers",
    )
    parser.add_argument(
        "--against-run", action="append", default=[], metavar="BASE.json",
        help="take reference numbers from this --benchmark-json run "
             "instead of the baseline (repeatable; min per benchmark)",
    )
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="also write the comparison as JSON (CI artifact)",
    )
    args = parser.parse_args(argv)
    return compare(
        args.fresh, args.baseline, json_out=args.json_out,
        against_run=args.against_run,
    )


if __name__ == "__main__":
    sys.exit(main())
