#!/usr/bin/env python3
"""Summarise benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py RUNS_DIR [NEW_RUNS_DIR]

Each directory holds run records written by ``perfbench/run.py`` (they
land in ``perfbench/out/runs/``; move them aside to keep sets apart).  For
every workload and end-to-end metric it prints the median, the quartile
spread as a share of the median, and the bound from ``BENCHMARK.json``.
With two sets it also prints the change of each median and flags a change
worse than the bound.

It refuses (exit 2) to mix runs made on different backends, and treats
runs of one seed whose work counts differ as a benchmark error (exit 2).
Exit 1 means a spread or a change exceeded its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def check_work(records: list[dict], label: str) -> list[str]:
    """Runs of the same workload, seed and trace flag must count the same work."""
    seen: dict[tuple, dict] = {}
    errors = []
    for rec in records:
        meta = rec["meta"]
        key = (meta["workload"], meta["seed"], meta["trace"])
        if key in seen and seen[key] != rec["work"]:
            errors.append(f"{label}: work counts differ for workload {key[0]} seed {key[1]}")
        seen.setdefault(key, rec["work"])
    return errors


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    dirs = (argv if argv is not None else sys.argv[1:])
    if len(dirs) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in dirs]
    backends = {rec["meta"]["backend"] for records in sets for rec in records}
    if len(backends) > 1:
        print(f"refusing to compare runs made on different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    errors = [e for d, records in zip(dirs, sets) for e in check_work(records, d)]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        print(f"{workload}:")
        medians = []
        for d, records in zip(dirs, sets):
            runs = [r for r in records
                    if r["meta"]["workload"] == workload and r["meta"]["trace"] == 0]
            values = defaultdict(list)
            for rec in runs:
                for name, value in rec["metrics"].items():
                    values[name].append(value)
            medians.append({k: statistics.median(v) for k, v in values.items()})
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                v = values.get(name, [])
                if len(v) < 2:
                    print(f"  {d}: {name}: {len(v)} runs")
                    continue
                s = spread(v)
                flag = "" if s <= bound or name == "setup_s" else "  SPREAD ABOVE BOUND"
                status |= bool(flag)
                print(f"  {d}: {name}: {len(v)} runs, median {statistics.median(v):.6g} "
                      f"{metric['unit']}, spread {s:.4f} (bound {bound}){flag}")
        if len(dirs) == 2:
            for metric in bench["end_to_end"]:
                name = metric["name"]
                if name not in medians[0] or name not in medians[1]:
                    continue
                old, new = medians[0][name], medians[1][name]
                worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
                flag = "  REGRESSION" if worse > metric["bound"] else ""
                status |= bool(flag)
                print(f"  change {name}: {old:.6g} -> {new:.6g} ({(new - old) / old:+.2%}, "
                      f"{metric['better']} is better){flag}")
            works = [{(r["meta"]["seed"], r["meta"]["trace"]): r["work"] for r in records
                      if r["meta"]["workload"] == workload} for records in sets]
            for key in sorted(works[0].keys() & works[1].keys()):
                if works[0][key] != works[1][key]:
                    print(f"  work differs at seed {key[0]} trace {key[1]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
