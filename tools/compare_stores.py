#!/usr/bin/env python3
"""Assert two result stores are bit-identical, point for point.

The farm's acceptance bar (see ``docs/campaign-farm.md``): a
multi-process ``repro campaign run --workers N`` must produce a store
whose per-point ``config_hash`` and ``RunSummary`` dicts exactly equal
an in-process ``repro campaign run`` of the same spec. CI runs both over
the committed smoke spec and diffs them with this tool.

Usage::

    PYTHONPATH=src python tools/compare_stores.py STORE_A STORE_B

Exit status: 0 when every point matches (keys, config hashes, statuses
and summaries all equal), 1 with a per-point diff on stderr otherwise.
Extra files in either directory (heartbeats, manifests,
``farm.json``) are ignored — only the loaded records are compared.
"""

from __future__ import annotations

import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compare_stores(path_a: str, path_b: str) -> list:
    """Human-readable mismatch descriptions (empty = bit-identical)."""
    from repro.experiments.store import ResultStore

    store_a = ResultStore(path_a, create=False)
    store_b = ResultStore(path_b, create=False)
    records_a = dict(store_a.records())
    records_b = dict(store_b.records())

    problems = []
    for key in sorted(set(records_a) | set(records_b)):
        name = "|".join(str(part) for part in key)
        a, b = records_a.get(key), records_b.get(key)
        if a is None or b is None:
            problems.append(f"{name}: only in "
                            f"{path_b if a is None else path_a}")
            continue
        for field in ("config_hash", "status"):
            if a.get(field) != b.get(field):
                problems.append(f"{name}: {field} differs "
                                f"({a.get(field)!r} vs {b.get(field)!r})")
        if a.get("summary") != b.get("summary"):
            summary_a = a.get("summary") or {}
            summary_b = b.get("summary") or {}
            fields = sorted(
                f for f in set(summary_a) | set(summary_b)
                if summary_a.get(f) != summary_b.get(f))
            problems.append(f"{name}: summary differs in {fields}")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    problems = compare_stores(args[0], args[1])
    for problem in problems:
        print(f"compare stores: {problem}", file=sys.stderr)
    if problems:
        print(f"compare stores: {len(problems)} mismatch(es) between "
              f"{args[0]} and {args[1]}", file=sys.stderr)
        return 1
    from repro.experiments.store import ResultStore
    n = len(dict(ResultStore(args[0], create=False).records()))
    print(f"compare stores: {args[0]} and {args[1]} are bit-identical "
          f"({n} point(s))")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))
    sys.exit(main())
