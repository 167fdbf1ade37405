"""Maintenance CLI for the trial-result cache.

Usage::

    python -m repro.cache stats  [--cache-dir DIR] [--json]
    python -m repro.cache prune  [--cache-dir DIR] [--max-age-days N]
                                 [--max-bytes N] [--all]
    python -m repro.cache verify [--cache-dir DIR] [--fix]

``stats`` reports entry count and on-disk size; ``prune`` evicts by age
and/or an LRU size budget (cache hits refresh an entry's mtime); ``verify``
re-reads every entry and checks it unpickles and matches its content
address, exiting 1 when problems remain (``--fix`` deletes bad entries,
which is always safe — a deleted entry is just a future miss).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    cache_lock,
    cache_stats,
    prune_cache,
    resolve_cache_dir,
    resolve_cache_max_bytes,
    verify_cache,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect and maintain the trial-result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="entry count and on-disk size")
    stats.add_argument("--json", action="store_true", help="machine-readable output")

    prune = sub.add_parser("prune", help="evict entries by age / size budget")
    prune.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="N",
        help="drop entries older than N days",
    )
    prune.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="then evict least-recently-used entries until the store fits "
        "N bytes (default: $REPRO_CACHE_MAX_BYTES)",
    )
    prune.add_argument(
        "--all", action="store_true", help="drop every entry (full reset)"
    )

    verify = sub.add_parser("verify", help="check every entry against its address")
    verify.add_argument(
        "--fix", action="store_true", help="delete corrupt/misfiled entries"
    )

    for command in (stats, prune, verify):
        command.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
        )
    return parser


def _format_age(mtime, now: float) -> str:
    if mtime is None:
        return "-"
    return f"{(now - mtime) / 3600.0:.1f}h ago"


def main(argv=None) -> int:
    """Command-line entry point."""
    args = _build_parser().parse_args(argv)
    root = resolve_cache_dir(args.cache_dir)

    if args.command == "stats":
        stats = cache_stats(root)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        now = time.time()
        print(f"cache dir : {stats['dir']}")
        print(f"entries   : {stats['entries']}")
        print(f"bytes     : {stats['bytes']}")
        print(f"oldest    : {_format_age(stats['oldest_mtime'], now)}")
        print(f"newest    : {_format_age(stats['newest_mtime'], now)}")
        return 0

    if args.command == "prune":
        max_bytes = resolve_cache_max_bytes(args.max_bytes)
        if not args.all and args.max_age_days is None and max_bytes is None:
            print(
                "prune needs --max-age-days, --max-bytes, --all, or "
                "$REPRO_CACHE_MAX_BYTES",
                file=sys.stderr,
            )
            return 2
        # The maintenance lock serializes concurrent pruners (two runs
        # sharing a cache volume) without blocking readers.
        with cache_lock(root):
            outcome = prune_cache(
                root,
                max_age_s=(
                    None
                    if args.max_age_days is None
                    else args.max_age_days * 86400.0
                ),
                max_bytes=max_bytes,
                drop_all=args.all,
            )
        print(
            f"pruned {outcome['removed']} entr(ies), freed "
            f"{outcome['freed_bytes']} bytes, kept {outcome['kept']}"
        )
        return 0

    # verify
    with cache_lock(root):
        problems = verify_cache(root, fix=args.fix)
    if not problems:
        print(f"cache {root}: all entries verify")
        return 0
    for problem in problems:
        print(problem, file=sys.stderr)
    action = "deleted" if args.fix else "found"
    print(f"{len(problems)} bad entr(ies) {action}", file=sys.stderr)
    return 0 if args.fix else 1


if __name__ == "__main__":
    raise SystemExit(main())
