"""Names of deleted code paths stay deleted.

The sweep fabric, medium batching, the numpy contention twin and trial
sharding were removed together with their modules, env knobs, CLI flags
and benches.  A leftover mention — a doc recipe, a CI step, a help string
— points users at something that no longer exists, so every text file the
project ships is scanned for those names.

``perfbench/`` is excluded: it is the frozen benchmark harness and keeps
its stale mentions until the next change to the benchmark.  The change
log and roadmap name the deleted paths on purpose.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main

ROOT = Path(__file__).resolve().parent.parent

#: Directories and top-level files a user or CI reads.
SCANNED = (
    "src",
    "tests",
    "benchmarks",
    "examples",
    ".github",
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "pyproject.toml",
)

DEAD_NAMES = (
    # The distributed sweep fabric.
    "repro.fabric",
    "REPRO_FABRIC",
    "--fabric",
    "_dispatch_or_fabric",
    "fabric_overhead",
    # Medium batching, the numpy contention twin and trial sharding.
    "REPRO_MEDIUM_BATCH",
    "REPRO_MEDIUM_VECTOR",
    "REPRO_CONTENTION_VECTOR",
    "contention_vec",
    "REPRO_SHARD_OVERCOMMIT",
)


def _scanned_files():
    this_file = Path(__file__).resolve()
    for entry in SCANNED:
        path = ROOT / entry
        candidates = path.rglob("*") if path.is_dir() else [path]
        for candidate in candidates:
            if (
                candidate.is_file()
                and "__pycache__" not in candidate.parts
                and candidate.resolve() != this_file
            ):
                yield candidate


@pytest.fixture(scope="module")
def texts():
    found = {}
    for path in _scanned_files():
        try:
            found[path.relative_to(ROOT).as_posix()] = path.read_text(
                encoding="utf-8"
            )
        except UnicodeDecodeError:
            continue  # binary artefact, not prose or code
    return found


def test_scan_covers_the_project(texts):
    assert "src/repro/__main__.py" in texts
    assert "README.md" in texts
    assert not any(name.startswith("perfbench/") for name in texts)


@pytest.mark.parametrize("name", DEAD_NAMES)
def test_dead_name_is_gone(texts, name):
    hits = [
        f"{path}:{number}"
        for path, text in sorted(texts.items())
        for number, line in enumerate(text.splitlines(), start=1)
        if name in line
    ]
    assert hits == [], f"{name!r} is deleted but still named at {hits}"


def test_cli_rejects_the_fabric_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table2", "--fabric", "local"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
