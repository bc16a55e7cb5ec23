"""The determinism ledger: counts that must repeat exactly for one seed.

Each run writes its ledger under ``.e2ebench_out/ledger/`` in the
checkout, keyed by workload, seed and a digest of the program and
benchmark sources.  A later run of the same code with the same seed
compares its ledger with the stored one; any difference is drift, which
the run reports as a failure, not as noise.  Format counts, cascade
stage counts, delta policies, AMG V-cycles and the ops per burst width
all come from analytic decisions and whole cycles, so nothing timing
dependent belongs here.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List

OUT_DIR = ".e2ebench_out"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for path in sorted((root / top).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check(root: Path, workload: str, seed: int, ledger: Dict[str, object]) -> List[str]:
    """Store ``ledger`` on first sight; otherwise list every drifted key."""
    current = json.loads(json.dumps(ledger, sort_keys=True))
    folder = root / OUT_DIR / "ledger"
    path = folder / f"{workload}-seed{seed}-{source_digest(root)[:16]}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        return [
            f"ledger drift in {key}: {stored.get(key)!r} before, "
            f"{current.get(key)!r} now"
            for key in sorted(set(stored) | set(current))
            if stored.get(key) != current.get(key)
        ]
    folder.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(current, sort_keys=True, indent=1))
    os.replace(partial, path)
    return []
