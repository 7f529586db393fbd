#!/usr/bin/env python3
"""Checks micro_engine's per-row event counts against the reference capture.

    scripts/check_engine_events.py RUN.json [REFERENCE.json]

RUN.json is the JSON-lines output of bench/micro_engine; REFERENCE.json
defaults to BENCH_engine.json at the repository root. A row's `events` is
the number of engine events its workload dispatched, which is deterministic
(it counts work, not time), so a mismatch means the event queue dropped or
duplicated events, or a workload changed without the reference capture
being regenerated. Fails (exit 1) on a mismatched, missing or extra row.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_rows(path: Path) -> dict:
    """Maps each row's bench name to its event count."""
    rows = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            name, events = row["bench"], row["events"]
        except (ValueError, KeyError, TypeError) as err:
            raise SystemExit(f"{path}:{lineno}: not a micro_engine row: {err}")
        if name in rows:
            raise SystemExit(f"{path}:{lineno}: duplicate row {name}")
        rows[name] = events
    return rows


def main(argv: list) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    run_path = Path(argv[1])
    ref_path = Path(argv[2]) if len(argv) == 3 else ROOT / "BENCH_engine.json"
    run, ref = load_rows(run_path), load_rows(ref_path)
    errors = []
    for name, events in ref.items():
        if name not in run:
            errors.append(f"missing row {name}")
        elif run[name] != events:
            errors.append(f"{name}: {run[name]} events, reference {events}")
    errors += [f"extra row {name}" for name in run if name not in ref]
    for err in errors:
        print(f"check_engine_events: {err}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_engine_events: {len(run)} rows match {ref_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
