"""Trace and metrics export: JSONL trace files and JSON metrics snapshots.

This is the one module in the package allowed to read wall-clock time
(repro-lint D104 allowlists exactly this file): the meta header of an
exported trace stamps ``exported_at`` so flight recordings can be ordered
across runs.  Span timestamps themselves stay monotonic offsets — they are
only comparable *within* one trace file.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List

from repro.obs.trace import SpanRecord

#: bumped when the JSONL layout changes; the report CLI checks it
FORMAT_VERSION = 1


def export_jsonl(spans: List[SpanRecord], path: str) -> str:
    """Write spans as JSON-lines with a leading meta record; returns ``path``."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    meta = {
        "type": "meta",
        "format_version": FORMAT_VERSION,
        "exported_at": time.time(),
        "spans": len(spans),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    return path


def export_metrics(snapshot: Dict[str, Any], path: str) -> str:
    """Write one metrics snapshot (the mergeable dict layout) as JSON."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    payload = {
        "type": "metrics",
        "format_version": FORMAT_VERSION,
        "exported_at": time.time(),
        "snapshot": snapshot,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def load_trace(path: str) -> List[SpanRecord]:
    """Read a trace JSONL back into span records (meta lines skipped)."""
    spans: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("type") == "meta":
                version = payload.get("format_version")
                if version != FORMAT_VERSION:
                    raise ValueError(
                        f"{path}: trace format_version {version!r} unsupported "
                        f"(expected {FORMAT_VERSION})"
                    )
                continue
            spans.append(SpanRecord.from_dict(payload))
    return spans
