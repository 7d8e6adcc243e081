"""Machine-readable run reports: one JSON document plus CSV tables.

Reports are reproducible: identical configuration and package version give
byte-identical JSON.  Wall-clock timestamps and timings therefore live in a
separate sidecar file.  Every numeric result carries either an error
estimate or an explicit "exact" marker.  A non-finite number is written as
null, so every report is strict JSON (RFC 8259).
"""

import csv
import datetime
import json
import math
import os

from . import __version__

SCHEMA_VERSION = 1


def measured(value, error):
    return {"value": value, "error": error}


def exact(value):
    return {"value": value, "exact": True}


def _jsonify(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: Python bools are ints
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None  # NaN, +-inf -> null
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


class ReportWriter:
    def __init__(self, out_dir, command, config):
        self.out_dir = out_dir
        self.command = command
        self.document = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "package_version": __version__,
            "config": _jsonify(config.echo()),
            "results": {},
        }
        self._start = datetime.datetime.now(datetime.timezone.utc)
        os.makedirs(out_dir, exist_ok=True)

    def add(self, key, payload):
        self.document["results"][key] = _jsonify(payload)

    def write_csv(self, name, header, rows):
        """Write ``<name>.csv``; every cell, also a dict or list, holds plain numbers."""
        path = os.path.join(self.out_dir, f"{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_jsonify(v) for v in row])
        return path

    def finalize(self):
        path = os.path.join(self.out_dir, f"{self.command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        end = datetime.datetime.now(datetime.timezone.utc)
        sidecar = {
            "command": self.command,
            "started_utc": self._start.isoformat(),
            "finished_utc": end.isoformat(),
            "wall_seconds": (end - self._start).total_seconds(),
        }
        with open(os.path.join(self.out_dir, f"{self.command}.meta.json"), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return path
