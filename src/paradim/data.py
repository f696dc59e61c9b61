"""Access to the embedded data files (CSV/JSON under paradim/data).

The environment variable PARADIM_DATA_DIR overrides the location, which
lets users audit or patch the shipped tables without reinstalling.
"""
import csv
import json
import os
from functools import lru_cache
from pathlib import Path

from .errors import MissingData


def data_dir():
    override = os.environ.get("PARADIM_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def data_path(name):
    path = data_dir() / name
    if not path.exists():
        raise MissingData(f"data file not found: {path}")
    return path


@lru_cache(maxsize=None)
def load_csv(name):
    """Rows of a CSV data file as a list of dicts (all values strings)."""
    with open(data_path(name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@lru_cache(maxsize=None)
def load_json(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return json.load(fh)
