"""Strict JSON loading for the contract tests' checks (checks.py).

Python's json module accepts NaN, Infinity and duplicate keys; the
tests' parser (tests/json.hh) rejects all three, so every check of a
JSON artifact loads it through load() or loads(), which make each an
error.
"""

import json


def unique(pairs):
    """object_pairs_hook that rejects a duplicate key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        dup = next(k for k in obj if keys.count(k) > 1)
        raise ValueError(f"duplicate key {dup!r}")
    return obj


def nonfinite(token):
    """parse_constant that rejects NaN, Infinity and -Infinity."""
    raise ValueError(f"non-finite number {token}")


def loads(text):
    return json.loads(text, object_pairs_hook=unique,
                      parse_constant=nonfinite)


def load(path):
    with open(path) as f:
        return loads(f.read())
