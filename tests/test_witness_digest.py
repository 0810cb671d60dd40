"""Byte-identity of constructed witnesses, pinned by one digest.

`realize --format json` is run on a fixed set of branch data, and the exit
code, stdout and stderr of every run are hashed together.  A refactor of
the construction engines that keeps every witness, trace and message the
same keeps the digest; any change to an output changes it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

from rp2cover.branch import is_admissible
from rp2cover.cli import main

from helpers import data_of
from test_acceptance import _mixed_instance, criterion_05_instances

# SHA-256 over the outputs of `_digest_inputs`, in order
PINNED_DIGEST = "56d7f334fb3c8a3fd9d29982e01168c56fa744e6d1b9113842154ce864ea0e93"


def _all_twos_data():
    """Every admissible all-twos datum with d = 6..64 and 3..6 rows."""
    for d in range(6, 65, 2):
        row = "[" + ",".join(["2"] * (d // 2)) + "]"
        for s in range(3, 7):
            data = data_of(f"d={d}; " + ",".join([row] * s))
            if is_admissible(data).ok:
                yield data


def _digest_inputs():
    """(branch data text, seed) pairs, the seed being the index."""
    data = list(criterion_05_instances())
    data += _all_twos_data()
    for d, s in ((256, 3), (256, 4), (512, 3)):
        data.append(_mixed_instance(d, s, random.Random(d + s)))
    return [(x.to_text(), i) for i, x in enumerate(data)]


def test_realize_outputs_match_pinned_digest():
    h = hashlib.sha256()
    for text, seed in _digest_inputs():
        out, err = io.StringIO(), io.StringIO()
        code = main(
            ["realize", text, "--seed", str(seed), "--format", "json"], out=out, err=err
        )
        h.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    assert h.hexdigest() == PINNED_DIGEST
