"""The package imports each public name from its module when first read, so
a process that imports one module (a multiset-hash worker imports palm.msh)
loads neither the protocol nor the cryptography library."""

import os
import subprocess
import sys

import palm

SCRIPT = r"""
import sys

import palm.msh

loaded = {"palm.protocol", "palm.attestation", "cryptography"} & sys.modules.keys()
assert not loaded, sorted(loaded)

import palm

unresolved = [name for name in palm.__all__ if getattr(palm, name, None) is None]
assert unresolved == [], unresolved
assert not hasattr(palm, "nonsense")
"""


def test_msh_import_is_lean_and_every_public_name_resolves():
    src = os.path.dirname(os.path.dirname(palm.__file__))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr[-2000:]
