"""Fixtures shared by the test modules."""

import inspect
import struct
import subprocess
import sys
from dataclasses import dataclass

import pytest

# A dispatch-level child: the payloads of the byte tests from their inputs on
# stdin, length-prefixed, then `weaklim verify-all` as `python -m weaklim`
# runs it.
_CHILD = """
import math, runpy, struct, sys
import numpy as np
from weaklim.distrib import _binomial_tail
{sources}
data = sys.stdin.buffer.read()
n, = struct.unpack("<Q", data[:8])
parts = kernel_payload(data[8:8 + n]), tail_payload(data[8 + n:])
sys.stdout.buffer.write(struct.pack("<QQ", *map(len, parts)) + b"".join(parts))
sys.stdout.flush()
sys.argv = ["weaklim", "verify-all"]
runpy.run_module("weaklim", run_name="__main__", alter_sys=True)
"""


@dataclass
class DispatchChild:
    returncode: int
    stderr: str
    kernels: bytes = b""   # test_complexfn.kernel_payload
    tails: bytes = b""     # test_distrib.tail_payload
    verify_all: str = ""   # the JSON that verify-all prints


@pytest.fixture(scope="session")
def dispatch_children():
    """{(disabled targets, OpenBLAS kernel): DispatchChild} of one child per
    numpy SIMD level this host can emulate, from all dispatch targets off to
    only the highest one off (one child with none off where there are none);
    on an x86-64 host with AVX2 each child also takes another OpenBLAS kernel."""
    import test_complexfn
    import test_distrib
    from test_harness import BLAS_CORETYPES, CLI_ENV, dispatch_targets

    source = _CHILD.format(sources="\n".join(inspect.getsource(f) for f in (
        test_complexfn.kernel_payload, test_distrib._beta_tails, test_distrib.tail_payload)))
    nodes = test_complexfn._kernel_nodes().tobytes()
    data = struct.pack("<Q", len(nodes)) + nodes + test_distrib._TAIL_PAIRS.tobytes()
    targets = dispatch_targets()
    kernels = BLAS_CORETYPES if {"AVX2", "X86_V3"} & set(targets) else ()
    children = {}
    for k in range(max(len(targets), 1)):
        env = {**CLI_ENV, "NPY_DISABLE_CPU_FEATURES": " ".join(targets[k:])}
        if kernels:
            env["OPENBLAS_CORETYPE"] = kernels[(k - 1) % len(kernels)]
        config = env["NPY_DISABLE_CPU_FEATURES"] or "nothing", env.get("OPENBLAS_CORETYPE")
        children[config] = subprocess.Popen(
            [sys.executable, "-c", source], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = {}
    for config, child in children.items():
        stdout, stderr = child.communicate(data, timeout=180)
        out[config] = result = DispatchChild(child.returncode, stderr.decode())
        if child.returncode == 0:
            n_kernels, n_tails = struct.unpack("<QQ", stdout[:16])
            kernels, stdout = stdout[16:16 + n_kernels], stdout[16 + n_kernels:]
            result.kernels, result.tails = kernels, stdout[:n_tails]
            result.verify_all = stdout[n_tails:].decode()
    return out
