"""Child Python processes for the tests that must not run in-process:
numpy warnings on purpose, huge allocations, or a BLAS thread count."""

import os
import resource
import subprocess
import sys
from pathlib import Path

# A child's address space: a config that asks for a huge allocation fails
# in the child (MemoryError, exit 1) instead of exhausting the host
CHILD_ADDRESS_SPACE = 2 * 1024**3


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def child_python(args, **env_vars):
    """Run `python args` with this checkout's sources and one worker, in an
    address space of CHILD_ADDRESS_SPACE bytes; `env_vars` are further
    environment variables (such as OPENBLAS_NUM_THREADS="2")."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, SLLGFEM_WORKERS="1", **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=_limit_address_space)
