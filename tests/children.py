"""Child Python processes for the tests that must not run in-process:
the CLI's exit codes, huge allocations, a BLAS thread count, or a
file-size limit."""

import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

# A child's address space: a config that asks for a huge allocation fails
# in the child instead of exhausting the host
CHILD_ADDRESS_SPACE = 2 * 1024**3


def _limits(file_size):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS,
                           (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
        if file_size is not None:
            # a write past the limit then fails with EFBIG instead of
            # killing the child
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (file_size, file_size))
    return apply


def child_python(args, file_size=None, **env_vars):
    """Run `python -W error::RuntimeWarning args` with this checkout's
    sources and one worker, in an address space of CHILD_ADDRESS_SPACE
    bytes and, when `file_size` is given, with files of at most that many
    bytes; `env_vars` are further environment variables (such as
    OPENBLAS_NUM_THREADS="2"). A numpy warning is an error in the child,
    as it is in the suite's own process. The child writes no bytecode: a
    file-size limit would truncate it, and a later import of the sources
    would fail on it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, SLLGFEM_WORKERS="1", PYTHONDONTWRITEBYTECODE="1",
               **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          preexec_fn=_limits(file_size))
