"""Build, cache and load the package's C sources.

Two pieces of the package are C: the fluid tier's step kernel
(``fluid/step.c``, a shared library loaded with :mod:`ctypes`) and the
packet tier's core (``sim/_core.c``, a CPython extension module).  Both
are compiled on first use with the system C compiler and cached in
their package's ``__pycache__`` under a name hashed from the source, the
compile command and the machine (for the extension also the Python ABI
and include directory), so an edited source or another interpreter can
never load a stale build.  A build is written to a temporary name and
renamed into place, so concurrent first builds each see either no file
or a whole one.

``-ffp-contract=off`` is in both commands, and it is part of the
contract, not a tuning flag: each kernel reproduces Python's or numpy's
rounding operation for operation, and a fused multiply-add (gcc emits
them by default wherever the target has one, aarch64 for instance)
rounds once where Python rounds twice.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Sequence

COMPILER = "cc"


def cached_path(cache_dir: Path, stem: str, source: bytes,
                flags: Sequence[str], suffix: str = ".so",
                extra: Sequence[str] = ()) -> Path:
    """Where the build of ``source`` with ``flags`` is cached."""
    key = hashlib.sha256(b"\0".join(
        [source, COMPILER.encode(), *(flag.encode() for flag in flags),
         sysconfig.get_platform().encode(), *(e.encode() for e in extra)]
    )).hexdigest()[:16]
    return cache_dir / f"{stem}-{key}{suffix}"


def build(source: bytes, target: Path, flags: Sequence[str],
          what: str) -> Path:
    """Compile ``source`` to ``target`` unless it is cached already.

    ``what`` names the artifact in the errors: a missing compiler or a
    failed build raises :class:`RuntimeError` with the command line (and
    the compiler's stderr), and leaves nothing half-built behind.
    """
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, staging = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp",
                                   dir=target.parent)
    os.close(fd)
    # The source goes in on stdin, so what was hashed is what is built.
    command = [COMPILER, *flags, "-x", "c", "-o", staging, "-"]
    shown = " ".join(command)
    try:
        try:
            done = subprocess.run(command, input=source, capture_output=True)
        except OSError as exc:
            raise RuntimeError(
                f"{what} is built on first use and could not run the "
                f"system C compiler: `{shown}`: {exc}"
            ) from exc
        if done.returncode != 0:
            raise RuntimeError(
                f"building {what} failed: `{shown}` exited "
                f"{done.returncode}:\n"
                + done.stderr.decode(errors="replace")
            )
        os.replace(staging, target)
    finally:
        if os.path.exists(staging):
            os.unlink(staging)
    return target


#: Compile flags for an extension module against this interpreter.  The
#: module resolves the interpreter's symbols when it is loaded, which
#: macOS's linker must be told.
EXTENSION_FLAGS = (("-O2", "-shared", "-fPIC", "-fno-strict-aliasing",
                    "-ffp-contract=off",
                    "-I" + sysconfig.get_paths()["include"])
                   + (("-undefined", "dynamic_lookup")
                      if sys.platform == "darwin" else ()))


def load_extension(name: str, source_path: Path) -> ModuleType:
    """Build (if need be) and import the extension module ``name``.

    The module is registered in :data:`sys.modules` under ``name``, so a
    later ``from package import module`` finds it.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    source = source_path.read_bytes()
    target = build(
        source,
        cached_path(source_path.with_name("__pycache__"),
                    name.rpartition(".")[2].lstrip("_"), source,
                    EXTENSION_FLAGS, suffix, extra=(suffix,)),
        EXTENSION_FLAGS, f"the C extension {name}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(target))
    spec = importlib.util.spec_from_file_location(name, target,
                                                  loader=loader)
    assert spec is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
