"""Build and load the C counting walk of ``_walk.c``.

The first counting call compiles ``_walk.c`` with the system C compiler
(``cc -O2 -march=native -shared -fPIC``, the flags of ``FLAGS``) into the
user cache directory (``$XDG_CACHE_HOME/visipoly``, by default
``~/.cache/visipoly``) and loads it with ``ctypes``. The file name carries a
hash of the source, the compiler, the platform, the flags and the host CPU,
so a changed source, compiler or flag set gets a fresh build and a warm
cache costs one ``dlopen``. The CPU is in the hash because a
``-march=native`` library may use instructions an older CPU lacks, and a
cache directory may be shared between machines. Where the CPU cannot be
named or the compiler refuses ``-march=native`` by name, the walk is built
without that flag into the same file, so the cache holds one library per
CPU and a refused flag is asked once per cache (``_library``). The build goes to a
temporary file that ``os.replace`` moves into place, so processes that
build at the same time never load a half-written library.

With no compiler, a failed build or an unwritable cache, ``load`` returns
None and ``enumeration._count_sets`` counts by brute force up to 25
vertices and by the plain walk of ``iter_mv_sets`` above, with the same
counts. Nothing here runs at package import.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from collections.abc import Callable, Sequence
from itertools import takewhile
from pathlib import Path

SOURCE = Path(__file__).with_name("_walk.c")
COUNTER_NAMES = ("nodes", "closed", "propagations", "blocks", "hidden")
SHORT_MAX_ORDER = 62  # the largest order of a one-byte graph6 order field
HOST_FLAG = "-march=native"
FLAGS = ("-O2", HOST_FLAG, "-shared", "-fPIC")
CPUINFO = Path("/proc/cpuinfo")
# The lines of CPUINFO that name the CPU: x86 has the first three, arm64 the
# last two. Lines that change while the machine runs, such as "cpu MHz", stay out.
CPU_FIELDS = ("vendor_id", "model name", "flags", "Features", "CPU part")

Counts = list[int] | dict[tuple[int, int], int]
Walk = Callable[[Sequence[int], bool, dict | None], Counts]


@cache
def load() -> Walk | None:
    """The native counting walk, built on first use; None when it cannot be built.

    Its attribute ``graph6`` decodes, counts and keys graph6 records in one call.
    """
    try:
        return _bind(_library())
    except (OSError, RuntimeError):
        return None


def _compiler() -> str | None:
    from shutil import which

    return which("cc") or which("gcc") or which("clang")


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "visipoly"


def _cpu() -> str | None:
    """The host CPU's identity: the ``CPU_FIELDS`` lines of the first processor
    block of ``CPUINFO``; None when it is unreadable or has none of them."""
    try:
        with open(CPUINFO, errors="replace") as info:
            block = list(takewhile(str.strip, info))
    except OSError:
        return None
    return "".join(line for line in block if line.split(":", 1)[0].strip() in CPU_FIELDS) or None


def _library() -> Path:
    """The path of the built library, compiling it when the cache lacks it.

    One file per source, compiler, platform, ``FLAGS`` and CPU. A cache miss
    builds it with ``FLAGS`` when ``_cpu`` names the CPU; else, or when the
    compiler refuses the host build with an error that names ``HOST_FLAG``
    (gcc: "unrecognized command-line option", clang: "does not support"),
    with the portable flags (``FLAGS`` without ``HOST_FLAG``), whose code runs
    on any CPU of the platform. So a compiler that refuses the flag is asked
    once per cache, and deleting the file makes the next load try the host
    build again. Any other failed build, such as a timeout or a killed
    compiler, raises and caches nothing, so the next process tries again.
    The key is a CRC-32 and an Adler-32 of those inputs, the CPU empty when
    it cannot be named: zlib is loaded at interpreter start, while hashlib
    would map OpenSSL into every process that counts (3.6 MB of resident
    memory).
    """
    import platform
    import zlib

    compiler = _compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found")
    real = os.path.realpath(compiler)
    info = os.stat(real)
    cpu = _cpu() or ""
    key = SOURCE.read_bytes() + (
        f"{real} {info.st_size} {info.st_mtime_ns} {sys.platform} {platform.machine()} {sys.maxsize}"
        f"\0{' '.join(FLAGS)}\0{cpu}"
    ).encode()
    target = cache_dir() / f"walk-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    if not target.is_file():
        portable = tuple(flag for flag in FLAGS if flag != HOST_FLAG)
        try:
            _build(compiler, FLAGS if cpu else portable, target)
        except RuntimeError as exc:  # only a refusal names the flag: a timeout caches nothing
            stderr = getattr(exc.__cause__, "stderr", None) or b""
            if not cpu or HOST_FLAG.encode() not in stderr:
                raise
            _build(compiler, portable, target)
    return target


def _build(compiler: str, flags: Sequence[str], target: Path) -> None:
    """Compile into a temporary file that replaces ``target`` in one step."""
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *flags, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise RuntimeError(f"building {SOURCE.name} failed") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _add_counters(counters: dict | None, tally) -> None:
    if counters is not None:
        for name, value in zip(COUNTER_NAMES, tally):
            counters[name] = counters.get(name, 0) + value


def _bind(path: Path) -> Walk:
    import ctypes

    lib = ctypes.CDLL(str(path))
    word = ctypes.c_uint64
    entry = lib.visipoly_walk
    entry.argtypes = [ctypes.c_int, ctypes.POINTER(word), ctypes.c_int,
                      ctypes.POINTER(word), ctypes.POINTER(word)]
    entry.restype = ctypes.c_int

    def walk(adj: Sequence[int], theta: bool, counters: dict | None = None) -> Counts:
        """Counts of the mutual-visibility sets of one graph, in one C call.

        ``adj`` holds the graph's neighbourhood masks. A list indexed by size
        (entry 0 is 1, the empty set), or with ``theta`` a dict keyed by
        (size, diameter) holding the nonzero counts of the nonempty sets.
        ``counters`` gains the walk counters (``COUNTER_NAMES``: nodes popped,
        nodes closed by the shortcut, membership propagations, leaf blocks of
        2..9 candidates evaluated, candidates hidden by the cut and shadow
        filters).
        """
        n = len(adj)
        out = (word * ((n + 1) * (max(n, 1) if theta else 1)))()
        tally = (word * len(COUNTER_NAMES))()
        top = entry(n, (word * max(n, 1))(*adj), int(theta), out, tally)
        if top < 0:
            raise MemoryError("the native walk could not allocate its tables")
        _add_counters(counters, tally)
        if not theta:
            return out[:]
        # A Theta table is zero past the largest set size, so only rows 1 up to
        # it become Python ints (128 of P_64's 4,160 entries); row 0 is the empty set.
        width = max(n, 1)
        return {divmod(i, width): c for i, c in enumerate(out[width:(top + 1) * width], width) if c}

    short = lib.visipoly_walk_graph6
    short.argtypes = [ctypes.c_char_p, ctypes.c_long, ctypes.c_char_p, ctypes.c_long,
                      ctypes.POINTER(word)]
    short.restype = ctypes.c_long

    def walk_graph6(text: bytes, counters: dict | None = None) -> list[str]:
        """The key of each graph6 record, one a line of ``text``, decoded, counted and keyed in one C call.

        Per record, the key that ``polynomial._canonical_text`` gives its
        counts by size; or "" when the record is not a short-form record of
        order 0..62 that decodes in full, and ``parse_graph6`` then names its
        fault or decodes it. Counters as for ``walk``, summed over the counted records.
        """
        # A record of order n and its line break take at least KEY_MAX(n) / 36
        # bytes of text, C's KEY_MAX(n) = 24 + 21n: order 4 has 108 for 2 + 1.
        capacity = 36 * (len(text) + 1)
        keys = ctypes.create_string_buffer(capacity)
        tally = (word * len(COUNTER_NAMES))()
        used = short(text, len(text), keys, capacity, tally)
        if used < 0:
            raise MemoryError("the native walk could not allocate its tables")
        _add_counters(counters, tally)
        return ctypes.string_at(keys, used).decode("ascii").splitlines()

    walk.graph6 = walk_graph6
    return walk
