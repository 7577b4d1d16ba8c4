"""The one writer of every output file, and the '#'-header line format."""

import os
from pathlib import Path


def write_file(path, data: str | bytes) -> None:
    """Write `data` (a str as UTF-8) to `.<name>.<hex>.tmp` beside `path`, with
    open()'s permission bits, then rename it over `path`: never part of a file.
    Missing directories on the way to `path` are made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def lines_text(lines, comments=(), end: str = "\n") -> str:
    """A '# ' line per comment, then `lines`, each ending in `end`."""
    return "".join(f"# {c}{end}" for c in comments) + "".join(f"{l}{end}" for l in lines)
