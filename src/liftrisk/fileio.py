"""The one writer of every output file, and the '#'-header line format."""

import os
from pathlib import Path

from .errors import OutputPathError


def write_file(path, data: str | bytes) -> None:
    """Write `data` (a str as UTF-8) to `.<name>.<hex>.tmp` beside `path`, with
    open()'s permission bits, then rename it over `path`: never part of a file.
    Missing directories on the way to `path` are made.  An OSError on the way
    raises OutputPathError naming `path`, once the temporary file is gone."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(data.encode() if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OutputPathError(f"cannot write output {path}: {exc.strerror or exc}") from exc


def check_writable(path, directory: bool = False) -> None:
    """Raise OutputPathError naming `path` unless write_file can write it or,
    with `directory`, files in it: it is not of the other kind, and its
    nearest existing ancestor is a directory this process may write in."""
    path = Path(path)
    if os.path.exists(path) and os.path.isdir(path) != directory:
        raise OutputPathError(f"output {path} {'is not' if directory else 'is'} a directory")
    ancestor = path if directory else path.parent
    while not os.path.exists(ancestor):
        ancestor = ancestor.parent
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise OutputPathError(f"cannot write output {path}: {ancestor} is not a writable "
                              f"directory")


def lines_text(lines, comments=(), end: str = "\n") -> str:
    """A '# ' line per comment, then `lines`, each ending in `end`."""
    return "".join(f"# {c}{end}" for c in comments) + "".join(f"{l}{end}" for l in lines)
