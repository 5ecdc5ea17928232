"""Line-delimited JSON record I/O with stable, diff-friendly serialization.

All artifacts written by the toolkit go through these helpers so that two
runs with identical inputs and seeds produce byte-identical files: keys are
sorted, no timestamps are embedded, and every artifact gets a sidecar
``<name>.meta.json`` carrying the resolved run configuration.
"""

import io
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import InputError


def iter_jsonl(source):
    """Yield (line_number, record) from a JSONL path, file object, or lines.

    Blank lines are skipped. Malformed JSON or a non-object line raises
    InputError naming the offending line; a file that is not UTF-8 raises
    InputError naming the file.
    """
    name, close, lines = _open_lines(source)
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{name}:{lineno}: invalid JSON record: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise InputError(f"{name}:{lineno}: expected a JSON object")
            yield lineno, record
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not UTF-8 text: {exc.reason}") from exc
    finally:
        if close:
            lines.close()


def _open_lines(source):
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        if not path.exists():
            raise InputError(f"input file not found: {path}")
        return str(path), True, path.open("r", encoding="utf-8")
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        return getattr(source, "name", "<stream>"), False, source
    return "<lines>", False, iter(source)


def dumps_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


@contextmanager
def _replacing(path):
    """A text file handle whose contents replace ``path`` only once written in full.

    Writes go to a temporary file beside ``path``, renamed over it on
    success and removed on any error, so a reader never sees a partial
    artifact and a failed write leaves the previous file as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_jsonl(path, rows) -> int:
    """Write dict rows as JSONL; returns the number of rows written."""
    n = 0
    with _replacing(path) as fh:
        for row in rows:
            fh.write(dumps_record(row) + "\n")
            n += 1
    return n


def dump_json(path, obj) -> None:
    with _replacing(path) as fh:
        json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


def write_text(path, text: str) -> None:
    with _replacing(path) as fh:
        fh.write(text)


def load_json(path):
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def write_meta(artifact_path, config: dict) -> Path:
    """Write the provenance sidecar for an artifact file."""
    artifact_path = Path(artifact_path)
    meta_path = artifact_path.with_name(artifact_path.name + ".meta.json")
    dump_json(meta_path, {"artifact": artifact_path.name, "config": config})
    return meta_path
