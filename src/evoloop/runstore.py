"""On-disk layout for a single run directory.

    RUN_DIR/
      config.json        engine configuration, written once by init
      meta.json          environment name and bookkeeping
      events.log         one JSON graph event per line, append-only
      reports.jsonl      one iteration report per line
      snap-00007.json    canonical graph state at an iteration boundary,
                         the exact bytes of ``KnowledgeGraph.canonical_bytes``
      eval-<tag>.json    frozen evaluation records

Events buffer in memory during an iteration and flush at the boundary, so
a killed process never leaves a partial iteration tail in events.log. The
graph encodes each event line as it commits the event (each record is
JSON-encoded once, there) and hands it to ``event_sink``; ``flush_events``
only joins and writes the buffered lines. ``append_report`` writes each
report as ``json.dumps(report, sort_keys=True)`` would, through one reused
encoder.
Replay of config + events reproduces the graph bit-exactly; resume counts
committed reports and continues from there. Two readers take the boundary
files. ``read_snapshot`` returns a file's raw bytes, undecoded: the audit
compares them byte for byte with the replayed graph's encoding.
``snapshot_digest`` returns the sha256 of a file's bytes, or None when there
is none: ``run_eval`` names the committed state it evaluates by the last
boundary's digest instead of encoding the replayed graph again.

``config.json``, ``meta.json`` and the eval records are read whole; one that
is missing or does not decode, or an eval record that is not an object,
raises ``IntegrityError`` naming the file. A report line that is not an
object holding every ``IterationReport`` field, each of the JSON type its
annotation names (an array for a list, an object for a dict, an integer
for an int, any number for a float, a string for a str; a boolean is
neither an integer nor a number), as is each member of an array or object
field whose annotation names a member type, raises it naming the line. So
does a ``coverage`` without ``selected`` and ``observed``, or a
``task_stats_pre`` row without integer ``task_type_id`` and ``n_fail``. No
verb then reads a field or member a report lacks or holds in another shape.
Both JSONL files are read line by line through one reused
``json.JSONDecoder``: each stripped, non-blank line must hold exactly one
JSON value, and a line that per-line ``json.loads`` would reject raises
``IntegrityError`` naming the file and line, with the decoder's message;
bytes that are not UTF-8 raise ``IntegrityError`` naming the file.
``read_events`` yields each record as its line is decoded, so a reader
that consumes them one at a time holds one decoded record at a time.
``config.json``, ``meta.json``, boundary snapshots and eval records are
written to a ``.tmp`` name (which the ``snap-*.json`` and ``eval-*.json``
globs do not match), fsynced and renamed into place, and the run directory
is fsynced after each rename, so a kill or a power loss mid-write leaves
either no file or a whole one, and a renamed file stays when a later
report append survives; ``discard_partial_writes`` removes a temp file a
kill left. ``config.json`` is written last, since its presence marks the
directory as a run.
``snapshot_iterations`` reads only the names the writer makes
(``snap-<iteration>.json``, zero-padded to five digits); any other
``snap-*.json`` name raises ``IntegrityError`` naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, get_args, get_origin, get_type_hints

from .engine import IterationReport
from .errors import IntegrityError, ValidationError

CONFIG_NAME = "config.json"
META_NAME = "meta.json"
EVENTS_NAME = "events.log"
REPORTS_NAME = "reports.jsonl"
TMP_SUFFIX = ".tmp"

_DECODER = json.JSONDecoder()
# json.dumps(report, sort_keys=True), without a fresh encoder per report
_REPORT_ENCODE = json.JSONEncoder(sort_keys=True).encode
# the whitespace json.loads skips after a value, as json.decoder defines it
_JSON_WS = re.compile(r"[ \t\n\r]*")
# the JSON types a field of each annotated type accepts, and their name
_JSON_TYPES = {
    list: ((list,), "an array"),
    dict: ((dict,), "an object"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _json_type(hint: Any) -> tuple[tuple[type, ...], str] | None:
    """The JSON types a value annotated ``hint`` accepts, and their name;
    None for ``Any``."""
    return _JSON_TYPES.get(get_origin(hint) or hint)


# field name -> (its accepted types and their name, and those of each member
# of the array or object it holds, None when any member goes), in field
# order; the types are matched exactly, so a bool is neither an int nor a
# number
_REPORT_TYPES = {
    name: (_json_type(hint), _json_type(get_args(hint)[-1]) if get_args(hint) else None)
    for name, hint in get_type_hints(IterationReport).items()
}
_SNAPSHOT_NAME = re.compile(r"snap-([0-9]+)\.json")


class RunStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._pending_events: list[str] = []

    # ------------------------------------------------------------------
    # creation and loading

    def initialize(self, config: Mapping[str, Any], meta: Mapping[str, Any]) -> None:
        if self.exists():
            raise ValidationError(f"run directory already initialized: {self.root}")
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / EVENTS_NAME).touch()
        (self.root / REPORTS_NAME).touch()
        _write_atomic(self.root / META_NAME, _json_bytes(meta))
        # last: a directory is a run once its config is in place
        _write_atomic(self.root / CONFIG_NAME, _json_bytes(config))

    def exists(self) -> bool:
        return (self.root / CONFIG_NAME).is_file()

    def require(self) -> None:
        if not self.exists():
            raise ValidationError(f"not a run directory (missing {CONFIG_NAME}): {self.root}")

    def load_config(self) -> dict[str, Any]:
        self.require()
        return _read_json(self.root / CONFIG_NAME, "config")

    def load_meta(self) -> dict[str, Any]:
        self.require()
        return _read_json(self.root / META_NAME, "meta")

    # ------------------------------------------------------------------
    # event log

    def event_sink(self, line: str) -> None:
        """Buffer one event line, as the graph encoded it."""
        self._pending_events.append(line)

    def flush_events(self) -> int:
        """Append buffered events and fsync; returns the number written."""
        if not self._pending_events:
            return 0
        path = self.root / EVENTS_NAME
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(self._pending_events) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        n = len(self._pending_events)
        self._pending_events.clear()
        return n

    def truncate_events(self, keep: int) -> None:
        """Cut events.log after its first ``keep`` records, then fsync.

        The file is truncated in place at the byte offset where record
        ``keep`` starts, so the kept lines keep their bytes.
        """
        offset = 0
        with open(self.root / EVENTS_NAME, "r+b") as fh:
            for line in fh:
                if line.strip():
                    if keep == 0:
                        break
                    keep -= 1
                offset += len(line)
            fh.truncate(offset)
            os.fsync(fh.fileno())

    def read_events(self) -> Iterator[dict[str, Any]]:
        yield from _read_jsonl(self.root / EVENTS_NAME, "event")

    def has_events(self) -> bool:
        """Whether events.log holds a non-blank line; decodes nothing."""
        path = self.root / EVENTS_NAME
        if not path.is_file():
            return False
        with open(path, "rb") as fh:
            return any(line.strip() for line in fh)

    # ------------------------------------------------------------------
    # iteration reports

    def append_report(self, report: Mapping[str, Any]) -> None:
        with open(self.root / REPORTS_NAME, "a", encoding="utf-8") as fh:
            fh.write(_REPORT_ENCODE(report) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def read_reports(self) -> list[dict[str, Any]]:
        """Every report; a line of another shape (see ``_report_fault``)
        raises ``IntegrityError`` naming it."""
        return list(_read_jsonl(self.root / REPORTS_NAME, "report", _report_fault))

    # ------------------------------------------------------------------
    # boundary snapshots and eval records

    def snapshot_path(self, iteration: int) -> Path:
        return self.root / f"snap-{iteration:05d}.json"

    def write_snapshot(self, iteration: int, state_bytes: bytes) -> None:
        _write_atomic(self.snapshot_path(iteration), state_bytes)

    def read_snapshot(self, iteration: int) -> bytes:
        path = self.snapshot_path(iteration)
        if not path.is_file():
            raise ValidationError(f"missing snapshot {path.name}")
        return path.read_bytes()

    def snapshot_digest(self, iteration: int) -> str | None:
        """sha256 of a boundary file's bytes; None when there is no file."""
        try:
            return hashlib.sha256(self.snapshot_path(iteration).read_bytes()).hexdigest()
        except FileNotFoundError:
            return None

    def snapshot_iterations(self) -> list[int]:
        """The iteration of each boundary snapshot; a ``snap-*.json`` name
        the writer does not make raises ``IntegrityError`` naming it."""
        iterations = []
        for path in self.root.glob("snap-*.json"):
            match = _SNAPSHOT_NAME.fullmatch(path.name)
            if match is None or self.snapshot_path(int(match[1])).name != path.name:
                raise IntegrityError(f"stray snapshot file {path.name}: not snap-<iteration>.json")
            iterations.append(int(match[1]))
        return sorted(iterations)

    def write_eval(self, tag: str, record: Mapping[str, Any]) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in tag)
        path = self.root / f"eval-{safe}.json"
        _write_atomic(path, _json_bytes(record))
        return path

    def discard_partial_writes(self) -> None:
        """Remove temp files left by a write that was killed before its rename."""
        for path in self.root.glob("*" + TMP_SUFFIX):
            path.unlink()

    def read_evals(self) -> list[tuple[str, dict[str, Any]]]:
        """Each eval record with its file name, in name order."""
        records = []
        for path in sorted(self.root.glob("eval-*.json")):
            record = _read_json(path, "eval record")
            if not isinstance(record, dict):
                raise IntegrityError(f"corrupt eval record {path.name}: not an object")
            records.append((path.name, record))
        return records


def _json_bytes(data: Mapping[str, Any]) -> bytes:
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``path`` through a fsynced temp file renamed over it, then fsync
    the directory so that the rename itself survives a power loss."""
    tmp = path.with_name(path.name + TMP_SUFFIX)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _read_json(path: Path, what: str) -> Any:
    """The JSON value of a whole file; ``IntegrityError`` naming it if corrupt."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise IntegrityError(f"missing {what} {path.name}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise IntegrityError(f"corrupt {what} {path.name}: {exc}") from exc


def _report_fault(report: Any) -> str | None:
    """Why a decoded report line is not one every verb can read, or None.

    Each ``IterationReport`` field must hold the JSON type its annotation
    names, and so must each member of an array or object field whose
    annotation names a member type. ``coverage`` must hold ``selected`` and
    ``observed``, and each ``task_stats_pre`` row an integer
    ``task_type_id`` and ``n_fail``: the stats table and the audit compute
    with them.
    """
    if not (isinstance(report, dict) and _REPORT_TYPES.keys() <= report.keys()):
        return "not an object holding every report field"
    for name, ((accepted, expected), member) in _REPORT_TYPES.items():
        value = report[name]
        if type(value) not in accepted:
            return f"field {name!r} is not {expected}"
        if member is not None:
            members = value.values() if type(value) is dict else value
            if any(type(item) not in member[0] for item in members):
                return f"field {name!r} holds a member that is not {member[1]}"
    if not {"selected", "observed"} <= report["coverage"].keys():
        return "field 'coverage' lacks 'selected' or 'observed'"
    for row in report["task_stats_pre"]:
        if type(row.get("task_type_id")) is not int or type(row.get("n_fail")) is not int:
            return "field 'task_stats_pre' holds a row without integer 'task_type_id' and 'n_fail'"
    return None


def _read_jsonl(
    path: Path, what: str, fault: Callable[[Any], str | None] | None = None
) -> Iterator[Any]:
    """The value of each non-blank line of a JSONL file, read line by line.

    Returns what per-line ``json.loads`` would, and for a line it rejects
    raises ``IntegrityError`` with the same message, from one reused
    decoder: ``raw_decode`` stops after the first value, so anything but
    whitespace after it is "Extra data", as ``json.loads`` reports it.
    With ``fault``, a value for which it names a fault raises
    ``IntegrityError`` naming its line and the fault.
    """
    if not path.is_file():
        return
    decode = _DECODER.raw_decode
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value, end = decode(line)
                    if end != len(line):
                        end = _JSON_WS.match(line, end).end()
                        if end != len(line):
                            raise json.JSONDecodeError("Extra data", line, end)
                except json.JSONDecodeError as exc:
                    # no line that starts with a BOM decodes, and json.loads
                    # names the BOM before it tries
                    if line.startswith("\ufeff"):
                        exc = json.JSONDecodeError(
                            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
                        )
                    raise IntegrityError(f"corrupt {what} at {path.name}:{lineno}: {exc}") from exc
                reason = fault(value) if fault is not None else None
                if reason is not None:
                    raise IntegrityError(f"corrupt {what} at {path.name}:{lineno}: {reason}")
                yield value
    except UnicodeDecodeError as exc:
        # the file decodes a block at a time, so the failing line is unknown
        raise IntegrityError(
            f"corrupt {what} in {path.name}: bytes that are not UTF-8 ({exc.reason})"
        ) from exc
